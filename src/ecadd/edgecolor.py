"""Minimal proper edge coloring of bipartite multigraphs.

By Koenig's theorem the chromatic index of a bipartite multigraph equals
its maximum degree Delta, and this module always returns a coloring with
exactly Delta colors, as one color per edge in edge order.

The algorithm pads the graph with dummy edges to a Delta-regular bipartite
multigraph and then recursively splits it:

* even degree d: an Euler partition splits the edge set into two
  d/2-regular halves colored with disjoint palettes;
* odd degree d: a perfect matching (Hopcroft-Karp) is peeled off as one
  color class, leaving a (d-1)-regular graph.

Everything is deterministic: ties are broken by edge/vertex index order,
so the same graph always yields the same coloring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite multigraph; edges are (left_vertex, right_vertex), and
    the same pair may appear more than once."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise ValueError(f"edge ({u}, {v}) out of range")


@dataclass(frozen=True)
class EdgeColoring:
    """A proper edge coloring: ``colors[k]`` in 0 .. num_colors-1 is the
    color of ``graph.edges[k]``."""

    colors: tuple[int, ...]
    num_colors: int

    def layers(self, graph: BipartiteGraph) -> list[list[tuple[int, int]]]:
        """Edges grouped by color, each layer in input edge order."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_colors)]
        for e, c in zip(graph.edges, self.colors):
            out[c].append(e)
        return out


def color_edges(graph: BipartiteGraph) -> EdgeColoring:
    """Properly color the edges with exactly max-degree colors."""
    if not graph.edges:
        return EdgeColoring((), 0)

    # Compact away isolated vertices so padding cost scales with the
    # number of edges, not the declared vertex counts.
    lmap: dict[int, int] = {}
    rmap: dict[int, int] = {}
    for u, v in graph.edges:
        lmap.setdefault(u, len(lmap))
        rmap.setdefault(v, len(rmap))

    dl = [0] * len(lmap)
    dr = [0] * len(rmap)
    eu = []
    ev = []
    for u, v in graph.edges:
        cu, cv = lmap[u], rmap[v]
        eu.append(cu)
        ev.append(cv)
        dl[cu] += 1
        dr[cv] += 1
    delta = max(max(dl), max(dr))

    # Pad with dummy vertices/edges to a delta-regular bipartite multigraph.
    nside = max(len(lmap), len(rmap))
    dl += [0] * (nside - len(dl))
    dr += [0] * (nside - len(dr))
    li, ri = 0, 0
    while True:
        while li < nside and dl[li] == delta:
            li += 1
        if li == nside:
            break
        while dr[ri] == delta:
            ri += 1
        take = min(delta - dl[li], delta - dr[ri])
        for _ in range(take):
            eu.append(li)
            ev.append(ri)
        dl[li] += take
        dr[ri] += take

    colors = [-1] * len(eu)
    _color_regular(eu, ev, nside, list(range(len(eu))), delta, 0, colors)

    return EdgeColoring(tuple(colors[:len(graph.edges)]), delta)


def _color_regular(eu, ev, nside, edge_ids, d, base, colors):
    """Color a d-regular bipartite multigraph (given by edge ids) with
    colors base .. base+d-1."""
    if d == 1:
        for k in edge_ids:
            colors[k] = base
        return
    if d % 2 == 0:
        trails = _euler_split(eu, ev, nside, edge_ids)
        _color_regular(eu, ev, nside, trails[0::2], d // 2, base, colors)
        _color_regular(eu, ev, nside, trails[1::2], d // 2, base + d // 2,
                       colors)
        return
    for k in _perfect_matching(eu, ev, nside, edge_ids):
        colors[k] = base
    rest = [k for k in edge_ids if colors[k] < 0]
    _color_regular(eu, ev, nside, rest, d - 1, base + 1, colors)


def _euler_split(eu, ev, nside, edge_ids):
    """The edges of an even-regular bipartite multigraph along closed
    trails, one after another.  Every trail starts on the left side and
    has even length, so the edges at even positions and those at odd
    positions are two halves with equal degrees."""
    # Each vertex's edges in reverse order, so that pop() takes the first
    # edge not yet walked once the used ones on top are dropped.
    left: list[list[int]] = [[] for _ in range(nside)]
    right: list[list[int]] = [[] for _ in range(nside)]
    for k in reversed(edge_ids):
        left[eu[k]].append(k)
        right[ev[k]].append(k)
    used = bytearray(len(eu))
    trails = []
    append = trails.append
    for k0 in edge_ids:
        if used[k0]:
            continue
        # Walk a closed trail from this edge's left endpoint, two edges
        # a step.  All degrees are even, so the walk leaves every right
        # vertex it enters and can only get stuck back at the start.
        lst = left[eu[k0]]
        while True:
            while lst and used[lst[-1]]:
                lst.pop()
            if not lst:
                break
            k = lst.pop()
            used[k] = 1
            append(k)
            lst = right[ev[k]]
            while used[lst[-1]]:
                lst.pop()
            k = lst.pop()
            used[k] = 1
            append(k)
            lst = left[eu[k]]
    return trails


def _perfect_matching(eu, ev, nside, edge_ids):
    """Perfect matching in a regular bipartite multigraph, as the edge id
    matched at each left vertex, via Hopcroft-Karp."""
    adj: list[list[int]] = [[] for _ in range(nside)]
    for k in edge_ids:
        adj[eu[k]].append(k)
    match_l = [-1] * nside  # edge id matched at left vertex
    match_r = [-1] * nside
    # Greedy warm start.
    for k in edge_ids:
        if match_l[eu[k]] == -1 and match_r[ev[k]] == -1:
            match_l[eu[k]] = k
            match_r[ev[k]] = k

    inf = float("inf")
    while True:
        # BFS layers over free left vertices.
        dist = [inf] * nside
        q = deque()
        for u in range(nside):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for k in adj[u]:
                mk = match_r[ev[k]]
                if mk == -1:
                    found = True
                elif dist[eu[mk]] is inf:
                    dist[eu[mk]] = dist[u] + 1
                    q.append(eu[mk])
        if not found:
            break

        # Layered augmentation (iterative DFS).
        it = [0] * nside
        for u0 in range(nside):
            if match_l[u0] != -1:
                continue
            stack = [u0]
            path = []  # edge ids along the alternating path
            while stack:
                u = stack[-1]
                advanced = False
                while it[u] < len(adj[u]):
                    k = adj[u][it[u]]
                    it[u] += 1
                    mk = match_r[ev[k]]
                    if mk == -1:
                        # Augment along path + k.
                        path.append(k)
                        for pk in path:
                            match_l[eu[pk]] = pk
                            match_r[ev[pk]] = pk
                        stack = []
                        path = []
                        advanced = True
                        break
                    nxt = eu[mk]
                    if dist[nxt] == dist[u] + 1:
                        stack.append(nxt)
                        path.append(k)
                        advanced = True
                        break
                if not advanced:
                    dist[u] = inf  # dead end; prune
                    stack.pop()
                    if path:
                        path.pop()
    if -1 in match_l:
        raise AssertionError("regular bipartite graph must have a perfect matching")
    return match_l


def graph_of_matrix(matrix) -> BipartiteGraph:
    """Bipartite graph of a bit matrix: inputs (columns) on the left,
    outputs (rows) on the right, one edge per nonzero entry."""
    edges = []
    for j, r in enumerate(matrix.rows):
        while r:
            low = r & -r
            edges.append((low.bit_length() - 1, j))
            r ^= low
    return BipartiteGraph(matrix.n, matrix.n, tuple(edges))
