"""Minimal edge coloring: properness, exact chromatic index, determinism."""

import random

import pytest

from conftest import ref_max_degree
from ecadd.edgecolor import BipartiteGraph, EdgeColoring, color_edges, graph_of_matrix
from ecadd.linmaps import BinMatrix, matrix_of_squaring
from ecadd.gf2field import IrreduciblePoly


def assert_optimal_proper(graph: BipartiteGraph, coloring: EdgeColoring):
    assert coloring.num_colors == ref_max_degree(graph.edges)
    assert len(coloring.colors) == len(graph.edges)
    seen = set()
    for (u, v), c in zip(graph.edges, coloring.colors):
        assert 0 <= c < coloring.num_colors
        assert ("L", u, c) not in seen, "left vertex repeats a color"
        assert ("R", v, c) not in seen, "right vertex repeats a color"
        seen.add(("L", u, c))
        seen.add(("R", v, c))


def random_graph(rng: random.Random, max_side: int = 30,
                 max_edges: int = 80) -> BipartiteGraph:
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    want = rng.randint(0, min(max_edges, nl * nr))
    edges = set()
    while len(edges) < want:
        edges.add((rng.randrange(nl), rng.randrange(nr)))
    return BipartiteGraph(nl, nr, tuple(sorted(edges)))


class TestBipartiteGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, ((2, 0),))
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, ((0, -1),))

    def test_max_degree(self):
        # color_edges finds Delta itself: 3 edges meet at right vertex 0.
        g = BipartiteGraph(3, 2, ((0, 0), (1, 0), (2, 0), (0, 1)))
        assert color_edges(g).num_colors == ref_max_degree(g.edges) == 3
        assert color_edges(BipartiteGraph(4, 4, ())).num_colors == 0


class TestColorEdges:
    def test_empty(self):
        coloring = color_edges(BipartiteGraph(5, 5, ()))
        assert coloring.num_colors == 0
        assert coloring.colors == ()

    def test_single_edge(self):
        g = BipartiteGraph(1, 1, ((0, 0),))
        assert_optimal_proper(g, color_edges(g))

    def test_star(self):
        g = BipartiteGraph(1, 7, tuple((0, v) for v in range(7)))
        c = color_edges(g)
        assert c.num_colors == 7
        assert_optimal_proper(g, c)

    def test_complete_bipartite(self):
        for a, b in ((3, 3), (4, 2), (5, 5), (1, 9)):
            g = BipartiteGraph(a, b, tuple(
                (u, v) for u in range(a) for v in range(b)
            ))
            assert_optimal_proper(g, color_edges(g))

    def test_perfect_matching_graph(self):
        g = BipartiteGraph(6, 6, tuple((i, i) for i in range(6)))
        c = color_edges(g)
        assert c.num_colors == 1
        assert_optimal_proper(g, c)

    def test_multigraph(self, rng):
        # Parallel edges each take their own color, and still only Delta.
        g = BipartiteGraph(3, 3, ((0, 0), (0, 0), (1, 0), (0, 1), (2, 2),
                                  (2, 2), (2, 2), (1, 1), (0, 0)))
        c = color_edges(g)
        assert c.num_colors == 4
        assert_optimal_proper(g, c)
        for _ in range(100):
            nl, nr = rng.randint(1, 8), rng.randint(1, 8)
            g = BipartiteGraph(nl, nr, tuple(
                (rng.randrange(nl), rng.randrange(nr))
                for _ in range(rng.randint(0, 40))))
            assert_optimal_proper(g, color_edges(g))

    def test_isolated_vertices_do_not_cost(self):
        # Large vertex counts with two edges must still color with Delta.
        g = BipartiteGraph(10_000, 10_000, ((7, 3), (7, 9999)))
        c = color_edges(g)
        assert c.num_colors == 2
        assert_optimal_proper(g, c)

    def test_random_graphs_fuzz(self, rng):
        for _ in range(400):
            g = random_graph(rng)
            assert_optimal_proper(g, color_edges(g))

    def test_deterministic(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            assert color_edges(g).colors == color_edges(g).colors

    def test_layers_partition_edges(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            layers = color_edges(g).layers(g)
            flat = [e for layer in layers for e in layer]
            assert sorted(flat) == sorted(g.edges)
            for layer in layers:
                lefts = [u for u, _ in layer]
                rights = [v for _, v in layer]
                assert len(set(lefts)) == len(lefts)
                assert len(set(rights)) == len(rights)


class TestGraphOfMatrix:
    def test_edges_are_matrix_entries(self):
        m = BinMatrix(2, (0b01, 0b11))
        g = graph_of_matrix(m)
        assert g.left_count == g.right_count == 2
        assert sorted(g.edges) == [(0, 0), (0, 1), (1, 1)]
        assert ref_max_degree(g.edges) == m.max_degree

    def test_squaring_map_colors_with_depth_colors(self):
        fld = IrreduciblePoly.from_string("1+x^3+x^6+x^7+x^163")
        m = matrix_of_squaring(fld)
        g = graph_of_matrix(m)
        c = color_edges(g)
        assert c.num_colors == m.max_degree == 8
        assert_optimal_proper(g, c)
