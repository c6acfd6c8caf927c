"""No module of the package and no test imports a name it does not use,
and the package defines no module-level name or method that nothing
reads."""

import ast
import pathlib
from collections import Counter

import pytest

import ecadd

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ecadd").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))
# The benchmark's scripts, which look up names of the package.
BENCH = [ROOT / "bench" / "tracer.py", ROOT / "bench" / "job.py"]

# Imported but not called: bench/tracer.py wraps them where the callers
# look them up.
ALLOWED = {
    ("src/ecadd/pointaddsynth.py", "decompose_toffoli"),
    ("src/ecadd/pointaddsynth.py", "on_curve_ld"),
}
# Methods the standard library calls: argparse reports a usage error
# through the parser's ``error``.
CALLED_BY_STDLIB = {"_Parser.error"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read.  A name listed
    in ``__all__`` counts as read; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json as j\n"
              "from a import (b, c as d, e)\n"
              "__all__ = ['e']\n"
              "def f():\n    import sys\n    return d(os)\n")
    assert unused_imports(source) == ["b", "j", "sys"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    rel = path.relative_to(ROOT).as_posix()
    unused = [name for name in unused_imports(path.read_text())
              if (rel, name) not in ALLOWED]
    assert unused == [], f"{rel} imports {unused} without using them"


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree) -> list[tuple[str, str, ast.AST]]:
    """``(label, name, node)`` for each module-level function, class and
    assigned name, and each function of a class body that is not a
    dunder, with the statement that defines it.  A method's label is
    ``Class.name``, any other's its name."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{f.name}", f.name, f) for f in node.body
                    if isinstance(f, ast.FunctionDef) and not is_dunder(f.name)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(n.id, n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


def reads(node) -> Counter:
    """How often each name is read inside ``node``, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def unread_definitions(sources: list[str], named: set[str]) -> list[str]:
    """The labels of the definitions of ``sources`` whose name is read
    nowhere in them beyond their own definition, and in ``named`` as
    neither name nor label."""
    trees = [ast.parse(source) for source in sources]
    total = sum((reads(tree) for tree in trees), Counter())
    return sorted(label for tree in trees
                  for label, name, node in definitions(tree)
                  if not {label, name} & named
                  and total[name] == reads(node)[name])


def named_in(source: str) -> set[str]:
    """Every name, attribute, imported name and identifier-like string
    constant of ``source``."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def test_definition_checker_finds_unread_names():
    sources = ["A, B = 1, 2\nC: int = A\n"
               "def f(n):\n    return f(n - 1)\n"
               "class K:\n"
               "    def __init__(self):\n        self.m()\n"
               "    def m(self):\n        pass\n"
               "    def r(self):\n        return self.r()\n"
               "    def u(self):\n        pass\n"
               "def g():\n    return K\n",
               "from m import C\nprint(C)\n"]
    assert unread_definitions(sources, set()) == ["B", "K.r", "K.u", "f", "g"]
    assert unread_definitions(sources, {"g", "K.u"}) == ["B", "K.r", "f"]
    assert unread_definitions(sources, {"r", "u"}) == ["B", "f", "g"]


def test_every_definition_has_a_reader():
    # A name or method of the package that only tests read is a wrapper
    # without a production caller; the benchmark's scripts,
    # ``ecadd.__all__`` and the standard library's calls count as
    # readers.
    named = {"__all__", "__version__", *ecadd.__all__, *CALLED_BY_STDLIB}
    for path in BENCH:
        named |= named_in(path.read_text())
    unread = unread_definitions([p.read_text() for p in SRC], named)
    assert unread == [], f"src/ecadd/ defines {unread}, which nothing reads"
