"""No module of the package and no test imports a name it does not use."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "ecadd").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))

# Imported but not called: bench/tracer.py wraps them where the callers
# look them up.
ALLOWED = {
    ("src/ecadd/pointaddsynth.py", "decompose_toffoli"),
    ("src/ecadd/pointaddsynth.py", "on_curve_ld"),
}


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
