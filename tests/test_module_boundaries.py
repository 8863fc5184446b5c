"""Package modules talk to each other through public names only, and their
imports point one way.

A module may not import a sibling's single-underscore name, nor set or read
a single-underscore attribute of any object but `self` or `cls`. Dunders
such as `__dict__` are not private.

The sibling imports, at any depth in a module, form no cycle. `scorer`, the
package's one tree walker, imports nothing from `ltr`: `ltr` trains and
scores through `scorer`, so the dependency runs from `ltr` to `scorer`.
"""

import ast
from pathlib import Path

import pytest

import blendrank

PACKAGE = Path(blendrank.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {p.stem for p in SOURCES}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "blendrank"
            found += [f"line {node.lineno}: imports {a.name}"
                      for a in node.names if sibling and is_private(a.name)]
        elif isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_package_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_reach_across_objects(path):
    assert private_reaches(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_rule_flags_what_it_should():
    flagged = private_reaches(ast.parse(
        "from .pipeline import _helper, public\n"
        "from blendrank.ltr import _Node\n"
        "import os\n"
        "pipe._queries = None\n"
        "x = other._cache\n"
        "self._ok = cls._ok\n"
        "clone.__dict__.update(self.__dict__)\n"))
    assert flagged == ["line 1: imports _helper", "line 2: imports _Node",
                       "line 4: pipe._queries", "line 5: other._cache"]


def sibling_imports(tree: ast.AST) -> set[str]:
    """Package modules imported anywhere in a module, relatively or as `blendrank.x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "blendrank":
                    continue
                path = path[1:]
            found |= {path[0]} if path else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("blendrank.")}
    return found & MODULES


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a module path that returns to its start; [] if none."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        for target in sorted(graph.get(module, ())):
            cycle = visit(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return []


def package_imports() -> dict[str, set[str]]:
    return {p.stem: sibling_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES}


def test_sibling_imports_form_no_cycle():
    assert import_cycle(package_imports()) == []


def test_scorer_imports_nothing_from_ltr():
    graph = package_imports()
    assert "scorer" in graph["ltr"]
    assert "ltr" not in graph["scorer"]


def test_import_rule_flags_what_it_should():
    found = sibling_imports(ast.parse(
        "from .ltr import Ensemble\n"
        "from . import corpus as corpus_io\n"
        "from blendrank.ivf import search\n"
        "from blendrank import metrics\n"
        "import blendrank.features\n"
        "import numpy as np\n"
        "from collections import abc\n"
        "def late():\n"
        "    from .pipeline import Pipeline\n"))
    assert found == {"ltr", "corpus", "ivf", "metrics", "features", "pipeline"}
    assert import_cycle({"ltr": {"scorer"}, "scorer": {"corpus"}}) == []
    assert import_cycle({"ltr": {"scorer"}, "scorer": {"ltr"}}) == ["ltr", "scorer", "ltr"]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
