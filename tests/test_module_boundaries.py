"""Package modules talk to each other through public names only.

A module may not import a sibling's single-underscore name, nor set or read
a single-underscore attribute of any object but `self` or `cls`. Dunders
such as `__dict__` are not private.
"""

import ast
from pathlib import Path

import pytest

import blendrank

PACKAGE = Path(blendrank.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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
