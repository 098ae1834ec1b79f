"""Static checks of the package sources and the test oracles, with the
standard library only: every imported name is used, every top-level name of
the package is read or exported, and every exported name exists."""

import ast
from pathlib import Path

import pytest

import rmpa

SRC = Path(rmpa.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ORACLES = Path(__file__).parent / "oracles.py"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_checker_finds_an_unused_import():
    source = ("import threading\nfrom math import comb, isfinite\n"
              "import numpy as np\nx = np.zeros(comb(4, 2))\n")
    assert unused_imports(source) == ["isfinite", "threading"]


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_names(sources, exported=()) -> list:
    """Top-level functions, classes and assigned names of the modules in
    sources that none of them reads and exported does not list."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(name.id for target in targets
                               for name in ast.walk(target)
                               if isinstance(name, ast.Name))
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(defined - read - set(exported))


def test_the_checker_finds_an_unread_name():
    sources = ["import math\nLIMIT, _SCALE = 3, 2\nTABLE: dict = {}\n"
               "def area(r):\n    return math.pi * r * r * _SCALE\n"
               "def orphan():\n    pass\nclass Shape:\n    sides = 0\n",
               "from a import area\nprint(area(1), Shape.sides)\n"]
    assert unread_names(sources) == ["LIMIT", "TABLE", "orphan"]
    assert unread_names(sources, exported=["orphan"]) == ["LIMIT", "TABLE"]


def test_every_top_level_name_is_read_or_exported():
    # code that only tests use belongs in tests/
    assert unread_names([path.read_text() for path in MODULES],
                        rmpa.__all__) == []


def test_every_exported_name_resolves():
    assert len(set(rmpa.__all__)) == len(rmpa.__all__)
    missing = [name for name in rmpa.__all__ if not hasattr(rmpa, name)]
    assert missing == []
