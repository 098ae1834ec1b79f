"""Static checks of the package sources and the test oracles, with the
standard library only: every imported name is used, every top-level name of
the package is read or exported, every exported name exists, and every
exported name is read by the package or shown in the README's library
example."""

import ast
import re
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


# exported names that neither the package nor the README's library example
# reads: explicit_schedule_config, which the benchmark's checks call, and
# binomial_ci, which the sweep's output does not write yet.  The list may
# only shrink.
UNREAD_EXPORTS = {"explicit_schedule_config", "binomial_ci"}


def names_read(source: str) -> set:
    """The names a module loads."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_reader_finds_loads_only():
    source = "from rmpa import decode, preset\nx = preset()\ny = x\n"
    assert names_read(source) == {"preset", "x"}


def test_every_exported_name_is_read_by_the_package_or_the_example():
    readme = (SRC.parent.parent / "README.md").read_text()
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme,
                        re.S).group(1)
    read = set().union(*(names_read(path.read_text()) for path in MODULES))
    unread = set(rmpa.__all__) - read - names_read(example)
    assert unread == UNREAD_EXPORTS
