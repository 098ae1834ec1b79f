"""Static checks of the package sources and the test oracles, with the
standard library only: every imported name is used, and every exported name
exists."""

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


def test_every_exported_name_resolves():
    assert len(set(rmpa.__all__)) == len(rmpa.__all__)
    missing = [name for name in rmpa.__all__ if not hasattr(rmpa, name)]
    assert missing == []
