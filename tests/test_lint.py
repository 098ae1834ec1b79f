"""Static checks of the package sources and the test oracles, with the
standard library only: every imported name is used, no module makes a bare
call at its top level or calls a function of its own on import, every
top-level name of the package is read or exported, no take() writes to
out= through numpy's buffer, the chunk budget is only handed on to the
planner, every exported name exists, every exported name is read by the
package or shown in the README's library example, every dotted
rmpa.<module>.<name> in the README and in the package's docstrings and
comments names something, and the change log stays a readable size."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import rmpa

SRC = Path(rmpa.__file__).parent
README = SRC.parent.parent / "README.md"
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


def top_level_calls(source: str) -> list:
    """The lines of a module's bare top-level calls: statements that only
    call something, and so run for their effect when the module is
    imported."""
    return [node.lineno for node in ast.parse(source).body
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]


def test_the_checker_finds_a_top_level_call():
    source = ('"""A module."""\nimport os\nos.umask(0o22)\nN = len("ab")\n'
              "def f():\n    print(N)\nif __name__ == '__main__':\n"
              "    f()\n")
    assert top_level_calls(source) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_makes_a_bare_call_on_import(path):
    # a bare call at import time sets something for the whole process,
    # such as its allocator, that the importer did not ask for
    assert top_level_calls(path.read_text()) == []


def import_time_calls(source: str) -> list:
    """The lines of the calls that a module makes, as it is imported, of
    the functions it defines itself: calls in its top-level statements, in
    class bodies, decorators and default values, but not in a def or
    lambda body, which runs only when called, nor under
    `if __name__ == "__main__":`."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for child in (getattr(node, "decorator_list", [])
                          + node.args.defaults + node.args.kw_defaults):
                if child is not None:
                    visit(child)
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in defined):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for node in tree.body:
        main_guard = (isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'")
        if not main_guard:
            visit(node)
    return sorted(lines)


def test_the_checker_finds_an_import_time_call():
    source = ('"""A module."""\nfrom functools import lru_cache\n'
              "def table(n=None):\n    return list(range(n or 4))\n"
              "TABLE = table()\nLOOKUP = {'t': lambda: table()}\n"
              "def reader(t=len(table(2))):\n    return table(t)\n"
              "class Holder:\n    cached = lru_cache(table)\n"
              "    size = len(table(3))\n"
              "if __name__ == '__main__':\n    table()\n")
    assert import_time_calls(source) == [5, 7, 11]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_its_own_functions_on_import(path):
    # a table that a module builds on import is built for every importer,
    # whether it decodes or not; tables are built when first read
    assert import_time_calls(path.read_text()) == []


def buffered_takes(source: str) -> list:
    """The lines of the calls take(..., out=...) whose mode is the default
    'raise': numpy then always writes the gather to a buffer and copies it
    into out, so that out= saves nothing.  np.take(a, indices, axis, out,
    mode) and a.take(indices, axis, out, mode) may pass both by
    position."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "take"):
            continue
        # np.take's array comes first; a method's is its receiver
        method = not (isinstance(node.func, ast.Name) or (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")))
        out_at = 2 if method else 3
        keywords = {k.arg: k.value for k in node.keywords}
        out = keywords.get("out", (node.args[out_at:] or [None])[0])
        mode = keywords.get("mode", (node.args[out_at + 1:] or [None])[0])
        raising = mode is None or (isinstance(mode, ast.Constant)
                                   and mode.value == "raise")
        if out is not None and raising:
            lines.append(node.lineno)
    return lines


def test_the_checker_finds_a_buffered_take():
    source = ("import numpy as np\nx, i, o = np.ones(4), [1, 2], np.empty(2)\n"
              "x.take(i, out=o)\n"
              "np.take(x, i, out=o, mode='wrap')\n"
              "np.take(x, i, 0, o)\n"
              "x.take(i, 0, o, 'clip')\n"
              "x.take(i, axis=0, mode='raise', out=o)\n"
              "np.take(x, i)\n"
              "take(x, i, 0, o, 'wrap')\n")
    assert buffered_takes(source) == [3, 5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_take_writes_through_a_buffer(path):
    # a gather of (64, 96) indices into (128, 42) float32 columns took
    # 141 us through out= in the default mode, against 56 us without out
    # and 54 us through out= with mode='wrap' (numpy 2.4, one x86 core):
    # write a chunk where it goes only with mode='wrap' or 'clip', whose
    # indices are known to be in range
    assert buffered_takes(path.read_text()) == []


def budget_arithmetic(source: str) -> list:
    """The lines that read BUILD_BYTES other than to hand it on as the
    budget of a call: its last positional argument, alone or times an
    integer.  Only rmpa.fod._chunks turns the budget into chunks, so that
    no kernel plans its own."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if (getattr(node, "id", getattr(node, "attr", None)) != "BUILD_BYTES"
                or not isinstance(node.ctx, ast.Load)):
            continue
        arg, above = node, parent[node]
        if isinstance(above, ast.BinOp) and isinstance(above.op, ast.Mult):
            other = above.right if above.left is node else above.left
            if isinstance(other, ast.Constant) and type(other.value) is int:
                arg, above = above, parent[above]
        if not (isinstance(above, ast.Call) and above.args
                and above.args[-1] is arg):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_checker_finds_budget_arithmetic():
    source = ("from . import fod\nfrom .fod import BUILD_BYTES, _chunks\n"
              "for c in _chunks(9, 4, 1, fod.BUILD_BYTES):\n    pass\n"
              "blocks = _chunks(9, 4, 1, 4 * BUILD_BYTES)\n"
              "step = max(1, fod.BUILD_BYTES // 64)\n"
              "for start in range(0, 9, BUILD_BYTES // 8):\n    pass\n"
              "tiles = _chunks(9, 4, fod.BUILD_BYTES, 1)\n"
              "limit = fod.BUILD_BYTES\nBUILD_BYTES = 1 << 18\n")
    assert budget_arithmetic(source) == [6, 7, 9, 10]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_budget_is_only_handed_on(path):
    # which chunk a kernel takes is one decision, rmpa.fod._chunks's: a
    # kernel that divided the budget itself would be a second planner
    assert budget_arithmetic(path.read_text()) == []


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
# reads: explicit_schedule_config, which the benchmark's checks call.  The
# list may only shrink.
UNREAD_EXPORTS = {"explicit_schedule_config"}


def names_read(source: str) -> set:
    """The names a module loads."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_reader_finds_loads_only():
    source = "from rmpa import decode, preset\nx = preset()\ny = x\n"
    assert names_read(source) == {"preset", "x"}


def test_every_exported_name_is_read_by_the_package_or_the_example():
    readme = README.read_text()
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme,
                        re.S).group(1)
    read = set().union(*(names_read(path.read_text()) for path in MODULES))
    unread = set(rmpa.__all__) - read - names_read(example)
    assert unread == UNREAD_EXPORTS


def prose(source: str) -> str:
    """The docstrings and comments of a module, one after another."""
    tree = ast.parse(source)
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    comments = [token.string for token in tokenize.generate_tokens(
        io.StringIO(source).readline) if token.type == tokenize.COMMENT]
    return "\n".join(text for text in docs + comments if text)


def unresolved_references(text: str) -> list:
    """The dotted rmpa.<module>.<name> references in text that name no
    module of rmpa or no attribute of it."""
    unresolved = set()
    for module, name in re.findall(r"\brmpa\.(\w+)\.(\w+)", text):
        try:
            found = hasattr(importlib.import_module(f"rmpa.{module}"), name)
        except ImportError:
            found = False
        if not found:
            unresolved.add(f"rmpa.{module}.{name}")
    return sorted(unresolved)


def test_the_checker_finds_an_unresolved_reference():
    source = ('"""Signs by rmpa.geometry.form_signs, tables of rmpa.fod."""\n'
              "# rmpa.fod._form_table and rmpa.nowhere.x, rmpa.decoder.\n"
              "def f():\n    '''rmpa.cli.MAX_M, rmpa.cli.gone'''\n"
              "    return 'rmpa.geometry.in_a_string'\n")
    assert unresolved_references(prose(source)) == [
        "rmpa.cli.gone", "rmpa.geometry.form_signs", "rmpa.nowhere.x"]


def test_every_dotted_reference_resolves():
    # a docstring or the README naming a function that was renamed or
    # removed points its reader nowhere
    texts = [README.read_text()] + [prose(path.read_text())
                                    for path in SRC.glob("*.py")]
    assert unresolved_references("\n".join(texts)) == []


def test_the_change_log_stays_under_a_megabyte():
    # one line per change and finding: the longest is about 12 K characters,
    # and the whole log under 200 KB; a log grown past 1 MB was rewritten
    # wrongly, not written
    log = SRC.parent.parent / "CHANGES.md"
    assert log.stat().st_size < 1 << 20
