"""The README's examples run as written: the library example, the
`simulate` spec, and each complete line of the CLI block."""

import json
import re
import shlex
from pathlib import Path

import pytest

from rmpa.cli import load_experiment_spec, main

README = (Path(__file__).parent.parent / "README.md").read_text()


def block_after(marker: str, lang: str) -> str:
    """The first ```lang block after marker in the README."""
    start = README.index(marker)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


# (command, comment) of each CLI line, without simulate (it needs a spec
# file) and the LLR placeholder
CLI_LINES = [tuple(part.strip() for part in line.partition("#")[::2])
             for line in block_after("## CLI", "sh").splitlines()
             if line.startswith("rmpa ") and " simulate " not in line
             and "..." not in line]


def test_library_example_runs():
    exec(block_after("## Library example", "python"), {})


def test_spec_example_loads():
    spec = json.loads(block_after("`simulate` reads a JSON spec", "json"))
    cfg, output = load_experiment_spec(spec)
    assert (cfg.code.m, cfg.code.r, output) == (6, 3, None)


@pytest.mark.parametrize("command,comment", CLI_LINES,
                         ids=[command for command, _ in CLI_LINES])
def test_cli_line_runs(capsys, command, comment):
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    expected = re.search(r"-> (\S+)", comment)
    if expected is not None:
        assert out.strip() == expected.group(1)
