"""`rmpa simulate --no-timing` output of three fixed specs, byte for byte.

golden/ holds each spec with the CSV it produced: an explicit schedule on
RM(6,3), MFP on RM(7,2) and full RPA with early stopping on RM(5,2).  A
change to decoding, FOD counting or the sweep's stopping rule shows here.
"""

from pathlib import Path

import pytest

from rmpa.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["sched_rm63", "mfp_rm72", "rpa_es_rm52"])
def test_simulate_output_is_byte_identical(tmp_path, capsys, name):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--spec", str(GOLDEN / f"{name}.json"),
                 "--output", str(out), "--no-timing"]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
