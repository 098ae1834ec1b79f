import json
import os
import stat

import pytest

from rmpa.cli import load_experiment_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_rm11(capsys):
    code, out, _ = run_cli(capsys, "encode", "--m", "1", "--r", "1",
                           "--msg", "10")
    assert code == 0
    assert out.strip() == "11"


def test_encode_all_zero(capsys):
    code, out, _ = run_cli(capsys, "encode", "--m", "3", "--r", "3",
                           "--msg", "00000000")
    assert code == 0
    assert out.strip() == "0" * 8


def test_encode_rm21(capsys):
    code, out, _ = run_cli(capsys, "encode", "--m", "2", "--r", "1",
                           "--msg", "110")
    assert code == 0
    assert out.strip() == "1010"


def test_encode_bad_length_exits_2(capsys):
    code, out, err = run_cli(capsys, "encode", "--m", "2", "--r", "1",
                             "--msg", "11")
    assert code == 2
    assert out == ""
    assert err != ""


def test_decode_noiseless(capsys):
    # leading minus sign: must be passed as --llr=... so argparse does not
    # read the value as an option
    code, out, _ = run_cli(capsys, "decode", "--m", "2", "--r", "1",
                           "--preset", "rpa", "--llr=-9,9,-9,9")
    assert code == 0
    assert out.strip() == "1010"


def test_fods_rpa_72(capsys):
    code, out, _ = run_cli(capsys, "fods", "--m", "7", "--r", "2",
                           "--preset", "rpa", "--nmax", "3")
    assert code == 0
    assert out.strip() == "381"


def test_fods_mfp_83(capsys):
    code, out, _ = run_cli(capsys, "fods", "--m", "8", "--r", "3",
                           "--gamma", "3/4", "--ditr", "1/3",
                           "--drec", "3/4", "--nmax", "3")
    assert code == 0
    assert out.strip() == "22544"


def test_fods_mfp_72_measured(capsys):
    code, out, _ = run_cli(capsys, "fods", "--m", "7", "--r", "2",
                           "--gamma", "2/3", "--ditr", "1/4",
                           "--drec", "1/2", "--nmax", "3", "--measure")
    assert code == 0
    assert out.split() == ["113", "113"]


def test_fods_schedule_honours_nmax(capsys):
    code, out, _ = run_cli(capsys, "fods", "--m", "6", "--r", "3",
                           "--schedule", "4,8", "--nmax", "2", "--measure")
    assert code == 0
    assert out.split() == ["128", "128"]


@pytest.mark.parametrize("flags,count", [
    ([], "381"),
    (["--preset", "mfp", "--gamma", "2/3", "--ditr", "1/4", "--drec", "1/2"],
     "113")])
def test_fods_decoder_defaults(capsys, flags, count):
    # no decoder flags mean rpa; mfp takes the three factors
    code, out, _ = run_cli(capsys, "fods", "--m", "7", "--r", "2", *flags)
    assert code == 0
    assert out.strip() == count


# each pair gives a key the chosen decoder would ignore, as CLI flags and
# as a spec's decoder object
INAPPLICABLE = [
    (["--schedule", "4,8", "--preset", "rpa"],
     {"schedule": [4, 8], "preset": "rpa"}),
    (["--schedule", "4,8", "--gamma", "1/2"],
     {"schedule": [4, 8], "gamma": "1/2"}),
    (["--schedule", "4,8", "--q", "1/2"], {"schedule": [4, 8], "q": "1/2"}),
    (["--preset", "rpa", "--gamma", "1/2"], {"preset": "rpa", "gamma": "1/2"}),
    (["--preset", "srpa", "--q", "1/2", "--ditr", "1/2"],
     {"preset": "srpa", "q": "1/2", "delta_itr": "1/2"}),
    (["--preset", "rpa_sch", "--d", "2", "--drec", "1/2"],
     {"preset": "rpa_sch", "d": 2, "delta_rec": "1/2"}),
    (["--preset", "rpa", "--q", "1/2"], {"preset": "rpa", "q": "1/2"}),
    (["--q", "1/2"], {"q": "1/2"}),
    (["--preset", "rpa", "--d", "3"], {"preset": "rpa", "d": 3}),
    (["--gamma", "1", "--ditr", "1", "--drec", "1", "--d", "3"],
     {"gamma": "1", "delta_itr": "1", "delta_rec": "1", "d": 3}),
]


@pytest.mark.parametrize("flags,decoder", INAPPLICABLE)
def test_inapplicable_decoder_keys_exit_2(tmp_path, capsys, flags, decoder):
    code, out, err = run_cli(capsys, "fods", "--m", "6", "--r", "3", *flags)
    assert (code, out) == (2, "")
    assert "error" in err
    spec = make_spec(tmp_path, code={"m": 6, "r": 3}, decoder=decoder)
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert "error" in err


def test_simulate_unknown_decoder_key_exits_2(tmp_path, capsys):
    spec = make_spec(tmp_path, decoder={"preset": "rpa", "gama": "2/3"})
    code, _, err = run_cli(capsys, "simulate", "--spec", spec)
    assert code == 2
    assert "gama" in err


@pytest.mark.parametrize("decoder,n_max", [
    ({"schedule": [4, 8], "n_max": 2}, 2), ({"schedule": [4, 8]}, 1),
    ({"preset": "rpa"}, 3), ({}, 3)])
def test_spec_n_max_and_its_default(decoder, n_max):
    spec = {"schema_version": 1, "code": {"m": 6, "r": 3},
            "decoder": decoder, "ebno_db": [3.0]}
    cfg, _ = load_experiment_spec(spec)
    assert cfg.decoder.n_max == n_max


def test_fods_bad_fraction_exits_2(capsys):
    code, _, err = run_cli(capsys, "fods", "--m", "7", "--r", "2",
                           "--gamma", "2/0", "--ditr", "1", "--drec", "1")
    assert code == 2


def test_table1_default(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    lines = {tuple(line.split("\t")[:3]) for line in out.strip().split("\n")}
    assert ("RPA", "RM(7,2)", "381") in lines
    assert ("RPA", "RM(8,3)", "291465") in lines
    assert ("MFP(2/3,1/4,1/2)", "RM(7,2)", "113") in lines
    assert ("MFP(3/4,1/3,3/4)", "RM(8,3)", "22544") in lines
    # external cells present as references
    assert any(row[0] == "rpa_sch" and row[2] == "221" for row in lines)
    assert any(row[0] == "2-srpa" and row[2] == "36433" for row in lines)


def test_table1_rpa_sch_ceiling_note(capsys):
    code, out, err = run_cli(capsys, "table1", "--preset", "rpa_sch",
                             "--d", "2", "--m", "7", "--r", "2")
    assert code == 0
    assert out.strip() == "223"
    assert "221" in err


def make_spec(tmp_path, **overrides):
    spec = {
        "schema_version": 1,
        "code": {"m": 4, "r": 2},
        "decoder": {"preset": "rpa"},
        "ebno_db": [3.0],
        "min_frame_errors": 5,
        "max_frames": 2000,
        "seed": 3,
        "message_mode": "random",
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_simulate_writes_csv(tmp_path, capsys):
    spec = make_spec(tmp_path, ebno_db=[2.0, 3.0, 4.0, 5.0, 6.0])
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", "--spec", spec,
                             "--output", str(out_path))
    assert code == 0
    assert out == ""  # results go to the file, progress to stderr
    assert err != ""
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("ebno_db,")


def test_simulate_json_output(tmp_path, capsys):
    spec = make_spec(tmp_path)
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec,
                         "--output", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["schema_version"] == 1
    assert len(obj["points"]) == 1


def test_simulate_deterministic(tmp_path, capsys):
    spec = make_spec(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "simulate", "--spec", spec,
                             "--output", str(path), "--no-timing")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_invalid_spec_exits_2(tmp_path, capsys):
    spec = make_spec(tmp_path, max_frames=0)
    code, _, err = run_cli(capsys, "simulate", "--spec", spec)
    assert code == 2
    assert err != ""


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    spec = make_spec(tmp_path, gamma_typo="2/3")
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec)
    assert code == 2


def test_simulate_unwritable_output_exits_3(tmp_path, capsys):
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind for root")
    spec = make_spec(tmp_path)
    ro_dir = tmp_path / "ro"
    ro_dir.mkdir()
    ro_dir.chmod(stat.S_IRUSR | stat.S_IXUSR)
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec,
                         "--output", str(ro_dir / "out.csv"))
    assert code == 3


def test_simulate_unwritable_directory_path_exits_3(tmp_path, capsys):
    spec = make_spec(tmp_path)
    # a directory is never writable as a file, root or not
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec,
                         "--output", str(tmp_path))
    assert code == 3
