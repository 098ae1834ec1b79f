import json
import os
import stat
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rmpa.channel import MAX_WORKERS
from rmpa.cli import MAX_M, load_experiment_spec, main


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


def test_encode_hex_message_too_wide_exits_2(capsys):
    # k = 3, so 0x7 is the largest message
    code, out, err = run_cli(capsys, "encode", "--m", "2", "--r", "1",
                             "--msg", "0xff")
    assert (code, out) == (2, "")
    assert "0xff" in err
    code, out, _ = run_cli(capsys, "encode", "--m", "2", "--r", "1",
                           "--msg", "0x7")
    assert (code, out.strip()) == (0, "1001")


@pytest.mark.parametrize("llr", ["--llr=nan,1,1,1", "--llr=inf,-inf,1,1"])
def test_decode_non_finite_llr_exits_2(capsys, llr):
    code, out, err = run_cli(capsys, "decode", "--m", "2", "--r", "1", llr)
    assert (code, out) == (2, "")
    assert "finite" in err


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


def test_schedule_of_the_wrong_length_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fods", "--m", "6", "--r", "3",
                             "--schedule", "8")
    assert (code, out) == (2, "")
    assert "needs 2 schedule counts" in err
    # a spec fails when it loads, before any frame is simulated
    spec = {"schema_version": 1, "code": {"m": 6, "r": 3},
            "decoder": {"schedule": [8]}, "ebno_db": [3.0]}
    with pytest.raises(ValueError, match="needs 2 schedule counts"):
        load_experiment_spec(spec)


def test_rpa_sch_with_d_0_exits_2(capsys):
    code, out, err = run_cli(capsys, "fods", "--m", "7", "--r", "2",
                             "--preset", "rpa_sch", "--d", "0")
    assert (code, out) == (2, "")
    assert "error" in err


@pytest.mark.parametrize("d", ["0.5", "-3", "1e-320"])
def test_rpa_sch_with_d_below_1_names_d(capsys, d):
    # 1/d would be a delta_itr above 1; 1e-320 is a fraction hundreds of
    # digits long
    code, out, err = run_cli(capsys, "fods", "--m", "3", "--r", "2",
                             "--preset", "rpa_sch", "--d", d)
    assert (code, out) == (2, "")
    assert f"{{'d': {float(d)}}}: d must be at least 1" in err
    assert len(err) < 100


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


@pytest.mark.parametrize("overrides,bad", [
    ({"decoder": {"schedule": [4.7, 8]}}, "4.7"),
    ({"decoder": {"n_max": 2.5}}, "2.5"),
    ({"decoder": {"schedule": [True, 8]}}, "True"),
    ({"code": {"m": 6.9, "r": 3}}, "6.9"),
    ({"workers": True}, "True"),
    ({"seed": "seven"}, "'seven'"),
    ({"max_frames": float("inf")}, "inf")])
def test_spec_integers_are_read_strictly(tmp_path, capsys, overrides, bad):
    spec = make_spec(tmp_path, **{"code": {"m": 6, "r": 3},
                                  "decoder": {}, **overrides})
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert f"expected an integer, got {bad}" in err


def test_spec_integers_take_ints_integral_floats_and_decimal_text(
        monkeypatch):
    monkeypatch.setenv("RMPA_WORKERS", "2")
    spec = {"schema_version": 1, "code": {"m": 6.0, "r": "3"},
            "decoder": {"schedule": ["4", 8.0], "n_max": "2"},
            "ebno_db": [3.0], "max_frames": 1e7}
    cfg, _ = load_experiment_spec(spec)
    assert cfg.code.m == 6 and cfg.code.r == 3
    assert cfg.decoder.explicit_schedule == (4, 8)
    assert cfg.decoder.n_max == 2
    assert (cfg.workers, cfg.max_frames) == (2, 10 ** 7)
    assert type(cfg.max_frames) is int
    monkeypatch.setenv("RMPA_WORKERS", "2.5")
    with pytest.raises(ValueError, match="expected an integer, got '2.5'"):
        load_experiment_spec(spec)


def test_workers_above_the_limit_are_rejected(tmp_path, capsys,
                                              monkeypatch):
    # only parsed, never run: a sweep starts one thread per worker
    spec = {"schema_version": 1, "code": {"m": 4, "r": 2}, "decoder": {},
            "ebno_db": [3.0], "workers": MAX_WORKERS + 1}
    with pytest.raises(ValueError, match="workers must be in"):
        load_experiment_spec(spec)
    del spec["workers"]
    monkeypatch.setenv("RMPA_WORKERS", "100000")
    with pytest.raises(ValueError, match="workers must be in"):
        load_experiment_spec(spec)
    monkeypatch.setenv("RMPA_WORKERS", str(MAX_WORKERS))
    assert load_experiment_spec(spec)[0].workers == MAX_WORKERS
    # one frame: even without the limit at most one thread would start
    path = make_spec(tmp_path, min_frame_errors=1, max_frames=1)
    code, out, err = run_cli(capsys, "simulate", "--spec", path,
                             "--workers", "100000")
    assert (code, out) == (2, "")
    assert f"workers must be in [1, {MAX_WORKERS}], got 100000" in err


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_spec_schema_version_is_the_json_integer_1(tmp_path, capsys, version):
    spec = make_spec(tmp_path, schema_version=version)
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert f"spec schema_version must be 1, got {version!r}" in err


@pytest.mark.parametrize("overrides,bad", [
    ({"decoder": {"preset": "rpa_sch", "d": True}}, "True"),
    ({"decoder": {"preset": "rpa_sch", "d": "two"}}, "'two'"),
    ({"decoder": {"early_stop_theta": True}}, "True"),
    ({"decoder": {"early_stop_theta": "nan"}}, "'nan'"),
    ({"decoder": {"early_stop_theta": "inf"}}, "'inf'"),
    ({"ebno_db": [True]}, "True"),
    ({"ebno_db": ["inf"]}, "'inf'"),
    ({"ebno_db": [2.0, "nan"]}, "'nan'"),
    ({"ebno_db": [float("nan")]}, "nan")])
def test_spec_reals_are_read_strictly(tmp_path, capsys, overrides, bad):
    spec = make_spec(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert f"expected a finite number, got {bad}" in err


@pytest.mark.parametrize("flags", [["--theta", "nan", "--measure"],
                                   ["--theta", "inf"],
                                   ["--preset", "rpa_sch", "--d", "inf"]])
def test_real_flags_are_read_strictly(capsys, flags):
    code, out, err = run_cli(capsys, "fods", "--m", "5", "--r", "2", *flags)
    assert (code, out) == (2, "")
    assert "expected a finite number" in err


def test_spec_reals_take_numbers_and_decimal_text():
    spec = {"schema_version": 1, "code": {"m": 7, "r": 2},
            "decoder": {"preset": "rpa_sch", "d": "2",
                        "early_stop_theta": "0.05"},
            "ebno_db": [1, "2.5", 3.0]}
    cfg, _ = load_experiment_spec(spec)
    assert cfg.decoder.delta_itr == F(1, 2)
    assert cfg.decoder.early_stop_theta == 0.05
    assert cfg.ebno_points == (1.0, 2.5, 3.0)


@pytest.mark.parametrize("overrides,message", [
    ({"output": 5}, "output must be a path"),
    ({"code": {"m": 5, "r": 2, "k": 99}}, "unknown code keys ['k']"),
    ({"code": [5, 2]}, "code must be an object"),
    ({"decoder": ["rpa"]}, "decoder must be an object"),
    ({"ebno_db": []}, "ebno_db must be a non-empty list"),
    ({"ebno_db": "12"}, "ebno_db must be a non-empty list"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    # removed settings are errors, never ignored
    ({"chunk_frames": 64}, "unknown spec keys ['chunk_frames']"),
    ({"message_mode": "random"}, "unknown spec keys ['message_mode']")])
def test_spec_inputs_that_would_be_ignored_or_crash_exit_2(
        tmp_path, capsys, overrides, message):
    spec = make_spec(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert message in err


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


def test_table1_takes_no_options(capsys):
    # a decoder's count is fods' job
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--m", "6", "--r", "3", "--schedule", "4,8"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table1_rpa_sch_ceiling_note(capsys):
    # fods counts any decoder, and notes where Table 1 publishes another
    # count for it
    code, out, err = run_cli(capsys, "fods", "--preset", "rpa_sch",
                             "--d", "2", "--m", "7", "--r", "2")
    assert code == 0
    assert out.strip() == "223"
    assert "221" in err


@pytest.mark.parametrize("flags,count", [
    (["--d", "3"], "185"), (["--d", "2", "--nmax", "2"], "191")])
def test_fods_notes_only_the_decoder_the_published_cell_counts(
        capsys, flags, count):
    # the cell counts rpa_sch with d = 2 and three iterations a level
    code, out, err = run_cli(capsys, "fods", "--preset", "rpa_sch",
                             "--m", "7", "--r", "2", *flags)
    assert code == 0
    assert out.strip() == count
    assert err == ""


def test_fods_of_a_deep_many_iteration_plan_is_quick(capsys):
    # equal inner configs share one node: this took 12.7 s and 245 MB when
    # every iteration compiled its own inner tree
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, _ = run_cli(capsys, "fods", "--m", "7", "--r", "5",
                               "--nmax", "28")
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.strip() == str(28 ** 4 * 127 * 63 * 31 * 15)
    assert seconds < 2.0
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["encode", "--m", str(MAX_M + 1), "--r", "1", "--msg", "0x0"],
    ["decode", "--m", str(MAX_M + 1), "--r", "1", "--llr=1,1"],
    ["fods", "--m", "30", "--r", "2"]])
def test_codes_above_max_m_exit_2(capsys, argv):
    # rejected before any code is built: these would allocate tens of GB
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: {argv[2]}" in capsys.readouterr().err


def test_spec_code_above_max_m_exits_2(tmp_path, capsys):
    spec = make_spec(tmp_path, code={"m": MAX_M + 1, "r": 1})
    code, out, err = run_cli(capsys, "simulate", "--spec", spec)
    assert (code, out) == (2, "")
    assert f"code m must be at most {MAX_M}, got {MAX_M + 1}" in err
    spec = {"schema_version": 1, "code": {"m": MAX_M, "r": 1},
            "decoder": {}, "ebno_db": [3.0]}
    assert load_experiment_spec(spec)[0].code.m == MAX_M


def make_spec(tmp_path, **overrides):
    spec = {
        "schema_version": 1,
        "code": {"m": 4, "r": 2},
        "decoder": {"preset": "rpa"},
        "ebno_db": [3.0],
        "min_frame_errors": 5,
        "max_frames": 2000,
        "seed": 3,
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


# the keys each decoder takes, besides n_max and early_stop_theta
TAKES = {"rpa": set(), "srpa": {"q"}, "rpa_sch": {"d"},
         "mfp": {"gamma", "delta_itr", "delta_rec"}, "schedule": {"schedule"}}
SPEC_FACTORS = st.sampled_from(["1", "3/4", "2/3", "1/2", "1/3", "1/8"])


@st.composite
def decoder_dicts(draw):
    r = draw(st.integers(2, 3))
    values = {"preset": st.sampled_from(["rpa", "srpa", "rpa_sch", "mfp"]),
              "q": SPEC_FACTORS, "d": st.integers(1, 4),
              "gamma": SPEC_FACTORS, "delta_itr": SPEC_FACTORS,
              "delta_rec": SPEC_FACTORS,
              "schedule": st.lists(st.integers(1, 15), min_size=r - 1,
                                   max_size=r - 1),
              "n_max": st.integers(1, 3),
              "early_stop_theta": st.sampled_from([0.01, 0.05, 0.5])}
    # a decoder with its keys, or with one key too many or too few
    name = draw(st.sampled_from(sorted(TAKES)))
    keys = TAKES[name] | set(draw(st.lists(
        st.sampled_from(["n_max", "early_stop_theta"]), unique=True)))
    decoder = {key: draw(values[key]) for key in sorted(keys)}
    if name in ("srpa", "rpa_sch") or (name in ("rpa", "mfp")
                                       and draw(st.booleans())):
        decoder["preset"] = name
    flip = draw(st.none() | st.sampled_from(sorted(values)))
    if flip in decoder:
        del decoder[flip]
    elif flip is not None:
        decoder[flip] = draw(values[flip])
    return r, decoder


@settings(deadline=None, max_examples=200)
@given(decoder_dicts())
def test_spec_decoder_round_trip(case):
    r, decoder = case
    name = decoder.get("preset") or (
        "schedule" if "schedule" in decoder else
        "mfp" if decoder.keys() & TAKES["mfp"] else "rpa")
    applies = (set(decoder) - {"preset", "n_max", "early_stop_theta"}
               == TAKES[name])
    spec = {"schema_version": 1, "code": {"m": 6, "r": r},
            "decoder": decoder, "ebno_db": [3.0]}
    if not applies:
        with pytest.raises(ValueError):
            load_experiment_spec(spec)
        return
    cfg = load_experiment_spec(spec)[0].decoder
    one = F(1)
    factors = {"rpa": (one, one, one), "schedule": (one, one, one),
               "srpa": (F(decoder.get("q", 1)), one, one),
               "rpa_sch": (one, one / decoder.get("d", 1), one),
               "mfp": tuple(F(decoder.get(k, 1)) for k in
                            ("gamma", "delta_itr", "delta_rec"))}[name]
    assert (cfg.gamma, cfg.delta_itr, cfg.delta_rec) == factors
    assert cfg.explicit_schedule == (tuple(decoder["schedule"])
                                     if name == "schedule" else None)
    assert cfg.n_max == decoder.get("n_max", 1 if name == "schedule" else 3)
    assert cfg.early_stop_theta == decoder.get("early_stop_theta")
