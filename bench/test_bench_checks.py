"""Fast tests of the benchmark's own checks: each must accept a right
result and reject a corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def fer_false_reject_probability(fer: float, trials: int, paper_fer: float,
                                 tolerance: float) -> float:
    """Exact chance that `checks.fer_consistent` rejects a decoder whose
    true FER is `fer`, summed over the binomial distribution of the error
    count."""
    total = 0.0
    for k in range(trials + 1):
        if not checks.fer_consistent(k, trials, paper_fer, tolerance):
            log_p = (math.lgamma(trials + 1) - math.lgamma(k + 1)
                     - math.lgamma(trials - k + 1))
            if fer > 0:
                log_p += k * math.log(fer)
            elif k:
                continue
            if fer < 1:
                log_p += (trials - k) * math.log1p(-fer)
            elif k < trials:
                continue
            total += math.exp(log_p)
    return total


@pytest.mark.parametrize("m,r", [(6, 3), (7, 2), (8, 3)])
def test_parity_check_accepts_codewords_and_rejects_a_flipped_bit(m, r):
    words, _ = checks.codeword_sign_llrs(m, r, 8, np.random.default_rng(0))
    assert len(checks.parity_failures(words, m, r)) == 0
    words[3, 17] ^= 1
    assert checks.parity_failures(words, m, r).tolist() == [3]


def test_monomial_code_has_the_rm_dimension_and_is_self_dual_at_m_2r_1():
    assert checks.monomial_matrix(6, 3).shape == (42, 64)
    assert checks.monomial_matrix(8, 3).shape == (93, 256)
    gen = checks.monomial_matrix(7, 3).astype(np.int64)
    assert not ((gen @ gen.T) % 2).any()


def test_monomial_code_spans_the_program_code():
    codes = pytest.importorskip("rmpa.codes")
    for m, r in [(6, 3), (7, 2), (8, 3)]:
        gen = codes.build_generator(codes.CodeParams(m, r))
        assert len(checks.parity_failures(gen, m, r)) == 0


def test_recount_errors():
    sent = np.zeros((3, 8), dtype=np.uint8)
    decoded = sent.copy()
    decoded[1, [2, 5]] = 1
    assert checks.recount_errors(sent, decoded) == (1, 2)


def test_fod_check_exact_count():
    assert checks.fod_problems(32 * 64, 64, exact=32) == []
    assert checks.fod_problems(22544 * 2, 2, exact=22544) == []
    assert checks.fod_problems(33 * 64, 64, exact=32)
    assert checks.fod_problems(22543 * 2, 2, exact=22544)


def test_fod_check_early_stopping_steps():
    step = (127, 127, 381)
    assert checks.fod_problems(127 + 381, 2, step=step,
                               per_frame=[127, 381]) == []
    assert checks.fod_problems(128 + 381, 2, step=step)
    assert checks.fod_problems(508, 1, step=step)
    assert checks.fod_problems(254, 2, step=step, per_frame=[0, 254])
    assert checks.fod_problems(254, 2, step=step, per_frame=[127, 381])


def test_fer_check_rejects_a_far_fer():
    w = WORKLOADS["sweep-rm63-sched"]
    assert checks.fer_consistent(315, 2048, w.paper_fer, w.fer_tolerance)
    assert not checks.fer_consistent(40, 2048, w.paper_fer, w.fer_tolerance)
    assert not checks.fer_consistent(2048, 2048, w.paper_fer, w.fer_tolerance)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fer_check_rarely_rejects_a_right_decoder(name):
    w = WORKLOADS[name]
    for fer in (w.paper_fer / (1 + w.fer_tolerance), w.paper_fer,
                w.paper_fer * (1 + w.fer_tolerance)):
        assert fer_false_reject_probability(
            fer, w.frames, w.paper_fer, w.fer_tolerance) < 1e-3
    # hard decisions without decoding fail nearly every frame
    assert not checks.fer_consistent(w.frames, w.frames, w.paper_fer,
                                     w.fer_tolerance)


def test_codeword_sign_frames_decode_to_their_codeword():
    decoder = pytest.importorskip("rmpa.decoder")
    codes = pytest.importorskip("rmpa.codes")
    words, llrs = checks.codeword_sign_llrs(6, 3, 2, np.random.default_rng(1))
    assert (np.sign(llrs) == 1 - 2.0 * words).all()
    cfg = decoder.explicit_schedule_config([4, 8], 3)
    for word, llr in zip(words, llrs):
        got = decoder.decode(llr, codes.CodeParams(6, 3), cfg).codeword
        assert np.array_equal(got, word)
        got[0] ^= 1
        assert not np.array_equal(got, word)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, r: (r, 0))
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    s = tracer.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert s["inner"]["count"] == 2 + 3
    assert s["outer"]["child_ns"]["inner"] == s["inner"]["busy_ns"]
    assert (s["outer"]["self_ns"]
            == s["outer"]["busy_ns"] - s["inner"]["busy_ns"])


def test_benchmark_json_names_the_metrics_the_run_prints():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_speed_probe_slowdown_uses_samples_inside_or_nearest():
    from speed import PARTS, REFERENCE_S, SpeedProbe
    probe = SpeedProbe()
    for when, slow in [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (10.0, 4.0)]:
        probe.when.append(when)
        probe.parts.extend(slow * REFERENCE_S[p] for p in PARTS)
    assert probe.slowdown(0.5, 3.5) == pytest.approx(2.0)
    assert probe.slowdown(2.9, 3.1) == pytest.approx(2.5)
    assert probe.slowdown(5.0, 6.0) == pytest.approx(3.0)
    assert probe.slowdown(9.5, 9.6, PARTS[:1]) == pytest.approx(4.0)
    probe.parts[0] *= 16
    assert probe.slowdown(0.0, 0.5, PARTS) == pytest.approx(2.0)
    assert probe.slowdown(0.0, 0.5, PARTS[1:]) == pytest.approx(1.0)
    probe.sample()
    assert probe.spent > 0 and len(probe.parts) == 5 * len(PARTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_yardstick_names_probe_parts(name):
    from speed import PARTS
    assert set(WORKLOADS[name].yardstick) <= set(PARTS)
