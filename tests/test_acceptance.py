"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 (large-code FER spot check) takes hours and only runs when
RMPA_RUN_EXTENDED=1.
"""

import os
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (build_coset_map, enumerate_codewords, in_row_space_batch,
                     project_hard, two_proportion_pvalue)
from rmpa import (CodeParams, FodCounter, SimConfig, analytic_fod_count,
                  binomial_ci, build_generator, csv_string, decode,
                  explicit_schedule_config, fht_decode, form_bits, preset,
                  run_sweep)

MFP_72 = preset("mfp", gamma=F(2, 3), delta_itr=F(1, 4), delta_rec=F(1, 2))
MFP_83 = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))

extended = pytest.mark.skipif(os.environ.get("RMPA_RUN_EXTENDED") != "1",
                              reason="extended tier (RMPA_RUN_EXTENDED=1)")


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table_counts_exact():
    cases = [(CodeParams(7, 2), preset("rpa"), 381),
             (CodeParams(8, 3), preset("rpa"), 291465),
             (CodeParams(7, 2), MFP_72, 113),
             (CodeParams(8, 3), MFP_83, 22544)]
    results = []
    for params, cfg, expected in cases:
        analytic = analytic_fod_count(params, cfg)
        counter = FodCounter()
        decode(np.random.default_rng(1).normal(size=params.n), params, cfg,
               counter)
        results.append((params.m, params.r, expected, analytic, counter.total))
    ok = all(e == a == t for _, _, e, a, t in results)
    report(1, ok, "; ".join(
        f"RM({m},{r}) expected {e} analytic {a} measured {t}"
        for m, r, e, a, t in results))


def test_criterion_2_complexity_reduction_ratios():
    r72 = 1 - F(113, 381)
    r83 = 1 - F(22544, 291465)
    ok = round(float(r72) * 100) == 70 and round(float(r83) * 100) == 92
    report(2, ok, f"RM(7,2) saves {float(r72):.4f}, RM(8,3) saves {float(r83):.4f}")


def _fer_points(code, cfg, ebnos, seed, min_errors=100, max_frames=10 ** 7):
    sim = SimConfig(code=code, decoder=cfg, ebno_points=tuple(ebnos),
                    min_frame_errors=min_errors, max_frames=max_frames,
                    seed=seed, record_timing=False)
    return run_sweep(sim)


def _check_against_plot(points, expected):
    lines = []
    ok = True
    for pt, target in zip(points, expected):
        lo, hi = binomial_ci(pt.frame_errors, pt.frames)
        hit = lo <= target <= hi
        ok = ok and hit
        lines.append(f"{pt.ebno_db}dB fer={pt.fer:.4g} "
                     f"CI=[{lo:.4g},{hi:.4g}] plot={target}"
                     + ("" if hit else " MISS"))
    return ok, "; ".join(lines)


def test_criterion_3_explicit_schedule_fer():
    code = CodeParams(6, 3)
    all_ok = True
    details = []
    for counts, expected in [([4, 8], [0.428, 0.154, 0.0241]),
                             ([8, 4], [0.439, 0.173, 0.0327])]:
        cfg = explicit_schedule_config(counts, 3)
        pts = _fer_points(code, cfg, [2.0, 3.0, 4.0], seed=300)
        ok, msg = _check_against_plot(pts, expected)
        all_ok = all_ok and ok
        details.append(f"(P1,P2)={tuple(counts)}: {msg}")
    report(3, all_ok, " | ".join(details))


def test_criterion_4_rm72_fer():
    code = CodeParams(7, 2)
    all_ok = True
    details = []
    for name, cfg, expected, seed in [
            ("rpa", preset("rpa"), [0.0266, 0.0089], 402),
            ("mfp", MFP_72, [0.0295, 0.0097], 1402)]:
        pts = _fer_points(code, cfg, [1.5, 2.0], seed=seed)
        ok, msg = _check_against_plot(pts, expected)
        all_ok = all_ok and ok
        details.append(f"{name}: {msg}")
    report(4, all_ok, " | ".join(details))


@extended
@pytest.mark.slow
def test_criterion_5_rm83_fer_spot_check():
    code = CodeParams(8, 3)
    all_ok = True
    details = []
    for name, cfg, expected, seed in [("rpa", preset("rpa"), [0.0767], 502),
                                      ("mfp", MFP_83, [0.0884], 501)]:
        pts = _fer_points(code, cfg, [1.0], seed=seed)
        ok, msg = _check_against_plot(pts, expected)
        all_ok = all_ok and ok
        details.append(f"{name}: {msg}")
    report(5, all_ok, " | ".join(details))


def test_criterion_6_first_order_decoder_is_ml():
    rng = np.random.default_rng(601)
    mismatches = 0
    trials = 0
    for m in (1, 2, 3, 4):
        p = CodeParams(m, 1)
        words = enumerate_codewords(p)
        signs = 1.0 - 2.0 * words
        llrs = rng.normal(size=(10 ** 4, p.n))
        got = form_bits(fht_decode(llrs), m)
        best = np.argmax(llrs @ signs.T, axis=1)
        mismatches += int(np.sum(np.any(got != words[best], axis=1)))
        trials += llrs.shape[0]
    report(6, mismatches == 0,
           f"{trials} random vectors across m=1..4, {mismatches} mismatches")


def test_criterion_7_projection_closure():
    rng = np.random.default_rng(701)
    checked = 0
    failures = 0
    for m in range(1, 6):
        for r in range(1, m + 1):
            p = CodeParams(m, r)
            gen = build_generator(p)
            msgs = rng.integers(0, 2, size=(1000, p.k), dtype=np.uint8)
            words = (msgs @ gen) % 2
            sub = CodeParams(m - 1, r - 1)
            for i in range(1, p.n):
                proj = project_hard(words, build_coset_map(m, i))
                bad = int(np.sum(~in_row_space_batch(proj, sub)))
                failures += bad
                checked += proj.shape[0]
    report(7, failures == 0,
           f"{checked} projections checked, {failures} outside the subcode")


def test_criterion_8_pruning_level_ordering():
    code = CodeParams(6, 3)
    frames = 30000
    errs = {}
    for counts in ([4, 8], [8, 4]):
        cfg = explicit_schedule_config(counts, 3)
        sim = SimConfig(code=code, decoder=cfg, ebno_points=(3.0,),
                        min_frame_errors=frames, max_frames=frames,
                        seed=801, record_timing=False)
        errs[tuple(counts)] = run_sweep(sim)[0].frame_errors
    p_value = two_proportion_pvalue(errs[(4, 8)], frames,
                                    errs[(8, 4)], frames)
    ok = errs[(4, 8)] < errs[(8, 4)] and p_value < 0.05
    report(8, ok, f"fer(4,8)={errs[(4, 8)] / frames:.4f} "
                  f"fer(8,4)={errs[(8, 4)] / frames:.4f} p={p_value:.2e}")


def test_criterion_9_sweep_determinism():
    outputs = []
    for workers in (1, 4):
        sim = SimConfig(code=CodeParams(5, 2), decoder=MFP_72,
                        ebno_points=(2.0, 3.0), min_frame_errors=50,
                        max_frames=20000, seed=901, workers=workers,
                        record_timing=False)
        outputs.append(csv_string(run_sweep(sim)).encode())
    ok = outputs[0] == outputs[1]
    report(9, ok, f"{len(outputs[0])}-byte CSV identical at 1 and 4 workers")
