import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rmpa import (CodeParams, FodCounter, PruningConfig, analytic_fod_count,
                  build_coset_map, build_generator, check_convergence, decode,
                  decode_batch, decode_plan, delta, encode,
                  explicit_schedule_config, fht_decode, is_codeword,
                  ml_decode_oracle, num_projections, preset,
                  select_projection_indices)
from rmpa.channel import ChannelConfig, llr_from_channel, transmit
from rmpa.geometry import aggregate, clamp_llr, project_llr

MFP_72 = preset("mfp", gamma=F(2, 3), delta_itr=F(1, 4), delta_rec=F(1, 2))
MFP_83 = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))


def literal_formula_fod_count(params: CodeParams, cfg: PruningConfig) -> int:
    """The closed-form count as a single sum-of-products over levels.

    Documented for reference only: it applies the iteration decay twice
    (once in the decayed starting factor and once in the pruning function)
    and does not nest the per-level iteration loops, so it disagrees with
    the decoder's actual count; analytic_fod_count is authoritative.
    """
    n = params.n
    total = 0
    for j in range(1, cfg.n_max + 1):
        prod = 1
        for l in range(2, params.r + 1):
            g = cfg.gamma * cfg.delta_itr ** (j - 1)
            factor = g * cfg.delta_itr ** (j - 1) * cfg.delta_rec ** (l - 2)
            prod *= math.ceil(factor * (n // (1 << (params.r - l)) - 1))
        total += prod
    return total


def test_delta_examples():
    assert delta(1, 2, preset("rpa")) == 1
    assert delta(1, 2, MFP_72) == F(2, 3)
    assert delta(2, 3, MFP_83) == F(3, 16)


def test_num_projections_mfp72_split():
    n = 128
    counts = [num_projections(n, j, 2, MFP_72) for j in (1, 2, 3)]
    assert counts == [85, 22, 6]
    assert sum(counts) == 113


def test_num_projections_unpruned_keeps_all():
    for j in (1, 2, 3):
        assert num_projections(128, j, 2, preset("rpa")) == 127


def test_num_projections_mfp83_top_level():
    assert num_projections(256, 1, 3, MFP_83) == 144


def test_num_projections_explicit_schedule():
    cfg = explicit_schedule_config([4, 8], 3)
    assert num_projections(64, 1, 3, cfg) == 4
    assert num_projections(32, 1, 2, cfg) == 8
    assert cfg.n_max == 1


def test_num_projections_monotone_in_iteration_and_level():
    cfg = MFP_83
    for l in (2, 3):
        nps = [num_projections(256, j, l, cfg) for j in (1, 2, 3)]
        assert nps == sorted(nps, reverse=True)
    for j in (1, 2, 3):
        assert (num_projections(256, j, 3, cfg)
                <= num_projections(256, j, 2, cfg))


def test_select_indices_examples():
    assert select_projection_indices(128, 127) == list(range(1, 128))
    assert select_projection_indices(128, 3) == [1, 43, 85]
    assert select_projection_indices(8, 7) == list(range(1, 8))


def test_select_indices_distinct_in_range():
    for n in (16, 64, 256):
        for np_ in (1, 3, n // 2, n - 1):
            idx = select_projection_indices(n, np_)
            assert len(set(idx)) == np_
            assert all(1 <= i <= n - 1 for i in idx)


def test_select_indices_out_of_range():
    with pytest.raises(ValueError):
        select_projection_indices(16, 0)
    with pytest.raises(ValueError):
        select_projection_indices(16, 16)


def test_select_indices_seeded_random_mode():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    a = select_projection_indices(64, 5, rng=rng1)
    b = select_projection_indices(64, 5, rng=rng2)
    assert a == b
    assert len(set(a)) == 5 and all(1 <= i <= 63 for i in a)


def test_presets():
    cfg = preset("rpa")
    assert (cfg.gamma, cfg.delta_itr, cfg.delta_rec) == (1, 1, 1)
    cfg = preset("srpa", q=F(1, 8))
    assert (cfg.gamma, cfg.delta_itr, cfg.delta_rec) == (F(1, 8), 1, 1)
    cfg = preset("rpa_sch", d=2)
    assert (cfg.gamma, cfg.delta_itr, cfg.delta_rec) == (1, F(1, 2), 1)
    with pytest.raises(ValueError):
        preset("srpa", q=0)
    with pytest.raises(ValueError):
        preset("rpa_sch", d=0.5)
    with pytest.raises(ValueError):
        preset("no_such_decoder")


@pytest.mark.parametrize("name,kwargs,unused", [
    ("rpa", {"gamma": F(1, 2)}, "gamma"),
    ("srpa", {"q": F(1, 2), "d": 4}, "d"),
    ("rpa_sch", {"d": 2, "q": F(1, 2), "delta_rec": F(1, 2)}, "delta_rec"),
    ("mfp", {"gamma": F(1, 2), "delta_itr": 1, "delta_rec": 1,
             "schedule": (4, 8)}, "schedule"),
    ("rpa", {"gama": F(1, 2)}, "gama")])
def test_preset_rejects_keys_it_would_not_use(name, kwargs, unused):
    with pytest.raises(ValueError, match=unused):
        preset(name, **kwargs)


@pytest.mark.parametrize("name,kwargs", [
    ("srpa", {}), ("rpa_sch", {"d": 0}), ("rpa_sch", {"d": float("inf")}),
    ("mfp", {"gamma": F(1, 2)})])
def test_preset_missing_or_bad_parameter_is_a_value_error(name, kwargs):
    with pytest.raises(ValueError):
        preset(name, **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        PruningConfig(gamma=0)
    with pytest.raises(ValueError):
        PruningConfig(delta_itr=1.5)
    with pytest.raises(ValueError):
        PruningConfig(n_max=0)
    with pytest.raises(ValueError):
        explicit_schedule_config([4], 3)


@pytest.mark.parametrize("factor", ["gamma", "delta_itr", "delta_rec"])
def test_factors_other_than_1_beside_a_schedule_are_rejected(factor):
    with pytest.raises(ValueError, match=factor):
        PruningConfig(explicit_schedule=(4, 8), **{factor: F(1, 2)})
    assert PruningConfig(explicit_schedule=(4, 8), **{factor: 1}).n_max == 1


def test_analytic_counts_match_published_table():
    assert analytic_fod_count(CodeParams(7, 2), preset("rpa")) == 381
    assert analytic_fod_count(CodeParams(8, 3), preset("rpa")) == 291465
    assert analytic_fod_count(CodeParams(7, 2), MFP_72) == 113
    assert analytic_fod_count(CodeParams(8, 3), MFP_83) == 22544


def test_analytic_count_iteration_decay_ceiling():
    # ceil(127) + ceil(63.5) + ceil(31.75); the published table says 221,
    # which implies a floor -- we follow the algorithm's ceiling
    assert analytic_fod_count(CodeParams(7, 2), preset("rpa_sch", d=2)) == 223


def test_analytic_count_explicit_schedule():
    cfg = explicit_schedule_config([4, 8], 3)
    assert analytic_fod_count(CodeParams(6, 3), cfg) == 32
    # the library and the CLI share the n_max default: 1 with a schedule
    cfg = PruningConfig(explicit_schedule=(4, 8))
    assert cfg.n_max == 1
    assert analytic_fod_count(CodeParams(6, 3), cfg) == 32
    assert PruningConfig().n_max == 3


def test_schedule_with_n_max_repeats_every_level():
    # the inner level runs n_max iterations too: 2 * 4 * (2 * 8)
    p = CodeParams(6, 3)
    cfg = PruningConfig(explicit_schedule=(4, 8), n_max=2)
    counter = FodCounter()
    decode(np.random.default_rng(0).normal(size=p.n), p, cfg, counter)
    assert analytic_fod_count(p, cfg) == counter.total == 128
    assert explicit_schedule_config([4, 8], 3, n_max=2).n_max == 2


@pytest.mark.parametrize("schedule", [(0,), (4, 0), (8, -1), {3: 4, 2: 8}])
def test_schedule_needs_levels_2_to_l_and_positive_counts(schedule):
    with pytest.raises(ValueError):
        PruningConfig(explicit_schedule=schedule)


@pytest.mark.parametrize("entry", [
    lambda p, cfg: decode(np.zeros(p.n), p, cfg),
    lambda p, cfg: decode_batch(np.zeros((2, p.n)), p, cfg),
    analytic_fod_count])
def test_partial_schedule_names_the_missing_level(entry, monkeypatch):
    # a projection would raise TypeError, so the error must come first
    monkeypatch.setattr("rmpa.decoder.project_llr", None)
    with pytest.raises(ValueError, match=r"needs 2 schedule counts \(levels "
                       r"3 down to 2\), got 1"):
        entry(CodeParams(6, 3), PruningConfig(explicit_schedule=(8,)))


def test_schedule_deeper_than_the_code_is_rejected():
    with pytest.raises(ValueError, match="needs 1 schedule counts .*got 2"):
        analytic_fod_count(CodeParams(6, 2),
                           PruningConfig(explicit_schedule=(4, 8)))


def test_plan_is_compiled_once_per_config():
    p = CodeParams(5, 2)
    plan = decode_plan(p, MFP_72)
    assert decode_plan(p, MFP_72) is plan
    assert plan.fods == sum(len(idx) * inner.fods for idx, inner in plan.steps)


FACTORS = st.sampled_from([F(1), F(3, 4), F(2, 3), F(1, 2), F(1, 3),
                           F(1, 4), F(1, 8)])


@st.composite
def code_and_config(draw):
    m = draw(st.integers(2, 6))
    r = draw(st.integers(1, min(m, 4)))
    kwargs = {"n_max": draw(st.sampled_from([1, 2, 3])),
              "min_sum": draw(st.booleans()),
              "random_projection_seed": draw(st.none() | st.integers(0, 99))}
    if draw(st.booleans()):
        # level l decodes a code of length 2^(m - r + l)
        kwargs["explicit_schedule"] = tuple(
            draw(st.integers(1, min(8, (1 << (m - r + l)) - 1)))
            for l in range(r, 1, -1))
    else:
        kwargs.update(gamma=draw(FACTORS), delta_itr=draw(FACTORS),
                      delta_rec=draw(FACTORS))
    return CodeParams(m, r), PruningConfig(**kwargs)


@settings(deadline=None, max_examples=40)
@given(code_and_config(), st.integers(0, 2 ** 32 - 1))
def test_analytic_count_and_batch_match_the_decoder(case, seed):
    p, cfg = case
    expected = analytic_fod_count(p, cfg)
    assume(expected <= 4000)
    llrs = np.random.default_rng(seed).normal(size=(2, p.n)) * 2
    batch_counter = FodCounter()
    bits = decode_batch(llrs, p, cfg, batch_counter)
    assert batch_counter.total == 2 * expected
    for llr, row in zip(llrs, bits):
        counter = FodCounter()
        assert np.array_equal(decode(llr, p, cfg, counter).codeword, row)
        assert counter.total == expected


def test_literal_closed_form_disagrees_as_documented():
    # the single-sum closed form double-counts the iteration decay; kept
    # only as documentation of that inconsistency
    assert literal_formula_fod_count(CodeParams(8, 3), MFP_83) == 14004
    assert literal_formula_fod_count(CodeParams(8, 3), MFP_83) != \
        analytic_fod_count(CodeParams(8, 3), MFP_83)


GRID_CONFIGS = [preset("rpa"), preset("srpa", q=F(1, 2)),
                preset("rpa_sch", d=2), MFP_83]


@pytest.mark.parametrize("m", [4, 5, 6, 7])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("cfg", GRID_CONFIGS)
def test_instrumented_count_equals_analytic(m, r, cfg):
    p = CodeParams(m, r)
    llr = np.random.default_rng(m * 10 + r).normal(size=p.n)
    counter = FodCounter()
    decode(llr, p, cfg, counter)
    assert counter.total == analytic_fod_count(p, cfg)


def test_instrumented_count_rm83_mfp():
    p = CodeParams(8, 3)
    counter = FodCounter()
    decode(np.random.default_rng(0).normal(size=p.n), p, MFP_83, counter)
    assert counter.total == 22544


def test_decode_noiseless_converges_first_iteration():
    p = CodeParams(4, 2)
    gen = build_generator(p)
    cfg = PruningConfig(early_stop_theta=0.05)
    rng = np.random.default_rng(6)
    for _ in range(10):
        c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
        res = decode(20.0 * (1.0 - 2.0 * c), p, cfg)
        assert np.array_equal(res.codeword, c)
        assert res.converged_early
        assert res.iterations_run == 1


def test_decode_first_order_is_fht():
    p = CodeParams(4, 1)
    llr = np.random.default_rng(1).normal(size=16)
    res = decode(llr, p, preset("rpa"))
    assert np.array_equal(res.codeword, fht_decode(llr))
    assert res.fods.total == 1
    assert is_codeword(res.codeword, p)


def test_decode_matches_ml_oracle_at_high_snr():
    p = CodeParams(4, 2)
    gen = build_generator(p)
    cfg = PruningConfig(n_max=1)
    ch = ChannelConfig(ebno_db=6.0, rate=p.rate)
    rng = np.random.default_rng(12)
    agree = 0
    frames = 500
    for _ in range(frames):
        c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
        llr = llr_from_channel(transmit(c, ch, rng), ch)
        got = decode(llr, p, cfg).codeword
        if np.array_equal(got, ml_decode_oracle(llr, p)):
            agree += 1
    assert agree >= 0.99 * frames


def test_check_convergence_examples():
    l = np.array([1.0, -2.0, 3.0])
    assert check_convergence(l, l, 0.05)
    assert not check_convergence(np.array([0.0, 1.0]), np.array([0.1, 1.0]), 0.05)
    assert not check_convergence(np.array([10.0, -10.0]),
                                 np.array([10.4, -10.6]), 0.05)
    assert check_convergence(np.array([10.0, -10.0]),
                             np.array([10.4, -10.4]), 0.05)


def test_decode_deterministic():
    p = CodeParams(5, 2)
    llr = np.random.default_rng(3).normal(size=32)
    a = decode(llr, p, MFP_72)
    b = decode(llr, p, MFP_72)
    assert np.array_equal(a.codeword, b.codeword)
    assert a.fods.total == b.fods.total


def test_decode_batch_matches_per_frame():
    p = CodeParams(5, 2)
    batch = np.random.default_rng(4).normal(size=(16, 32))
    got = decode_batch(batch, p, preset("rpa"))
    for row_in, row_out in zip(batch, got):
        assert np.array_equal(decode(row_in, p, preset("rpa")).codeword,
                              row_out)


def test_decode_batch_rejects_early_stop():
    p = CodeParams(4, 2)
    cfg = PruningConfig(early_stop_theta=0.05)
    with pytest.raises(ValueError):
        decode_batch(np.zeros((2, 16)), p, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decoders_reject_non_finite_llrs(bad, monkeypatch):
    monkeypatch.setattr("rmpa.decoder.project_llr", None)
    p = CodeParams(4, 2)
    llr = np.ones(p.n)
    llr[3] = bad
    with pytest.raises(ValueError, match="finite"):
        decode(llr, p, preset("rpa"))
    with pytest.raises(ValueError, match="finite"):
        decode_batch(np.stack([np.ones(p.n), llr]), p, preset("rpa"))


def textbook_rpa_order2(llr, m, n_max):
    """Unpruned projection-aggregation loop for RM(m, 2), written straight
    from the three-step description: all n-1 projections, first-order
    decoding, average with denominator n-1."""
    n = 1 << m
    level = clamp_llr(np.asarray(llr, dtype=np.float64))
    for _ in range(n_max):
        decoded = []
        for i in range(1, n):
            cm = build_coset_map(m, i)
            decoded.append((i, fht_decode(project_llr(level, cm))))
        level = clamp_llr(aggregate(level, decoded))
    return (level < 0).astype(np.uint8)


@pytest.mark.parametrize("m", [4, 5])
def test_unpruned_preset_equals_textbook_loop(m):
    p = CodeParams(m, 2)
    rng = np.random.default_rng(20 + m)
    for _ in range(10):
        llr = rng.normal(size=p.n) * 3
        res = decode(llr, p, preset("rpa"))
        assert np.array_equal(res.codeword, textbook_rpa_order2(llr, m, 3))
