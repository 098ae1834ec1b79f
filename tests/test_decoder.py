import math
import resource
import tracemalloc
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (build_coset_map, decode_per_path, fht, fod_bits,
                     is_codeword, ml_decode_oracle)
from rmpa import (CodeParams, FodCounter, PruningConfig, analytic_fod_count,
                  build_generator, check_convergence, decode, decode_batch,
                  decode_plan, encode, executed_fod_count,
                  explicit_schedule_config, fht_decode, preset,
                  select_projection_indices, stack_coset_maps)
from rmpa.channel import ChannelConfig, llr_from_channel, transmit
from rmpa.decoder import _keep_freed_memory, _stacked_maps
from rmpa.geometry import (CosetMap, _run_bits, clamp_llr, coset_table,
                           project_llr)

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


def step_lengths(plan) -> list:
    """Projections kept per iteration at a plan's top level."""
    return [len(indices) for indices, _ in plan.steps]


def test_delta_examples():
    # each count is ceil(delta(j, l) * (n-1)) for the pruning fraction
    # gamma * delta_itr^(j-1) * delta_rec^(l-2)
    assert step_lengths(decode_plan(CodeParams(7, 2), preset("rpa")))[0] == 127
    assert step_lengths(decode_plan(CodeParams(7, 2), MFP_72))[0] == (
        math.ceil(F(2, 3) * 127))
    assert step_lengths(decode_plan(CodeParams(8, 3), MFP_83))[1] == (
        math.ceil(F(3, 16) * 255))


def test_num_projections_mfp72_split():
    counts = step_lengths(decode_plan(CodeParams(7, 2), MFP_72))
    assert counts == [85, 22, 6]
    assert sum(counts) == 113


def test_num_projections_unpruned_keeps_all():
    plan = decode_plan(CodeParams(7, 2), preset("rpa"))
    assert step_lengths(plan) == [127, 127, 127]


def test_num_projections_mfp83_top_level():
    plan = decode_plan(CodeParams(8, 3), MFP_83)
    assert step_lengths(plan) == [144, 48, 16]
    # each iteration hands its decayed factor to the inner level
    assert [step_lengths(inner) for _, inner in plan.steps] == [
        [96, 32, 11], [32, 11, 4], [11, 4, 2]]


def test_num_projections_explicit_schedule():
    cfg = explicit_schedule_config([4, 8], 3)
    plan = decode_plan(CodeParams(6, 3), cfg)
    assert step_lengths(plan) == [4]
    assert step_lengths(plan.steps[0][1]) == [8]
    assert cfg.n_max == 1


def test_num_projections_monotone_in_iteration_and_level():
    plan = decode_plan(CodeParams(8, 3), MFP_83)
    top = step_lengths(plan)
    for counts in [top] + [step_lengths(inner) for _, inner in plan.steps]:
        assert counts == sorted(counts, reverse=True)
    # at iteration j, level 3 keeps no larger a share of its 255 subspaces
    # than level 2, started from the same factor, keeps of its 127
    for count, (_, inner) in zip(top, plan.steps):
        assert count / 255 <= step_lengths(inner)[0] / 127


def test_select_indices_examples():
    assert list(select_projection_indices(128, 127)) == list(range(1, 128))
    assert list(select_projection_indices(128, 3)) == [1, 43, 85]
    assert list(select_projection_indices(8, 7)) == list(range(1, 8))


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
    ("rpa", {"gama": F(1, 2)}, "gama"),
    ("rpa", {"min_sum": True}, "min_sum"),
    ("srpa", {"q": F(1, 2), "random_projection_seed": 7},
     "random_projection_seed")])
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


@pytest.mark.parametrize("kwargs", [
    {"explicit_schedule": (True, 8)}, {"explicit_schedule": (4.5, 8)},
    {"explicit_schedule": (4.0, 8)}, {"n_max": 2.5}, {"n_max": True},
    {"early_stop_theta": math.nan}, {"early_stop_theta": math.inf},
    {"early_stop_theta": -math.inf}])
def test_config_takes_only_integer_counts_and_a_finite_threshold(kwargs):
    with pytest.raises(ValueError):
        PruningConfig(**kwargs)


@pytest.mark.parametrize("make,kwargs", [
    (PruningConfig, {"early_stop_theta": True}),
    (PruningConfig, {"gamma": True}),
    (PruningConfig, {"delta_itr": True}),
    (partial(preset, "rpa_sch"), {"d": True}),
    (partial(preset, "srpa"), {"q": True}),
    (partial(preset, "mfp"), {"gamma": 1, "delta_itr": True,
                              "delta_rec": 1}),
    (preset, {"early_stop_theta": True})])
def test_a_bool_is_neither_a_factor_nor_a_threshold(make, kwargs):
    with pytest.raises(ValueError, match="bool|True"):
        make(**kwargs)


def test_explicit_schedule_config_does_not_truncate():
    with pytest.raises(ValueError, match="4.7"):
        explicit_schedule_config([4.7, 8], 3)
    cfg = explicit_schedule_config(np.array([4, 8]), 3)
    assert analytic_fod_count(CodeParams(6, 3), cfg) == 32


def test_preset_without_a_name_picks_the_decoder_from_its_keys():
    assert preset().n_max == 3
    assert (preset().gamma, preset().delta_itr, preset().delta_rec) == (1, 1, 1)
    assert preset(schedule=(4, 8)).explicit_schedule == (4, 8)
    assert preset(gamma=F(1, 2), delta_itr=1, delta_rec=1).gamma == F(1, 2)


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
    assert plan.fods == sum(len(indices) * inner.fods
                             for indices, inner in plan.steps)


def distinct_nodes(plan) -> set:
    seen, todo = set(), [plan]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(inner for _, inner in node.steps)
    return seen


def test_equal_inner_configs_share_one_node():
    # below level r, iteration j of a level hands on g * delta_itr^(j-1),
    # so level r - d sees at most (n_max - 1) * d + 1 factors: 115 nodes in
    # all, where a tree of nodes would have 22,621
    cfg = preset("mfp", gamma=F(2, 3), delta_itr=F(1, 4), delta_rec=F(1, 2),
                 n_max=12)
    plan = decode_plan(CodeParams(7, 5), cfg)
    assert len(distinct_nodes(plan)) == 1 + sum(11 * d + 1
                                                for d in range(1, 5))
    assert plan.fods == 95395


def test_plans_of_equal_configs_share_their_coset_maps(monkeypatch):
    p = CodeParams(6, 2)
    a, b = preset("rpa"), preset("rpa")
    assert decode_plan(p, a) is not decode_plan(p, b)
    seen = []

    def recording_project_llr(llr, cmap):
        seen.append(cmap)
        return project_llr(llr, cmap)

    monkeypatch.setattr("rmpa.decoder.project_llr", recording_project_llr)
    llr = np.random.default_rng(5).normal(size=(2, p.n))
    decode_batch(llr, p, a)
    decode_batch(llr, p, b)
    # full RPA keeps the same subspaces in every iteration, and their maps
    # are views of the one table of m
    assert len(seen) == 2 * a.n_max
    base = coset_table(p.m).reps
    assert all(cmap.reps.base is base for cmap in seen)


@pytest.fixture
def record_tables(monkeypatch):
    """A function that routes the coset-table builds through build(m,
    indices), from empty map caches, and returns the list of the (m, rows)
    of each; the caches are emptied again after the test."""
    built = []

    def route(build):
        def recording(m, indices):
            built.append((m, len(indices)))
            return build(m, indices)

        coset_table.cache_clear()
        _stacked_maps.cache_clear()
        monkeypatch.setattr("rmpa.geometry.stack_coset_maps", recording)
        return built

    yield route
    coset_table.cache_clear()
    _stacked_maps.cache_clear()


def hollow_maps(m, indices):
    """Maps of the right shapes that hold no memory."""
    n, rows = 1 << m, len(indices)
    runs = n >> _run_bits(m)
    return CosetMap(*(np.broadcast_to(np.intp(0), (rows, size))
                      for size in (n // 2, n // 2, n, n,
                                   runs // 2, runs // 2, runs)))


@pytest.mark.parametrize("m, r, cfg", [
    (12, 2, preset(gamma=1, delta_itr=F(99, 100), delta_rec=1, n_max=128)),
    (12, 3, preset("rpa")),
    (10, 4, preset(gamma=F(2, 3), delta_itr=F(1, 4), delta_rec=F(1, 2),
                   n_max=12)),
])
def test_cached_maps_are_one_table_per_m(record_tables, m, r, cfg):
    # ask for the maps of every step of every node, as the walk does, and
    # count the tables built: at most one per m, of n - 1 maps of 24 n bytes
    built = record_tables(hollow_maps)
    plan = decode_plan(CodeParams(m, r), cfg)
    todo = [plan]
    while todo:
        node = todo.pop()
        for indices, inner in node.steps:
            assert len(_stacked_maps(node.m, indices).reps) == len(indices)
            todo.append(inner)
    levels = [m - d for d in range(r - 1)]
    assert sorted(built) == sorted((k, (1 << k) - 1) for k in levels)
    assert sum(24 * (1 << k) * rows for k, rows in built) <= sum(
        24 * (1 << k) * ((1 << k) - 1) for k in levels)


def test_a_decode_builds_one_table_per_m(record_tables):
    built = record_tables(stack_coset_maps)
    p = CodeParams(7, 3)
    llr = np.random.default_rng(4).normal(size=(3, p.n))
    decode_batch(llr, p, MFP_83)
    decode_batch(llr, p, preset(gamma=F(1, 2), delta_itr=F(1, 3),
                                delta_rec=F(2, 3), n_max=4))
    assert sorted(built) == [(6, 63), (7, 127)]


def test_a_plan_holds_no_indices():
    # a step names its subspaces as a range, so a plan's size does not
    # grow with n
    tracemalloc.start()
    try:
        plan = decode_plan(CodeParams(12, 2), preset(n_max=1000))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plan.steps) == 1000
    assert held < 1 << 20


FACTORS = st.sampled_from([F(1), F(3, 4), F(2, 3), F(1, 2), F(1, 3),
                           F(1, 4), F(1, 8)])


@st.composite
def code_and_config(draw):
    m = draw(st.integers(2, 6))
    r = draw(st.integers(1, min(m, 4)))
    kwargs = {"n_max": draw(st.sampled_from([1, 2, 3]))}
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
    assert np.array_equal(res.codeword, fod_bits(llr))
    assert res.fods.total == 1
    assert is_codeword(res.codeword, p)


def test_decoding_calls_projection_and_fod_through_the_decoder_module(
        monkeypatch):
    # the benchmark's traced mode times these two names
    import rmpa.decoder
    calls = {"project_llr": 0, "fht_decode": 0}

    def counting(name):
        inner = getattr(rmpa.decoder, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rmpa.decoder, name, counting(name))
    p = CodeParams(7, 2)
    llrs = np.random.default_rng(3).normal(size=(2, p.n))
    for run in (lambda: decode(llrs[0], p, MFP_72),
                lambda: decode_batch(llrs, p, MFP_72)):
        calls.update(project_llr=0, fht_decode=0)
        run()
        assert calls["project_llr"] > 0 and calls["fht_decode"] > 0


@pytest.mark.parametrize("m,r", [(4, 1), (5, 2), (6, 3)])
def test_decoders_leave_their_input_unchanged(m, r):
    # at r == 1 decode hands the caller's row straight to the FHT
    p = CodeParams(m, r)
    llrs = np.random.default_rng(m).normal(size=(3, p.n)) * 20
    before = llrs.copy()
    decode(llrs[0], p, preset("rpa"))
    decode_batch(llrs, p, preset("rpa"))
    fht_decode(llrs)
    fht_decode(llrs[1])
    fht(llrs)
    fht(llrs[2])
    assert np.array_equal(llrs, before)


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
        llr = llr_from_channel(transmit(c, ch, rng.standard_normal(c.shape)),
                               ch)
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


@pytest.mark.parametrize("block_bytes", [1, 1 << 40])
def test_block_size_changes_no_result(block_bytes, monkeypatch):
    # the default budget splits RM(7,2) RPA into blocks of 32 frames
    p = CodeParams(7, 2)
    llrs = np.random.default_rng(7).normal(size=(70, p.n)) * 2
    default = FodCounter()
    expected = decode_batch(llrs, p, preset("rpa"), default)
    monkeypatch.setattr("rmpa.decoder.BLOCK_BYTES", block_bytes)
    counter = FodCounter()
    assert np.array_equal(decode_batch(llrs, p, preset("rpa"), counter),
                          expected)
    assert counter.per_level == default.per_level


@pytest.mark.parametrize("block_bytes, frames", [(1, 3), (1 << 40, 16)])
def test_block_size_changes_no_bit_of_the_headline_decode(block_bytes, frames,
                                                         monkeypatch):
    # the default budget walks the top node of RM(8,3) MFP 14 frames at a
    # time; one row per block everywhere, or the whole batch in one block,
    # decodes the same bits with the same counts
    p = CodeParams(8, 3)
    llrs = np.random.default_rng(9).normal(1.0, 1.0, (frames, p.n)) * 2
    default = FodCounter()
    expected = decode_batch(llrs, p, MFP_83, default)
    monkeypatch.setattr("rmpa.decoder.BLOCK_BYTES", block_bytes)
    counter = FodCounter()
    assert np.array_equal(decode_batch(llrs, p, MFP_83, counter), expected)
    assert counter.per_level == default.per_level


def test_the_headline_top_node_walks_several_frames_per_block(monkeypatch):
    # a block is sized by the projections the node itself holds, not by the
    # first-order inputs of its whole subtree
    p = CodeParams(8, 3)
    blocks = []

    def recording(llr, cmap):
        if cmap.reps.shape[-1] == p.n // 2:
            blocks.append(len(llr))
        return project_llr(llr, cmap)

    monkeypatch.setattr("rmpa.decoder.project_llr", recording)
    decode_batch(np.random.default_rng(3).normal(size=(32, p.n)), p, MFP_83)
    # one top-level projection per block and iteration: at least 4 frames a
    # block on average
    assert sum(blocks) == 32 * MFP_83.n_max
    assert len(blocks) <= MFP_83.n_max * 32 // 4


@pytest.mark.parametrize("params, cfg", [
    (CodeParams(8, 3), MFP_83),
    (CodeParams(6, 3), preset(schedule=(4, 8))),
], ids=["rm83-mfp", "rm63-schedule"])
def test_first_order_inputs_are_views_with_one_fod_per_row(params, cfg,
                                                           monkeypatch):
    # the projections reach the first-order decoder as they lie in memory,
    # one vector per row
    fed = []

    def recording(l, counter=None):
        fed.append((l.ndim, len(l), l.flags.owndata))
        return fht_decode(l, counter)

    monkeypatch.setattr("rmpa.decoder.fht_decode", recording)
    frames = 16
    llrs = np.random.default_rng(6).normal(1.0, 1.0, (frames, params.n)) * 2
    decode_batch(llrs, params, cfg)
    assert {ndim for ndim, _, _ in fed} == {2}
    assert not any(owns for _, rows, owns in fed if rows > 1)
    assert sum(rows for _, rows, _ in fed) == frames * executed_fod_count(
        params, cfg)


def test_decode_batch_memory_does_not_grow_with_the_batch():
    # 4 frames fit in one block of the top node, and 64 take several: the
    # larger batch holds one larger block at a time, not all of its frames
    p = CodeParams(8, 3)
    llrs = np.random.default_rng(8).normal(size=(64, p.n))
    decode_batch(llrs[:1], p, MFP_83)
    peaks = {}
    for frames in (4, 64):
        tracemalloc.start()
        try:
            decode_batch(llrs[:frames], p, MFP_83)
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 5 * 2 ** 20
    assert peaks[64] < 2 * peaks[4]


@pytest.mark.skipif(not _keep_freed_memory(),
                    reason="the heap policy is set on glibc only")
def test_a_warm_decode_maps_no_fresh_pages():
    # with glibc's default thresholds the second call takes about 32,000
    # minor faults: each block's freed temporaries go back to the kernel
    p = CodeParams(8, 3)
    llrs = np.random.default_rng(8).normal(size=(4, p.n))
    decode_batch(llrs, p, MFP_83)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    decode_batch(llrs, p, MFP_83)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_counting_fods_builds_no_coset_maps():
    # the stacked maps of RM(12, 2) full RPA would take 384 MiB
    tracemalloc.start()
    try:
        count = analytic_fod_count(CodeParams(12, 2), preset("rpa"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3 * 4095
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("m,r", [(4, 1), (5, 2), (6, 3)])
def test_decode_batch_of_no_frames(m, r):
    counter = FodCounter()
    bits = decode_batch(np.zeros((0, 1 << m)), CodeParams(m, r),
                        preset("rpa"), counter)
    assert bits.shape == (0, 1 << m)
    assert counter.total == 0


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
        accu = np.zeros_like(level)
        for i in range(1, n):
            cm = build_coset_map(m, i)
            chat = fod_bits(project_llr(level, cm))
            accu += (1.0 - 2.0 * chat[cm.coset_of]) * level[cm.partner_of]
        level = clamp_llr(accu / (n - 1))
    return (level < 0).astype(np.uint8)


@pytest.mark.parametrize("m", [4, 5])
def test_unpruned_preset_equals_textbook_loop(m):
    p = CodeParams(m, 2)
    rng = np.random.default_rng(20 + m)
    for _ in range(10):
        llr = rng.normal(size=p.n) * 3
        res = decode(llr, p, preset("rpa"))
        assert np.array_equal(res.codeword, textbook_rpa_order2(llr, m, 3))


def test_early_stopping_on_rm72_frames_equals_the_per_path_walk():
    # the sweep decodes every early-stopping frame alone, the walk taking
    # its one row through the maps' XOR structure; the per-path walk
    # projects and aggregates map by map
    params = CodeParams(7, 2)
    theta = 0.05
    cfg = preset("rpa", early_stop_theta=theta)
    ch = ChannelConfig(ebno_db=2.0, rate=params.rate)
    rng = np.random.default_rng(72)
    gen = build_generator(params)
    words = encode(rng.integers(0, 2, (300, params.k), dtype=np.uint8), gen)
    llrs = llr_from_channel(
        transmit(words, ch, rng.standard_normal(words.shape)), ch)
    stops = set()
    for llr in llrs:
        result = decode(llr, params, cfg)
        bits, iterations, converged = decode_per_path(llr[None, :], params,
                                                      cfg, theta)
        assert np.array_equal(result.codeword, bits[0])
        assert (result.iterations_run, result.converged_early) == (
            iterations, converged)
        stops.add((iterations, converged))
    # frames stop early after two and after three iterations, and some run
    # the whole budget
    assert {(2, True), (3, True), (3, False)} <= stops
