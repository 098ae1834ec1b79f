"""A level-3 node decodes each repeated two-dimensional quotient of its
first inner iteration once, and first-order decoders weigh the partner LLRs
by signs built from the decoded form.  The bits equal the per-path walk's,
the walk runs the executed count of FODs, and every counter keeps the
nominal count."""

import itertools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import boxplus, decode_per_path
from rmpa import (CodeParams, FodCounter, aggregate, analytic_fod_count,
                  coset_table, decode, decode_batch, decode_plan,
                  executed_fod_count, preset)
from rmpa import decoder, fod, geometry
from rmpa.cli import main
from rmpa.fod import _form_table, form_bits
from rmpa.geometry import _lift, top_bits

MFP_83 = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))


@pytest.fixture
def decoded_rows(monkeypatch):
    """The rows that go through rmpa.decoder.fht_decode, counted by
    wrapping it, as the bench counts them."""
    rows = []
    original = decoder.fht_decode

    def counting(llr, counter=None):
        forms = original(llr, counter)
        rows.append(np.atleast_2d(forms).shape[0])
        return forms

    monkeypatch.setattr(decoder, "fht_decode", counting)
    return rows


@pytest.mark.parametrize("params,cfg,nominal,executed", [
    (CodeParams(8, 3), MFP_83, 22544, 22544 - 7140),
    (CodeParams(6, 3), preset("rpa"), 17577, 17577 - 3906),
    (CodeParams(6, 3), preset(schedule=(4, 8)), 32, 32),
], ids=["rm83-mfp", "rm63-rpa", "rm63-schedule"])
def test_a_decode_runs_the_executed_fods_and_counts_the_nominal(
        decoded_rows, params, cfg, nominal, executed):
    llrs = np.random.default_rng(params.m).normal(1.0, 1.0, (3, params.n))
    counter = FodCounter()
    decode(llrs[0], params, cfg, counter)
    assert sum(decoded_rows) == executed_fod_count(params, cfg) == executed
    assert counter.total == analytic_fod_count(params, cfg) == nominal
    assert counter.per_level == {params.m - params.r + 1: nominal}
    decoded_rows.clear()
    counter = FodCounter()
    decode_batch(llrs, params, cfg, counter)
    assert sum(decoded_rows) == 3 * executed
    assert counter.total == 3 * nominal


def test_full_rpa_on_rm83_shares_a_fifth_of_its_fods(monkeypatch):
    # read from the share tables: no decode runs
    monkeypatch.setattr(decoder, "project_llr", None)
    params = CodeParams(8, 3)
    assert analytic_fod_count(params, preset("rpa")) == 291465
    assert executed_fod_count(params, preset("rpa")) == 291465 - 64770


@pytest.mark.parametrize("params, cfg", [
    (CodeParams(8, 3), preset("rpa")), (CodeParams(8, 3), MFP_83),
    (CodeParams(6, 3), preset("rpa"))], ids=["rm83-rpa", "rm83-mfp",
                                             "rm63-rpa"])
def test_fod_counts_are_python_ints(params, cfg):
    # the spans are counted by numpy, whose count is an int64
    assert type(executed_fod_count(params, cfg)) is int
    assert type(analytic_fod_count(params, cfg)) is int


@pytest.mark.parametrize("m", range(1, 11))
def test_the_lift_table_holds_every_lift(m):
    # each map of the coset table holds the lift of every form by it
    n = 1 << m
    lifts = coset_table(m).lifts
    assert lifts.dtype == (np.uint8 if m <= 7 else np.uint16)
    assert not lifts.flags.writeable
    i, h = top_bits(range(1, n))
    assert np.array_equal(lifts, _lift(np.arange(n), h[:, None], i[:, None]))


@pytest.mark.parametrize("m", range(2, 8))
def test_a_lifted_form_is_zero_on_its_map_and_keeps_its_codeword(m):
    # the codeword of lift_h(f) is constant on each coset {z, z ^ i} and
    # equals f's codeword at the coset's representative
    n = 1 << m
    f = np.arange(n)
    z = np.arange(n)
    for i in range(1, n):
        h = i.bit_length() - 1
        bits = form_bits(decoder._lifted(f, m, np.array([i]))[:, None], m)
        assert np.array_equal(bits, bits[:, z ^ i])
        reps = geometry.insert_zero_bit(z[:n // 2], h)
        assert np.array_equal(bits[:, reps], form_bits(f[:, None], m - 1))


def test_building_the_lift_table_holds_little_besides_it():
    # the lifts are filled with the coset table's other fields, a block of
    # maps at a time: built in one piece, the m = 10 lifts held 17 MB of
    # temporaries beside their 2 MB
    tracemalloc.start()
    try:
        table = coset_table.__wrapped__(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lifts = table.lifts
    others = sum(a.nbytes for a in vars(table).values()) - lifts.nbytes
    assert lifts.nbytes == 2 * 1023 * 1024
    assert peak <= others + lifts.nbytes + 5 * fod.BUILD_BYTES


def test_counting_executed_fods_holds_no_share_table():
    # 16 iterations of RM(10,3), each with its own share table of up to
    # 2 MB: counting them held 72.6 MB of tables, and 278.6 MB at n_max 128
    decoder._shared_quotients.cache_clear()
    cfg = preset(gamma=1, delta_itr=F(99, 100), delta_rec=1, n_max=16)
    tracemalloc.start()
    try:
        executed_fod_count(CodeParams(10, 3), cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 2 ** 20
    assert decoder._shared_quotients.cache_info().currsize == 0


def test_counting_nominal_fods_builds_no_share_table(capsys):
    decoder._shared_quotients.cache_clear()
    params = CodeParams(8, 3)
    cfg = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))
    decode_plan(params, cfg)
    assert analytic_fod_count(params, cfg) == 22544
    assert main(["fods", "--m", "8", "--r", "3", "--gamma", "3/4",
                 "--ditr", "1/3", "--drec", "3/4"]) == 0
    assert capsys.readouterr().out.strip() == "22544"
    assert decoder._shared_quotients.cache_info().currsize == 0


def test_share_tables_hold_the_canonical_pairs_and_an_alias_index():
    # no per-coordinate tables: about 0.3 MB at full RPA on RM(8, 3)
    outer, inner = tuple(range(1, 256)), tuple(range(1, 128))
    tables = decoder._shared_quotients(8, outer, inner)
    canon_t, canon_s, alias = tables
    assert alias.shape == (255, 127) and alias.dtype == np.int32
    # every two-dimensional subspace of F_2^8 once
    assert canon_t.shape == canon_s.shape == (255 * 254 // 6,)
    assert sum(a.nbytes for a in tables) < 400_000


def lift(j: int, h: int) -> int:
    """j with a 0 inserted at bit h."""
    return ((j >> h) << (h + 1)) | (j & ((1 << h) - 1))


@pytest.mark.parametrize("m,outer,inner", [
    (5, tuple(range(1, 32)), tuple(range(1, 16))),
    (6, (1, 22, 43), (1, 6, 11, 16, 21, 26)),
    (7, tuple(range(1, 128, 3)), tuple(range(1, 64, 2)))])
def test_pairs_alias_exactly_when_they_span_one_subspace(m, outer, inner):
    canon_t, canon_s, alias = decoder._shared_quotients(m, outer, inner)
    spans = {}
    for t, s in itertools.product(range(len(outer)), range(len(inner))):
        i, v = outer[t], lift(inner[s], outer[t].bit_length() - 1)
        spans.setdefault(frozenset((i, v, i ^ v)), []).append((t, s))
    # the first pair of each span, in the order the spans first appear
    first = [pairs[0] for pairs in spans.values()]
    assert list(zip(canon_t.tolist(), canon_s.tolist())) == first
    for u, pairs in enumerate(spans.values()):
        assert {int(alias[t, s]) for t, s in pairs} == {u}


def gaussian_rows(params, count, seed):
    return np.random.default_rng(seed).normal(1.0, 1.0, (count, params.n)) * 2


def saturated_rows(params, count, seed):
    """+-30 rows: random signs, and codewords of RM(m, 1) with a few bits
    flipped, where spectra tie exactly."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, (count, params.n))
    z = np.arange(params.n)
    forms = rng.integers(0, params.n, count // 2)
    words = np.array([[bin(a & x).count("1") & 1 for x in z] for a in forms])
    flips = rng.random((len(words), params.n)) < 0.06
    signs[:len(words)] = words ^ flips
    return 30.0 * (1 - 2 * signs)


@pytest.mark.parametrize("params,cfg,count", [
    (CodeParams(6, 3), preset("rpa"), 6),
    (CodeParams(7, 3), preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3),
                              delta_rec=F(3, 4)), 6),
    (CodeParams(8, 3), MFP_83, 4),
    # uint16 coset tables at the top node (uint8 up to m = 8)
    (CodeParams(9, 3), preset("mfp", gamma=F(1, 2), delta_itr=F(1, 3),
                              delta_rec=F(1, 2)), 2),
], ids=["rm63-rpa", "rm73-mfp", "rm83-mfp", "rm93-mfp"])
@pytest.mark.parametrize("rows", [gaussian_rows, saturated_rows])
def test_the_shared_walk_equals_the_per_path_walk(params, cfg, count, rows):
    llrs = rows(params, count, params.m)
    expected = decode_per_path(llrs, params, cfg)[0]
    assert np.array_equal(decode_batch(llrs, params, cfg), expected)
    for llr, bits in zip(llrs, expected):
        assert np.array_equal(decode(llr, params, cfg).codeword, bits)


def test_the_shared_quotients_of_one_row_are_gathered_in_range(monkeypatch):
    # a one-frame decode reaches the shared step with one row, where
    # project_llr gathers one value per index; the index arrays that step
    # builds itself are no CosetMap, and each must index the LLRs it
    # projects, as the reference's checked gathers read them
    params = CodeParams(8, 3)
    calls = []
    original = decoder.project_llr

    def checking(l, cmap):
        got = original(l, cmap)
        calls.append(isinstance(cmap, decoder.CosetMap))
        assert 0 <= min(cmap.reps.min(), cmap.partners.min())
        assert max(cmap.reps.max(), cmap.partners.max()) < l.shape[-1]
        want = boxplus(l[..., cmap.reps], l[..., cmap.partners])
        assert np.max(np.abs(got - want)) <= 1e-4
        return got

    monkeypatch.setattr(decoder, "project_llr", checking)
    llr = gaussian_rows(params, 1, 2)[0]
    bits = decode(llr, params, MFP_83).codeword
    assert not all(calls) and any(calls)
    assert np.array_equal(bits, decode_per_path(llr[None, :], params,
                                                MFP_83)[0][0])


def test_the_shared_step_of_one_row_sizes_its_blocks_by_intp_indices():
    # each block of first pairs builds two intp index arrays, n/4 values a
    # pair: sized by the uint8 maps of RM(8,3)'s inner level instead, the
    # blocks took twice the pairs, and a one-row decode peaked at 2.19 MiB
    # traced, 1.17 MiB as sized
    params = CodeParams(8, 3)
    llr = gaussian_rows(params, 1, 10)[0]
    decode(llr, params, MFP_83)
    tracemalloc.start()
    try:
        decode(llr, params, MFP_83)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def test_early_stopping_equals_the_per_path_walk():
    params = CodeParams(6, 3)
    cfg = preset("rpa", early_stop_theta=0.5)
    for llr in gaussian_rows(params, 6, 1):
        result = decode(llr, params, cfg)
        bits, iterations, converged = decode_per_path(llr[None, :], params,
                                                      cfg, theta=0.5)
        assert np.array_equal(result.codeword, bits[0])
        assert (result.iterations_run, result.converged_early) == (
            iterations, converged)


def test_the_shared_step_gives_each_spans_first_pair_its_own_forms():
    # on RM(8,3) MFP, whose spans repeat, the form that the shared step
    # gives the first pair of each span is the one that pair's own level-2
    # decoder decodes in its first iteration, through the same step
    params, rows = CodeParams(8, 3), 3
    m = params.m
    llr = gaussian_rows(params, rows, 8).astype(decoder.WALK_DTYPE)
    for outer, inner in decode_plan(params, MFP_83).steps:
        first = decoder._shared_step(inner)
        proj = decoder.project_llr(llr, decoder._stacked_maps(m, outer))
        canon_t, canon_s, alias = decoder._shared_quotients(m, outer, first)
        assert len(canon_t) < alias.size
        shared = decoder._shared_forms(m, outer, first, proj, None).reshape(
            len(outer), rows, len(first)).swapaxes(0, 1)
        for t in np.unique(canon_t):
            own = decoder._decode_lifted(proj[:, t], m - 1, first)
            s = canon_s[canon_t == t]
            assert np.array_equal(shared[:, t, s], own[:, s])


def test_one_quotient_per_block_changes_no_bit(monkeypatch):
    params = CodeParams(6, 3)
    llrs = gaussian_rows(params, 2, 3)
    expected = decode_batch(llrs, params, preset("rpa"))
    monkeypatch.setattr(fod, "BUILD_BYTES", 1)
    assert np.array_equal(decode_batch(llrs, params, preset("rpa")),
                          expected)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 8), table_m=st.integers(1, 8), columns=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_aggregating_forms_equals_aggregating_their_bits(m, table_m, columns,
                                                         seed):
    # a first-order codeword decoded from each projection onto every
    # subspace: the rows of the form table are its bits, and aggregate
    # signs the partner LLRs from the forms as from the bits, through form
    # tables split into high and low bits above FORM_TABLE_M, for one row
    # and, coordinates first, for more rows than the row-major cutoff, as
    # factors over the high and the low bits of z
    n = 1 << m
    rows = 1 + columns * geometry.ROW_MAJOR_ROWS[max(m, 5) - 5]
    assert geometry._coordinates_first(rows, n) == columns
    rng = np.random.default_rng(seed)
    indices = tuple(range(1, n))
    a = rng.integers(0, n // 2, (rows, n - 1))
    u0 = rng.integers(0, 2, (rows, n - 1))
    decoded = a + (n // 2) * u0
    chat = _form_table(m - 1, np.uint8)[decoded]
    cmap = coset_table(m)
    i, h = top_bits(indices)
    forms = _lift(decoded, h, i)
    l = (rng.normal(size=(rows, n)) * 4).astype(np.float32)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fod, "FORM_TABLE_M", table_m)
        bits = form_bits(decoded[..., None], m - 1)
        got = aggregate(l, cmap, forms=forms)
    assert np.array_equal(bits, chat)
    assert np.array_equal(got, aggregate(l, cmap, chat=chat))
