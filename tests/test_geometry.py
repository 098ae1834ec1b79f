import dataclasses
import importlib
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (aggregate_per_map, boxplus, build_coset_map,
                     coset_signs_per_map, in_row_space_batch, is_codeword,
                     mask_coset_maps, project_hard, project_per_map)
import rmpa
from rmpa import (CodeParams, LLR_CLAMP, aggregate, build_generator,
                  coset_table, encode, preset, project_llr)
from rmpa import geometry
from rmpa.decoder import select_projection_indices
from rmpa.fod import _form_table
from rmpa.geometry import _lift, _row_tiles, clamp_llr, top_bits


def stack(m: int, indices):
    """The coset maps of the subspaces in indices, as the rows of the coset
    table of m that hold them."""
    return coset_table(m)[np.asarray(indices, dtype=np.intp) - 1]


def test_coset_map_m2():
    cm = build_coset_map(2, 1)
    assert cm.reps.tolist() == [0, 2]
    assert cm.partners.tolist() == [1, 3]
    cm = build_coset_map(2, 3)
    assert cm.reps.tolist() == [0, 1]
    assert cm.partners.tolist() == [3, 2]


def test_coset_map_m3_i5():
    cm = build_coset_map(3, 5)
    pairs = [set(p) for p in zip(cm.reps.tolist(), cm.partners.tolist())]
    assert pairs == [{0, 5}, {1, 4}, {2, 7}, {3, 6}]
    # inverse map consistent
    for idx, (a, b) in enumerate(zip(cm.reps, cm.partners)):
        assert cm.coset_of[a] == idx == cm.coset_of[b]


def test_coset_map_partition():
    for m in range(1, 6):
        for i in range(1, 2 ** m):
            cm = build_coset_map(m, i)
            members = set(cm.reps.tolist()) | set(cm.partners.tolist())
            assert members == set(range(2 ** m))
            assert np.all(cm.reps < cm.partners)
            assert np.all(np.diff(cm.reps) > 0)


def test_coset_map_rejects_zero():
    with pytest.raises(ValueError):
        build_coset_map(3, 0)
    with pytest.raises(ValueError):
        build_coset_map(3, 8)


def test_project_hard_examples():
    cm = build_coset_map(2, 1)
    assert project_hard(np.zeros(4, dtype=np.uint8), cm).tolist() == [0, 0]
    out = project_hard(np.array([0, 1, 1, 0], dtype=np.uint8), cm)
    assert out.tolist() == [1, 1]
    assert is_codeword(out, CodeParams(1, 0))


def test_projection_closure_sampled():
    rng = np.random.default_rng(5)
    for m in range(2, 6):
        for r in range(1, m + 1):
            p = CodeParams(m, r)
            gen = build_generator(p)
            msgs = rng.integers(0, 2, size=(200, p.k), dtype=np.uint8)
            words = (msgs @ gen) % 2
            sub = CodeParams(m - 1, r - 1)
            for i in range(1, p.n):
                proj = project_hard(words, build_coset_map(m, i))
                assert np.all(in_row_space_batch(proj, sub))


def projected(a, b):
    """a [+] b by project_llr, on the one coset of F_2^1."""
    return project_llr(np.array([a, b], dtype=np.float64),
                       build_coset_map(1, 1))[0]


# the logaddexp reference and the exp-domain projection it checks
SOFT_XORS = (boxplus, projected)


def test_boxplus_examples():
    for soft_xor in SOFT_XORS:
        assert soft_xor(0.0, 3.7) == pytest.approx(0.0, abs=1e-12)
        assert soft_xor(LLR_CLAMP, 4.0) == pytest.approx(4.0, abs=1e-6)
        assert soft_xor(LLR_CLAMP, -10.0) == pytest.approx(-10.0, abs=1e-6)
        expected = 2.0 * math.atanh(math.tanh(1.0) ** 2)
        assert soft_xor(2.0, 2.0) == pytest.approx(expected, abs=1e-12)
        assert soft_xor(2.0, 2.0) == pytest.approx(1.32500, abs=1e-5)


def test_boxplus_stable_matches_literal_form():
    # the literal tanh/atanh form is evaluated in 50-digit arithmetic:
    # in float64 it loses ~1e-8 near saturation (1-x cancellation), which
    # would mask the stable form's actual accuracy
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    grid = np.linspace(-20.0, 20.0, 41)
    for a in grid:
        for b in grid:
            literal = float(2 * mp.atanh(mp.tanh(mp.mpf(a) / 2)
                                         * mp.tanh(mp.mpf(b) / 2)))
            for soft_xor in SOFT_XORS:
                assert soft_xor(a, b) == pytest.approx(literal, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(-25, 25), st.floats(-25, 25))
def test_boxplus_symmetry_and_odd_negation(a, b):
    for soft_xor in SOFT_XORS:
        assert soft_xor(a, b) == soft_xor(b, a)
        assert soft_xor(-a, -b) == pytest.approx(soft_xor(a, b), abs=1e-12)
        assert soft_xor(-a, b) == pytest.approx(-soft_xor(a, b), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-25, 25), st.floats(-25, 25))
def test_boxplus_sign_and_magnitude(a, b):
    for soft_xor in SOFT_XORS:
        out = float(soft_xor(a, b))
        if abs(a) > 1e-6 and abs(b) > 1e-6:
            assert (math.copysign(1, out)
                    == math.copysign(1, a) * math.copysign(1, b))
        assert abs(out) <= min(abs(a), abs(b)) + 1e-9


# clamped LLRs, with the clamp itself and exact zeros drawn often
CLAMPED_LLRS = st.one_of(st.floats(-LLR_CLAMP, LLR_CLAMP),
                         st.sampled_from([LLR_CLAMP, -LLR_CLAMP, 0.0, -0.0]))


@st.composite
def stacked_inputs(draw):
    m = draw(st.integers(1, 6))
    n = 1 << m
    indices = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6,
                            unique=True))
    l = draw(arrays(np.float64, (draw(st.integers(1, 3)), n),
                    elements=CLAMPED_LLRS))
    return l, stack(m, indices)


@settings(max_examples=200, deadline=None)
@given(stacked_inputs())
def test_project_llr_matches_the_reference_on_stacked_maps(inputs):
    l, cmap = inputs
    got = project_llr(l, cmap)
    want = boxplus(l[..., cmap.reps], l[..., cmap.partners])
    assert got.shape == want.shape == l.shape[:1] + cmap.reps.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)],
                         ids=["1-D", "one-row", "rows", "3-D"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_project_llr_keeps_its_shape_and_values_in_either_memory_order(
        shape, dtype):
    # several rows are gathered as columns and one row in the order of the
    # maps; either way the result is a view with the shape and the values
    # that each map gives each row on its own
    m = 5
    indices = range(2, 31, 4)
    l = (np.random.default_rng(4).normal(size=shape + (1 << m,)) * 4).astype(
        dtype)
    cases = [(coset_table(m)[1:30:4], indices),
             (stack(m, [7]), [7]), (build_coset_map(m, 7), None)]
    for cmap, maps in cases:
        got = project_llr(l, cmap)
        assert got.shape == shape + cmap.reps.shape
        assert got.dtype == dtype and got.base is not None
        for row in np.ndindex(shape):
            if maps is None:
                want = project_llr(l[row], cmap)
            else:
                want = np.stack([project_llr(l[row], build_coset_map(m, i))
                                 for i in maps])
            assert np.array_equal(got[row], want)
            assert np.max(np.abs(got[row] - boxplus(
                l[row][..., cmap.reps], l[row][..., cmap.partners]))) <= (
                1e-12 if dtype == np.float64 else 1e-5)


def test_the_per_map_projection_is_the_kernel_and_the_boxplus():
    # the per-map loop does the kernel's arithmetic on each map's own
    # gathers: equal to project_llr bit for bit, and to the logaddexp form
    # within rounding
    rng = np.random.default_rng(12)
    for m, dtype, rows in itertools.product((1, 3, 6, 8),
                                            (np.float32, np.float64),
                                            (1, 3)):
        n = 1 << m
        indices = list(rng.permutation(np.arange(1, n))[:5])
        l = clamp_llr(rng.normal(size=(rows, n)) * 12).astype(dtype)
        want = project_per_map(l, m, indices)
        assert want.dtype == dtype
        got = project_llr(l, stack(m, indices))
        assert np.array_equal(bit_pattern(got), bit_pattern(want))
        reference = np.stack([boxplus(l[:, build_coset_map(m, i).reps],
                                      l[:, build_coset_map(m, i).partners])
                              for i in indices], axis=1)
        assert np.max(np.abs(want - reference)) <= (
            1e-12 if dtype == np.float64 else 1e-5)


def bit_pattern(values: np.ndarray) -> np.ndarray:
    """The bits of float values as unsigned integers: equal arrays of them
    are equal bit for bit, signed zeros too."""
    values = np.ascontiguousarray(values)
    return values.view(f"u{values.itemsize}")


def index_sets(m: int):
    """Index sets of F_2^m, the maps of each stacked by stack: one map, all
    n - 1, a strided set as the pruning rule keeps, or any set in any
    order."""
    n = 1 << m
    return st.one_of(
        st.integers(1, n - 1).map(lambda i: [i]),
        st.just(list(range(1, n))),
        st.integers(1, n - 1).map(
            lambda count: list(select_projection_indices(n, count))),
        st.lists(st.integers(1, n - 1), min_size=2, max_size=min(n - 1, 40),
                 unique=True))


def cutoff(m: int) -> int:
    """The most rows the kernels keep row-major at m."""
    return geometry.ROW_MAJOR_ROWS[min(max(m, 5), 10) - 5]


@st.composite
def kernel_inputs(draw):
    m = draw(st.integers(2, 9))
    indices = draw(index_sets(m))
    rows = draw(st.sampled_from([1, 2, cutoff(m), cutoff(m) + 1]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = 1 << m
    l = clamp_llr(rng.normal(size=(rows, n)) * 10)
    # exact zeros of either sign and the clamp of either sign, often
    special = np.array([0.0, -0.0, LLR_CLAMP, -LLR_CLAMP])
    where = rng.random(l.shape) < 0.2
    l[where] = rng.choice(special, size=where.sum())
    chat = rng.integers(0, 2, (rows, len(indices), n // 2), dtype=np.uint8)
    # first-order forms on F_2^(m-1), b and u0, lifted to F_2^m as the
    # walk lifts them, and the bits of the projections they decode
    decoded = rng.integers(0, n, (rows, len(indices)))
    i, h = top_bits(indices)
    forms = _lift(decoded, h, i)
    return (m, indices, l.astype(dtype), chat, forms,
            _form_table(m - 1, np.uint8)[decoded])


@settings(max_examples=100, deadline=None)
@given(kernel_inputs())
def test_the_kernels_equal_the_per_map_loops_bit_for_bit(inputs):
    # whatever their gathers, the projection, the signs and the aggregation
    # give each map's own values: row-major through the maps' XOR
    # structure, more rows coordinates first.  The signs are checked
    # apart, in the layout aggregate picks, as a flipped sign times a
    # partner LLR of +-0 leaves the sum's bits alone: from decoded bits by
    # the coset gather, and from lifted forms as rows of the form table or,
    # coordinates first, as z-first factors over the bits of z, whose
    # product is the sign
    m, indices, l, chat, forms, form_bits = inputs
    cmap = stack(m, indices)
    got = project_llr(l, cmap)
    assert got.dtype == l.dtype
    assert np.array_equal(bit_pattern(got),
                          bit_pattern(project_per_map(l, m, indices)))
    columns = geometry._coordinates_first(len(l), 1 << m)
    # coordinates first, the bits are laid out (k * n/2, rows)
    laid_out = chat.reshape(len(chat), -1).T if columns else chat
    for bits, decoded_input, signs in [
            (chat, {"chat": chat},
             geometry._coset_signs(laid_out, geometry._coset_index(cmap),
                                   l.dtype, columns)),
            (form_bits, {"forms": forms},
             geometry._form_signs(forms, m, l.dtype, columns))]:
        want = coset_signs_per_map(m, indices, bits, l.dtype)
        if columns:
            want = want.transpose(2, 1, 0)
        if len(signs) == 2:
            high, low = signs
            signs = ((high[:, None] * low[None, :]).reshape(want.shape),)
        (signs,) = signs
        assert signs.dtype == l.dtype
        assert np.array_equal(bit_pattern(signs), bit_pattern(want))
        aggregated = aggregate(l, cmap, **decoded_input)
        assert aggregated.dtype == l.dtype
        assert np.array_equal(bit_pattern(aggregated), bit_pattern(
            aggregate_per_map(l, m, indices, bits)))


@pytest.mark.parametrize("rows", [1, 3])
def test_project_llr_raises_on_an_index_outside_the_llrs(rows):
    # one row is gathered unchecked through a CosetMap; index arrays of
    # any other kind are checked, and maps built for vectors of another
    # length raise as aggregate does, with one row as with several
    m = 4
    l = np.random.default_rng(9).normal(size=(rows, 1 << m)) * 4
    table = coset_table(m)
    pairs = SimpleNamespace(reps=table.reps.copy(),
                            partners=table.partners.copy())
    assert np.array_equal(project_llr(l, table), project_llr(l, pairs))
    pairs.partners[2, 5] = 1 << m
    with pytest.raises(IndexError):
        project_llr(l, pairs)
    # longer maps index past the LLRs, and shorter ones would project
    # their first half unchecked
    for maps in (stack(m + 1, [1, 17, 31]), stack(m - 1, [1, 5, 7])):
        with pytest.raises(ValueError, match="do not match maps"):
            project_llr(l, maps)


@pytest.mark.parametrize("m, rows, k, layout", [
    (5, 1, 31, "row-major"),
    (5, 40, 31, "coordinates first"),
    (9, 1, 511, "runs of z"),
])
def test_aggregate_raises_on_a_form_outside_its_range(m, rows, k, layout):
    # a form indexes the form table of m bits, of 2n rows; the layouts
    # that mask its bits took 2n and more, and every layout took -1, each
    # as the form of its value mod 2n
    n = 1 << m
    l = np.random.default_rng(3).normal(size=(rows, n))
    cmap = coset_table(m)[:k]
    width = _row_tiles(rows, n, k, l.itemsize, False,
                       rmpa.fod.BUILD_BYTES)[0]
    assert layout == ("coordinates first"
                      if geometry._coordinates_first(rows, n)
                      else "runs of z" if width < n else "row-major")
    forms = np.zeros((rows, k), dtype=np.int64)
    aggregate(l, cmap, forms=forms)
    for bad in (2 * n, 2 * n + 3, 4 * n + 3, -1):
        forms[-1, -1] = bad
        with pytest.raises(IndexError):
            aggregate(l, cmap, forms=forms)


def test_project_llr_takes_any_finite_llr_without_a_warning():
    # exp(-|l|) alone underflows to 0 past |l| = 745, and log(0) warns;
    # LLRs beyond the clamp project as the clamped LLRs do
    cmap = coset_table(2)
    l = np.array([[1e3, 1e3, -1e3, 800.0],
                  [1e300, -1e300, 5.0, -1e300],
                  [-1e300, 0.0, 1e-300, 31.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project_llr(l, cmap)
    c = clamp_llr(l)
    want = boxplus(c[..., cmap.reps], c[..., cmap.partners])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.all(np.abs(got) <= LLR_CLAMP)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clamp_llr_is_np_clip_bit_for_bit(dtype):
    # +-0 and NaN pass through, +-inf and all beyond the clamp clamp, and
    # the dtype is kept
    l = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, LLR_CLAMP, -LLR_CLAMP,
                  31.0, -1e30, 5.5, -np.nextafter(LLR_CLAMP, 0)]).astype(
        dtype)
    got = clamp_llr(l)
    assert got.dtype == dtype
    assert np.array_equal(bit_pattern(got),
                          bit_pattern(np.clip(l, -LLR_CLAMP, LLR_CLAMP)))


def test_a_zero_llr_projects_to_zero():
    cmap = coset_table(3)
    l = np.array([0.0, -0.0, 3.0, -LLR_CLAMP, 0.5, LLR_CLAMP, 0.0, -2.5])
    got = project_llr(l, cmap)
    zero = (l[cmap.reps] == 0) | (l[cmap.partners] == 0)
    assert zero.any() and not zero.all()
    assert np.all(got[zero] == 0)
    assert np.all(got[~zero] != 0)


def test_project_llr_sign_consistency():
    rng = np.random.default_rng(8)
    m = 4
    for i in (1, 5, 11):
        cm = build_coset_map(m, i)
        for _ in range(20):
            l = rng.normal(size=16) * 4
            if np.any(np.abs(l) < 1e-3):
                continue
            soft = (project_llr(l, cm) < 0).astype(np.uint8)
            hard = project_hard((l < 0).astype(np.uint8), cm)
            assert np.array_equal(soft, hard)


def test_project_llr_never_nan_at_saturation():
    cm = build_coset_map(2, 1)
    l = np.array([LLR_CLAMP, LLR_CLAMP, -LLR_CLAMP, LLR_CLAMP])
    out = project_llr(l, cm)
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= LLR_CLAMP)


def test_aggregate_single_projection():
    l = np.array([1.0, 2.0, 3.0, 4.0])
    cmap = coset_table(2)[:1]
    zero_bits = np.zeros((1, 2), dtype=np.uint8)
    out = aggregate(l, cmap, chat=zero_bits)
    # decoded coset bit 0 passes the partner LLR through
    assert out.tolist() == [2.0, 1.0, 4.0, 3.0]
    out = aggregate(l, cmap, chat=np.ones((1, 2), dtype=np.uint8))
    assert out.tolist() == [-2.0, -1.0, -4.0, -3.0]


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate(np.zeros(4), coset_table(2)[:0],
                  chat=np.zeros((0, 2), dtype=np.uint8))


def test_aggregate_takes_exactly_one_decoded_input():
    cmap = coset_table(3)[:2]
    l = np.zeros(8)
    chat = np.zeros((2, 4), dtype=np.uint8)
    forms = np.zeros((1, 2), dtype=np.intp)
    assert np.array_equal(aggregate(l, cmap, chat=chat),
                          aggregate(l, cmap, forms=forms))
    for both_or_neither in [{}, {"chat": chat, "forms": forms}]:
        with pytest.raises(ValueError, match="either decoded bits or forms"):
            aggregate(l, cmap, **both_or_neither)


def test_aggregate_rejects_bits_that_do_not_fit_the_maps():
    # decoded bits (rows, k, n/2) and forms (rows, k) with a leading or a
    # trailing axis wrong, for one row as for rows taken coordinates first
    cmap = coset_table(4)[:2]
    for rows in (1, 64):
        l = np.zeros((rows, 16))
        chat = np.zeros((rows, 2, 8), dtype=np.uint8)
        forms = np.zeros((rows, 2), dtype=np.intp)
        assert aggregate(l, cmap, chat=chat).shape == l.shape
        assert aggregate(l, cmap, forms=forms).shape == l.shape
        for bad in [{"chat": chat[:, :1]}, {"chat": chat[..., :7]},
                    {"chat": chat[0]}, {"chat": chat[None]},
                    {"chat": np.zeros((rows + 1, 2, 8), dtype=np.uint8)},
                    {"forms": forms[:, :1]}, {"forms": forms[..., None]},
                    {"forms": forms[0]},
                    {"forms": np.zeros((rows + 1, 2), dtype=np.intp)}]:
            with pytest.raises(ValueError, match="decoded input of shape"):
                aggregate(l, cmap, **bad)
        # LLRs of another length than the maps'
        with pytest.raises(ValueError, match="do not match maps"):
            aggregate(np.zeros((rows, 8)), cmap,
                      chat=np.zeros((rows, 2, 4), dtype=np.uint8))


def test_aggregate_noiseless_reproduces_codeword():
    p = CodeParams(3, 2)
    gen = build_generator(p)
    cmap = coset_table(p.m)
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
        l = 20.0 * (1.0 - 2.0 * c)
        out = aggregate(l, cmap, chat=project_hard(c, cmap))
        assert np.array_equal((out < 0).astype(np.uint8), c)


def test_aggregate_linear_in_magnitude():
    rng = np.random.default_rng(9)
    l = rng.normal(size=8)
    cmap = stack(3, (1, 3, 6))
    chat = np.stack([rng.integers(0, 2, 4, dtype=np.uint8) for _ in range(3)])
    out1 = aggregate(l, cmap, chat=chat)
    out2 = aggregate(2.5 * l, cmap, chat=chat)
    assert np.allclose(out2, 2.5 * out1)


@pytest.mark.parametrize("m", [1, 2, 4, 7, 8])
def test_aggregate_equals_the_per_map_loop(m, monkeypatch):
    # stacked sum == 0 + term_1 + term_2 + ..., bit for bit, in float32 and
    # float64, for signs from decoded projection bits and from the decoded
    # forms that give those bits, in the layout the table picks for the
    # rows and, from 2 rows, in each layout; one row at m = 8 and 144 maps
    # sums in map order only in the row-major layout
    rng = np.random.default_rng(m)
    n = 1 << m
    table = geometry.ROW_MAJOR_ROWS
    for k in [144] if m == 8 else sorted({1, max(1, n // 3), n - 1}):
        indices = sorted(rng.choice(np.arange(1, n), size=k,
                                    replace=False).tolist())
        cmap = stack(m, indices)
        i, h = top_bits(indices)
        for dtype, rows in itertools.product((np.float32, np.float64),
                                             (0, 1, 2, 8, 42)):
            l = (rng.normal(size=(rows, n)) * 4).astype(dtype)
            chat = rng.integers(0, 2, (rows, k, n // 2), dtype=np.uint8)
            # first-order forms on F_2^(m-1), lifted to F_2^m
            decoded = (rng.integers(0, n // 2, (rows, k))
                       + (n // 2) * rng.integers(0, 2, (rows, k)))
            forms = _lift(decoded, h, i)
            for bits, decoded_input in [
                    (chat, {"chat": chat}),
                    (_form_table(m - 1, np.uint8)[decoded], {"forms": forms})]:
                want = aggregate_per_map(l, m, indices, bits)
                assert want.dtype == dtype
                for cutoff in [table] + ([(0,) * 6, (rows,) * 6]
                                         if rows > 1 else []):
                    monkeypatch.setattr(geometry, "ROW_MAJOR_ROWS", cutoff)
                    got = aggregate(l, cmap, **decoded_input)
                    assert got.dtype == dtype
                    assert np.array_equal(got, want), (k, dtype, rows,
                                                       cutoff)
                monkeypatch.setattr(geometry, "ROW_MAJOR_ROWS", table)
                if rows:
                    assert np.array_equal(
                        aggregate(l[-1], cmap, chat=bits[-1]), want[-1])


def test_one_row_is_aggregated_row_major_at_every_m():
    assert all(cutoff >= 1 for cutoff in geometry.ROW_MAJOR_ROWS)
    for m in range(1, 13):
        assert not geometry._coordinates_first(1, 1 << m)
        assert geometry._coordinates_first(128, 1 << m)


def test_stacked_maps_are_the_single_maps_with_offset_cosets():
    # a few maps, then every map of each small m
    cases = [(4, (3, 5, 15))] + [(m, tuple(range(1, 1 << m)))
                                 for m in range(1, 6)]
    for m, indices in cases:
        stacked = stack(m, indices)
        # the partner of coordinate 0 is i, and of z, z ^ i
        i = stacked.partners[:, :1]
        assert tuple(i[:, 0]) == indices
        partner_of = np.arange(1 << m) ^ i
        for t, i_t in enumerate(indices):
            single = build_coset_map(m, i_t)
            assert np.array_equal(stacked.reps[t], single.reps)
            assert np.array_equal(stacked.partners[t], single.partners)
            assert np.array_equal(partner_of[t], single.partner_of)
            # each map numbers its own cosets, so row slices are stacks
            assert np.array_equal(stacked.coset_of[t], single.coset_of)
        l = np.random.default_rng(3).normal(size=(2, 1 << m))
        assert np.array_equal(project_llr(l, stacked), np.stack(
            [project_llr(l, build_coset_map(m, i)) for i in indices], axis=1))


MAP_FIELDS = ("reps", "partners", "coset_of")


@pytest.mark.parametrize("m", range(1, 9))
def test_strided_maps_are_rows_of_the_coset_table(m):
    # every strided set the pruning rule can keep, as a basic slice of the
    # one table of m, equals the maps built for its indices by a mask; the
    # partners z ^ i of every coordinate are not stored, and the runs of
    # them start at the multiples of 2^b
    n = 1 << m
    table = coset_table(m)
    masked = mask_coset_maps(m, range(1, n))
    for count in range(1, n):
        indices = select_projection_indices(n, count)
        rows = slice(indices.start - 1, indices.stop - 1, indices.step)
        view = table[rows]
        for name in MAP_FIELDS + ("partner_of_runs",):
            assert np.shares_memory(getattr(view, name),
                                    getattr(table, name))
        for name in MAP_FIELDS:
            assert np.array_equal(getattr(view, name),
                                  getattr(masked, name)[rows])
        partner_of = masked.partner_of[rows]
        assert np.array_equal(np.arange(n) ^ view.partners[:, :1], partner_of)
        assert np.array_equal(view.partner_of_runs,
                              partner_of[:, ::1 << geometry._run_bits(m)])


def test_building_the_coset_table_holds_little_besides_it():
    # the table is filled a block of maps at a time, not through full-size
    # temporaries: built in one piece, the lifts alone held 17 MB of
    # temporaries beside their 2 MB
    tracemalloc.start()
    try:
        table = coset_table.__wrapped__(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in vars(table).values())
    # uint16 fields: 4 n bytes of maps, n/2 of runs (runs of 8 values) and
    # 2 n of lifts per map, a quarter of intp's
    assert table.lifts.nbytes == 2 * 1024 * 1023
    assert size == 6.5 * 1024 * 1023 == 6_809_088
    # a block's intp fields and drop_bit's low bits, 2.36 budgets measured
    assert peak <= size + 2.5 * rmpa.fod.BUILD_BYTES
    assert not any(a.flags.writeable for a in vars(table).values())


@pytest.mark.parametrize("m", range(1, 11))
def test_each_map_field_is_held_in_the_narrowest_dtype(m):
    table = coset_table(m)
    for name, field in vars(table).items():
        assert field.dtype == np.min_scalar_type(int(field.max())), name
    # the lifts are forms on F_2^m, f = b + 2^m * u0, in [0, 2n)
    assert table.lifts.max() < 2 << m


def arrays_in(value):
    """The numpy arrays that value holds, through tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(value):
        for item in vars(value).values():
            yield from arrays_in(item)


# a call of each lru_cache'd helper of rmpa, and whether it hands out arrays
CACHED_CALLS = {
    "geometry._xor_index": ((5,), True),
    "geometry.coset_table": ((5,), True),
    "fod._form_table": ((4, np.float32), True),
    "fod._band_keys": ((64,), True),
    "fod._chunks": ((10, 256, 1, 1 << 18), False),
    "decoder._stacked_maps": ((5, range(1, 32, 3)), True),
    "decoder._map_chunks": ((5, range(1, 32, 3), 4, 1 << 18), True),
    "geometry._row_tiles": ((4, 64, 7, 4, True, 1 << 18), False),
    "decoder._shared_quotients": ((6, range(1, 64, 2), range(1, 32, 3)),
                                  True),
    "decoder.decode_plan": ((CodeParams(6, 3), preset("rpa")), False),
}


def cached_helper(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"rmpa.{module}"), attr)


def test_every_cached_array_is_read_only():
    # a cache hands the same arrays to every caller, so a writable one
    # would be a buffer that one decode could change under the next
    modules = [importlib.import_module(f"rmpa.{path.stem}")
               for path in Path(rmpa.__file__).parent.glob("*.py")]
    cached = {id(value) for module in modules
              for value in vars(module).values()
              if hasattr(value, "cache_info")}
    assert cached == {id(cached_helper(name)) for name in CACHED_CALLS}
    for name, (args, hands_out_arrays) in CACHED_CALLS.items():
        arrays = list(arrays_in(cached_helper(name)(*args)))
        assert bool(arrays) == hands_out_arrays, name
        assert not any(a.flags.writeable for a in arrays), name
    assert not _form_table(4, np.uint8).flags.writeable


@pytest.mark.parametrize("m, rows, count", [
    (8, 14, 144),   # the headline's level 3: row-major, tiles of z and rows
    (9, 1, 511),    # one row whose signs exceed the budget: runs of z
    (7, 42, 96),    # the headline's level 2: coordinates first
    (5, 101, 31),   # coordinates first, blocks of rows
])
def test_the_kernel_budget_changes_no_bit_of_a_kernel(m, rows, count,
                                                      monkeypatch):
    # every map goes into each sum in the order of the stack, whatever the
    # tiles, so the projections and the aggregations of bits and of forms
    # keep every bit with one item a chunk and with all in one
    n = 1 << m
    rng = np.random.default_rng(m)
    l = (rng.normal(size=(rows, n)) * 3).astype(np.float32)
    cmap = stack(m, select_projection_indices(n, count))
    chat = rng.integers(0, 2, (rows, count, n // 2), dtype=np.uint8)
    forms = rng.integers(0, 2 * n, (rows, count)).astype(np.uint16)

    def kernels():
        return [project_llr(l, cmap), project_llr(l[:1], cmap),
                aggregate(l, cmap, chat=chat), aggregate(l, cmap, forms=forms)]

    expected = kernels()
    for build_bytes in (1, 1 << 40):
        monkeypatch.setattr(rmpa.fod, "BUILD_BYTES", build_bytes)
        for got, want in zip(kernels(), expected):
            assert np.array_equal(bit_pattern(got), bit_pattern(want))


def test_the_level_3_aggregation_holds_budget_sized_tiles():
    # 14 rows of the headline's top node through 144 maps of n = 256: the
    # signs and the partner LLRs were 2 MB each, and the coset index 295 KB
    m, rows, count = 8, 14, 144
    n = 1 << m
    rng = np.random.default_rng(3)
    l = rng.normal(size=(rows, n)).astype(np.float32)
    cmap = stack(m, select_projection_indices(n, count))
    chat = rng.integers(0, 2, (rows, count, n // 2), dtype=np.uint8)
    aggregate(l, cmap, chat=chat)
    tracemalloc.start()
    try:
        out = aggregate(l, cmap, chat=chat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * rmpa.fod.BUILD_BYTES


def test_a_block_of_bits_is_laid_out_coordinates_first_once():
    # 14 rows through 500 maps of n = 1,024 go coordinates first, in blocks
    # of rows whose bits, k * n/2 bytes a row, are copied into columns once:
    # copied again for every run of z, they peak at 6.2 times the budget
    m, rows, count = 10, 14, 500
    n = 1 << m
    rng = np.random.default_rng(5)
    l = rng.normal(size=(rows, n)).astype(np.float32)
    cmap = stack(m, select_projection_indices(n, count))
    chat = rng.integers(0, 2, (rows, count, n // 2), dtype=np.uint8)
    assert geometry._coordinates_first(rows, n)
    aggregate(l, cmap, chat=chat)
    tracemalloc.start()
    try:
        out = aggregate(l, cmap, chat=chat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 5.5 * rmpa.fod.BUILD_BYTES
