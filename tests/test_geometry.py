import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (aggregate_per_map, boxplus, build_coset_map,
                     coset_signs_per_map, in_row_space_batch, is_codeword,
                     mask_coset_maps, project_hard, project_per_map)
from rmpa import (CodeParams, LLR_CLAMP, aggregate, build_generator,
                  coset_signs, encode, project_llr, stack_coset_maps)
from rmpa import geometry
from rmpa.decoder import _lift, select_projection_indices
from rmpa.fod import _form_table
from rmpa.geometry import clamp_llr, coset_table, form_signs, top_bits


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
    for build in (build_coset_map, lambda m, i: stack_coset_maps(m, [i])):
        with pytest.raises(ValueError):
            build(3, 0)
        with pytest.raises(ValueError):
            build(3, 8)


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
    return l, stack_coset_maps(m, indices)


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
             (stack_coset_maps(m, [7]), [7]), (build_coset_map(m, 7), None)]
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
        got = project_llr(l, stack_coset_maps(m, indices))
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
    """Index sets of F_2^m as stack_coset_maps takes them: one map, all
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
    return m, indices, l.astype(dtype), chat


@settings(max_examples=100, deadline=None)
@given(kernel_inputs())
def test_the_kernels_equal_the_per_map_loops_bit_for_bit(inputs):
    # whatever their gathers, the projection, the coset signs and the
    # aggregation give each map's own values: row-major through the maps'
    # XOR structure, more rows coordinates first
    m, indices, l, chat = inputs
    n = 1 << m
    cmap = stack_coset_maps(m, indices)
    got = project_llr(l, cmap)
    signs = coset_signs(cmap, chat, l.dtype)
    aggregated = aggregate(l, cmap, signs)
    assert got.dtype == aggregated.dtype == l.dtype
    assert np.array_equal(bit_pattern(got),
                          bit_pattern(project_per_map(l, m, indices)))
    want = coset_signs_per_map(m, indices, chat, l.dtype)
    if geometry._coordinates_first(len(l), n):
        want = want.transpose(2, 1, 0)
    assert np.array_equal(bit_pattern(signs), bit_pattern(want))
    assert np.array_equal(bit_pattern(aggregated), bit_pattern(
        aggregate_per_map(l, m, indices, chat)))


@pytest.mark.parametrize("rows", [1, 3])
def test_project_llr_raises_on_an_index_outside_the_llrs(rows):
    # one row is gathered unchecked through a CosetMap of the LLRs'
    # length; index arrays of any other kind, and maps built for longer
    # vectors, are checked, with one row as with several
    m = 4
    l = np.random.default_rng(9).normal(size=(rows, 1 << m)) * 4
    table = coset_table(m)
    pairs = SimpleNamespace(reps=table.reps.copy(),
                            partners=table.partners.copy())
    assert np.array_equal(project_llr(l, table), project_llr(l, pairs))
    pairs.partners[2, 5] = 1 << m
    with pytest.raises(IndexError):
        project_llr(l, pairs)
    with pytest.raises(IndexError):
        project_llr(l, stack_coset_maps(m + 1, [1, 17, 31]))


def test_project_llr_takes_any_finite_llr_without_a_warning():
    # exp(-|l|) alone underflows to 0 past |l| = 745, and log(0) warns;
    # LLRs beyond the clamp project as the clamped LLRs do
    cmap = stack_coset_maps(2, [1, 2, 3])
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


def test_a_zero_llr_projects_to_zero():
    cmap = stack_coset_maps(3, range(1, 8))
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
    cmap = stack_coset_maps(2, [1])
    zero_bits = np.zeros((1, 2), dtype=np.uint8)
    out = aggregate(l, cmap, coset_signs(cmap, zero_bits))
    # decoded coset bit 0 passes the partner LLR through
    assert out.tolist() == [2.0, 1.0, 4.0, 3.0]
    out = aggregate(l, cmap,
                    coset_signs(cmap, np.ones((1, 2), dtype=np.uint8)))
    assert out.tolist() == [-2.0, -1.0, -4.0, -3.0]


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate(np.zeros(4), stack_coset_maps(2, []), np.zeros((0, 2)))


def test_aggregate_rejects_bits_that_do_not_fit_the_maps():
    cmap = stack_coset_maps(3, [1, 2])
    with pytest.raises(ValueError, match="do not match"):
        coset_signs(cmap, np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="do not match"):
        aggregate(np.zeros(8), cmap, np.ones((2, 4)))


def test_aggregate_noiseless_reproduces_codeword():
    p = CodeParams(3, 2)
    gen = build_generator(p)
    cmap = stack_coset_maps(p.m, range(1, p.n))
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
        l = 20.0 * (1.0 - 2.0 * c)
        out = aggregate(l, cmap, coset_signs(cmap, project_hard(c, cmap)))
        assert np.array_equal((out < 0).astype(np.uint8), c)


def test_aggregate_linear_in_magnitude():
    rng = np.random.default_rng(9)
    l = rng.normal(size=8)
    cmap = stack_coset_maps(3, (1, 3, 6))
    chat = np.stack([rng.integers(0, 2, 4, dtype=np.uint8) for _ in range(3)])
    out1 = aggregate(l, cmap, coset_signs(cmap, chat))
    out2 = aggregate(2.5 * l, cmap, coset_signs(cmap, chat))
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
        cmap = stack_coset_maps(m, indices)
        i, h = top_bits(indices)
        for dtype, rows in itertools.product((np.float32, np.float64),
                                             (0, 1, 2, 8, 42)):
            l = (rng.normal(size=(rows, n)) * 4).astype(dtype)
            chat = rng.integers(0, 2, (rows, k, n // 2), dtype=np.uint8)
            # first-order forms on F_2^(m-1), lifted to F_2^m
            decoded = (rng.integers(0, n // 2, (rows, k))
                       + (n // 2) * rng.integers(0, 2, (rows, k)))
            forms = _lift(decoded, h, i)
            for bits, signs in [
                    (chat, lambda: (coset_signs(cmap, chat, dtype),)),
                    (_form_table(m - 1, np.uint8)[decoded],
                     lambda: form_signs(forms, m, dtype))]:
                want = aggregate_per_map(l, m, indices, bits)
                assert want.dtype == dtype
                for cutoff in [table] + ([(0,) * 6, (rows,) * 6]
                                         if rows > 1 else []):
                    monkeypatch.setattr(geometry, "ROW_MAJOR_ROWS", cutoff)
                    got = aggregate(l, cmap, *signs())
                    assert got.dtype == dtype
                    assert np.array_equal(got, want), (k, dtype, rows,
                                                       cutoff)
                monkeypatch.setattr(geometry, "ROW_MAJOR_ROWS", table)
                if rows:
                    assert np.array_equal(aggregate(
                        l[-1], cmap, coset_signs(cmap, bits[-1], dtype)),
                        want[-1])


def test_one_row_is_aggregated_row_major_at_every_m():
    assert all(cutoff >= 1 for cutoff in geometry.ROW_MAJOR_ROWS)
    for m in range(1, 13):
        assert not geometry._coordinates_first(1, 1 << m)
        assert geometry._coordinates_first(128, 1 << m)


def test_aggregate_rejects_sign_factors_that_do_not_fit_the_maps():
    cmap = stack_coset_maps(4, [1, 2])
    l = np.zeros((64, 16))
    with pytest.raises(ValueError, match="do not match"):
        aggregate(l, cmap, np.ones((16, 2, 63)))
    with pytest.raises(ValueError, match="do not match"):
        aggregate(l, cmap, np.ones((4, 2, 64)), np.ones((2, 2, 64)))
    assert aggregate(l, cmap, np.ones((4, 2, 64)),
                     np.ones((4, 2, 64))).shape == l.shape
    for rows in (1, 64):
        with pytest.raises(ValueError, match="do not match maps"):
            aggregate(np.zeros((rows, 8)), cmap, np.ones((rows, 2, 8)))


def test_stacked_maps_are_the_single_maps_with_offset_cosets():
    # a few maps, then every map of each small m
    cases = [(4, (3, 5, 15))] + [(m, tuple(range(1, 1 << m)))
                                 for m in range(1, 6)]
    for m, indices in cases:
        stacked = stack_coset_maps(m, indices)
        # the partner of coordinate 0 is i
        assert tuple(stacked.partner_of[:, 0]) == indices
        for t, i in enumerate(indices):
            single = build_coset_map(m, i)
            assert np.array_equal(stacked.reps[t], single.reps)
            assert np.array_equal(stacked.partners[t], single.partners)
            assert np.array_equal(stacked.partner_of[t], single.partner_of)
            # each map numbers its own cosets, so row slices are stacks
            assert np.array_equal(stacked.coset_of[t], single.coset_of)
        l = np.random.default_rng(3).normal(size=(2, 1 << m))
        assert np.array_equal(project_llr(l, stacked), np.stack(
            [project_llr(l, build_coset_map(m, i)) for i in indices], axis=1))


MAP_FIELDS = ("reps", "partners", "coset_of", "partner_of")


@pytest.mark.parametrize("m", range(1, 9))
def test_strided_maps_are_rows_of_the_coset_table(m):
    # every strided set the pruning rule can keep, as a basic slice of the
    # one table of m, equals the maps built for its indices by the bit rule
    # and by a mask
    n = 1 << m
    table = coset_table(m)
    masked = mask_coset_maps(m, range(1, n))
    for count in range(1, n):
        indices = select_projection_indices(n, count)
        rows = slice(indices.start - 1, indices.stop - 1, indices.step)
        view = table[rows]
        built = stack_coset_maps(m, list(indices))
        for name in MAP_FIELDS:
            got = getattr(view, name)
            assert np.shares_memory(got, getattr(table, name))
            assert np.array_equal(got, getattr(built, name))
            assert np.array_equal(got, getattr(masked, name)[rows])


def test_building_the_coset_table_holds_little_besides_it():
    # the table is filled a block of maps at a time, not through full-size
    # temporaries
    tracemalloc.start()
    try:
        table = stack_coset_maps(10, range(1, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in vars(table).values())
    # 24 n bytes of maps and 2 n of runs (runs of 8 values) per map
    assert size == 26 * 1024 * 1023
    assert peak <= 1.1 * size
    assert not any(a.flags.writeable for a in vars(table).values())
