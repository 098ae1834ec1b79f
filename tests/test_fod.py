import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boxplus, fht, fht_butterfly, fod_bits, ml_decode_oracle
from rmpa import CodeParams, FodCounter, fht_decode, form_bits
from rmpa.fod import TIE_RTOL, TIE_RTOL_FLOAT32


def naive_wht(values):
    """O(n^2) Walsh-Hadamard oracle: out[a] = sum_z (-1)^<a,z> v[z]."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    out = np.zeros(n)
    for a in range(n):
        for z in range(n):
            sign = -1.0 if bin(a & z).count("1") % 2 else 1.0
            out[a] += sign * v[z]
    return out


def test_fht_delta_to_constant():
    assert fht([1.0, 0.0, 0.0, 0.0]).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_fht_constant_to_delta():
    assert fht([1.0, 1.0, 1.0, 1.0]).tolist() == [4.0, 0.0, 0.0, 0.0]


def test_fht_four_point_against_naive_oracle():
    v = [3.0, 1.0, 4.0, 1.0]
    expected = naive_wht(v)
    assert expected.tolist() == [9.0, 5.0, -1.0, -1.0]
    assert fht(v).tolist() == expected.tolist()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fht_matches_naive_oracle_random(m):
    rng = np.random.default_rng(m)
    v = rng.normal(size=2 ** m)
    assert np.allclose(fht(v), naive_wht(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_fht_involution(m, seed):
    v = np.random.default_rng(seed).normal(size=2 ** m)
    assert np.allclose(fht(fht(v)), 2 ** m * v)


def butterfly(values):
    """The reference transform along the last axis, in values' float
    dtype."""
    x = np.asarray(values)
    return np.moveaxis(fht_butterfly(np.moveaxis(x, -1, 0)), 0, -1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 14), st.lists(st.integers(1, 3), max_size=2),
       st.integers(0, 2 ** 31 - 1))
def test_fht_matches_the_butterfly(m, lead, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=tuple(lead) + (2 ** m,)) * rng.choice([1e-3, 1, 1e3])
    got = fht(x)
    assert got.shape == x.shape
    tol = 1e-13 * np.abs(x).max() * 2 ** m
    assert np.abs(got - butterfly(x)).max() <= tol
    # the same rows held as columns, as the decode walk hands them on
    cols = np.asfortranarray(x.reshape(-1, 2 ** m))
    assert np.abs(fht(cols) - butterfly(cols)).max() <= tol


@pytest.mark.parametrize("values", [[1e308, 1e308], [np.inf, np.inf]])
def test_fht_warns_on_overflow_and_inf_minus_inf(values):
    with pytest.warns(RuntimeWarning):
        fht(values)


def test_fht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fht([1.0, 2.0, 3.0])


def test_fht_decode_all_positive():
    out = fod_bits(np.full(8, 10.0))
    assert np.all(out == 0)


def test_fht_decode_single_linear_form():
    out = fod_bits(np.array([5.0, 5.0, -5.0, -5.0]))
    assert out.tolist() == [0, 0, 1, 1]


def test_fht_decode_matches_ml_oracle():
    p = CodeParams(3, 1)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        llr = rng.normal(size=8)
        assert np.array_equal(fod_bits(llr), ml_decode_oracle(llr, p))


def test_fht_decode_correlation_is_spectrum_max():
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        for _ in range(50):
            llr = rng.normal(size=2 ** m)
            c = fod_bits(llr)
            corr = np.dot(1.0 - 2.0 * c, llr)
            assert corr == pytest.approx(np.max(np.abs(fht(llr))), rel=1e-12)


def test_fht_decode_tie_rule():
    # |W| ties at a=0 and a=2 (both +2): smallest transform index wins
    llr = np.array([1.0, 1.0, 0.0, 0.0])
    w = fht(llr)
    assert np.abs(w).max() == w[0] == w[2]
    assert fod_bits(llr).tolist() == [0, 0, 0, 0]


def tie_band_decode(rows, band=TIE_RTOL):
    """fht_decode's rule on the butterfly spectrum: a* is the smallest a
    with |W[a]| within band of max|W|."""
    w = butterfly(rows)
    mag = np.abs(w)
    a_star = np.argmax(mag >= mag.max(axis=1, keepdims=True)
                       * (1 - band), axis=1)
    z = np.arange(rows.shape[1])
    bits = np.array([[bin(a & zz).count("1") % 2 for zz in z]
                     for a in a_star], dtype=np.uint8)
    return bits ^ (w[np.arange(len(w)), a_star] < 0)[:, None]


def saturated_rows(m, count, seed):
    """Random signs times v = 30 [+] 30, as a projection of a saturated
    row gives: many spectrum magnitudes are equal up to rounding."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0],
                                               size=(count, 2 ** m))
    return signs * boxplus(30.0, 30.0)


@pytest.mark.parametrize("m", [2, 4, 6, 7])
def test_ties_at_rounding_level_go_to_the_smallest_index(m):
    rows = saturated_rows(m, 400, seed=m)
    assert np.array_equal(fod_bits(rows), tie_band_decode(rows))


@pytest.mark.parametrize("m", [2, 4, 6, 7, 9, 11])
def test_float32_ties_at_rounding_level_go_to_the_smallest_index(m):
    # the float32 rows of the walk: every |W[a]| is a multiple of the
    # float32 v, and the float32 band catches the rounding of equal ones
    rows = saturated_rows(m, 400 if m < 9 else 40, seed=m).astype(np.float32)
    assert np.array_equal(fod_bits(rows),
                          tie_band_decode(rows, TIE_RTOL_FLOAT32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", range(1, 13))
def test_decoded_forms_name_the_tie_band_codewords(m, dtype):
    # Gaussian rows and +-v rows, whose spectra tie at rounding level
    count = max(8, 2048 >> m)
    rng = np.random.default_rng(m)
    rows = np.concatenate([rng.normal(size=(count, 2 ** m)) * 3,
                           saturated_rows(m, count, seed=m)]).astype(dtype)
    band = TIE_RTOL_FLOAT32 if dtype == np.float32 else TIE_RTOL
    forms = fht_decode(rows)
    assert forms.shape == (2 * count, 1)
    assert np.array_equal(form_bits(forms, m), tie_band_decode(rows, band))
    stacked = fht_decode(rows.reshape(2, count, 2 ** m))
    assert np.array_equal(stacked, forms.reshape(2, count, 1))
    for row in rows[::count]:
        assert np.array_equal(fht_decode(row), fht_decode(row[None])[0])
        assert fht_decode(row).shape == (1,)


def test_the_float32_band_is_sized_from_float32_eps():
    eps = np.finfo(np.float32).eps
    assert TIE_RTOL == 1e-12
    assert 16 * eps <= TIE_RTOL_FLOAT32 <= 128 * eps


def test_decoded_bits_do_not_depend_on_the_batch_size():
    # BLAS may pick another kernel, and sum in another order, per shape
    rng = np.random.default_rng(8)
    rows = np.concatenate([saturated_rows(6, 1000, seed=9),
                           rng.normal(size=(1016, 64)) * 3])
    # integer rows tie exactly
    rows[::5] = np.round(rows[::5])
    whole = fht_decode(rows)
    assert len(whole) == 2016
    for size in (1, 7, 127):
        parts = [fht_decode(rows[i:i + size])
                 for i in range(0, len(rows), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_float32_decoded_bits_do_not_depend_on_the_batch_size():
    rng = np.random.default_rng(8)
    rows = np.concatenate([saturated_rows(6, 1000, seed=9),
                           rng.normal(size=(1016, 64)) * 3])
    rows[::5] = np.round(rows[::5])
    rows = rows.astype(np.float32)
    whole = fht_decode(rows)
    for size in (1, 7, 127):
        parts = [fht_decode(rows[i:i + size])
                 for i in range(0, len(rows), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_counter_increments_once_per_call():
    counter = FodCounter()
    rng = np.random.default_rng(0)
    fht_decode(rng.normal(size=8), counter)
    fht_decode(rng.normal(size=8), counter)
    fht_decode(rng.normal(size=4), counter)
    assert counter.total == 3
    assert counter.per_level == {3: 2, 2: 1}
    assert counter.total == sum(counter.per_level.values())


def test_counter_batch_counts_each_row():
    counter = FodCounter()
    rng = np.random.default_rng(1)
    fht_decode(rng.normal(size=(17, 8)), counter)
    assert counter.total == 17


def test_batched_decode_matches_single():
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(40, 16))
    got = fht_decode(batch)
    for row_in, row_out in zip(batch, got):
        assert np.array_equal(fht_decode(row_in), row_out)


def test_decoded_rows_past_the_whole_hadamard_table(monkeypatch):
    # above FORM_TABLE_M bits a row is built from two smaller tables
    rng = np.random.default_rng(5)
    llrs = {m: rng.normal(size=(20, 2 ** m)) for m in (3, 5, 7)}
    expected = {m: fod_bits(x) for m, x in llrs.items()}
    monkeypatch.setattr("rmpa.fod.FORM_TABLE_M", 2)
    for m, x in llrs.items():
        assert np.array_equal(fod_bits(x), expected[m])


def test_fht_decode_memory_stays_linear_in_n():
    llr = np.random.default_rng(6).normal(size=2 ** 14)
    tracemalloc.start()
    try:
        bits = fod_bits(llr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert np.array_equal(bits, fod_bits(llr[None, :])[0])
