"""Fast Hadamard transform and ML decoding of first-order RM(m, 1) codes.

The transform is a chain of products with the +-1 Hadamard matrix of at
most RADIX_M bits.  The decoder returns the decoded affine form (form_bits
gives its codeword) and ties spectrum magnitudes that agree to within a
band below the max, so that decoded forms do not depend on the order in
which the matrix product sums.  Both compute in their input's float dtype
(float_array): float32 stays float32, as the decode walk feeds them, and
anything else is float64.  The band is per dtype: TIE_RTOL = 1e-12 for
float64 and TIE_RTOL_FLOAT32, 64 float32 eps (7.6e-6), for float32.  One
call to fht_decode is one "first-order decoding" (FOD) per row, the unit in
which decoder complexity is counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass
class FodCounter:
    """Monotone tally of first-order decodings, broken down by the size
    exponent m' of the decoded subcode.  A counter belongs to one decode
    or one sweep chunk and is not shared between threads."""

    total: int = 0
    per_level: dict = field(default_factory=dict)

    def record(self, level: int, count: int = 1) -> None:
        self.total += count
        self.per_level[level] = self.per_level.get(level, 0) + count

    def snapshot(self) -> "FodCounter":
        return FodCounter(total=self.total, per_level=dict(self.per_level))


# the most bits of z that one product with the +-1 Hadamard matrix
# transforms
RADIX_M = 6
# relative band below max|W| within which a spectrum magnitude ties with
# the max: BLAS kernels sum in their own order, so a tie may come out
# unequal by rounding.  float64 spectra get TIE_RTOL, about 4,500 eps.
# float32 spectra came out within 5 eps of the float64 spectra of the same
# inputs, relative to max|W|: those the decode walk takes on RM(7,2),
# RM(8,3) and RM(10,2), and +-v rows for m 2-11.  Two tied magnitudes thus
# round at most 10 eps apart, and the float32 band is 64 eps.
TIE_RTOL = 1e-12
TIE_RTOL_FLOAT32 = 64 * float(np.finfo(np.float32).eps)


def float_array(values) -> np.ndarray:
    """values as an array of the float dtype the kernels compute in:
    float32 stays float32, anything else becomes float64."""
    x = np.asarray(values)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _spectra(batch: np.ndarray) -> np.ndarray:
    """The spectra of the rows of a (rows, 2^m) batch as the columns of a
    (2^m, rows) array in batch's dtype.  A product with the 2^c x 2^c +-1
    Hadamard matrix transforms c bits of z, at 2^c multiply-adds per value
    but in one BLAS call: up to RADIX_M bits one product over the transposed
    batch, whose columns come out C-ordered.  Above it the fewest digits of
    at most RADIX_M bits, as equal as can be and the widest lowest (4 + 3
    bits for m = 7 measured faster than 6 + 1), are each transformed row by
    row, as products over a transposed operand would cost more; the
    columns are then a transpose."""
    rows, n = batch.shape
    m = n.bit_length() - 1
    if m <= RADIX_M:
        return _form_table(m, batch.dtype)[:n] @ batch.T
    k = -(-m // RADIX_M)
    digits = [m // k + (i < m % k) for i in range(k)]
    done = digits[0]
    out = batch.reshape(-1, 1 << done) @ _form_table(done, batch.dtype)[
        :1 << done]
    for c in digits[1:]:
        out = np.matmul(_form_table(c, batch.dtype)[:1 << c],
                        out.reshape(-1, 1 << c, 1 << done))
        done += c
    return out.reshape(rows, n).T


def _read_only(*arrays) -> tuple:
    """arrays, made read-only: caches hand them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


# A form f = b + 2^m * u0 names the codeword u0 ^ <b, z> on F_2^m, whose
# bits or signs (-1)^bit are row f of the form table [H; H ^ 1] of m bits.
# The largest m whose form table, 2^(2m + 1) entries, is kept whole:
FORM_TABLE_M = 8


@lru_cache(maxsize=None)
def _form_table(m: int, dtype) -> np.ndarray:
    """The form table of m bits, read-only: bits if dtype is uint8, else
    signs in dtype."""
    if dtype != np.uint8:
        return _read_only((1.0 - 2.0 * _form_table(m, np.uint8))
                          .astype(dtype))[0]
    bits = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(m):
        # a new top bit of b and of z flips <b, z> where both are 1
        bits = np.block([[bits, bits], [bits, bits ^ 1]])
    return _read_only(np.concatenate([bits, bits ^ 1]))[0]


def _form_factors(forms: np.ndarray, m: int, dtype, low: int) -> tuple:
    """The rows of the forms on F_2^m over the high m - low bits of z and
    over its low `low` bits, shapes forms.shape + (2^(m - low),) and
    forms.shape + (2^low,): bits for uint8, signs for the LLRs' float
    dtype.  The high row is that of the form shifted down, with u0, and
    the low row that of its low bits, with u0 = 0, so that the form's row
    over z is their xor, or product."""
    return (_form_rows(forms >> low, m - low, dtype),
            np.take(_form_table(low, dtype), forms & ((1 << low) - 1),
                    axis=0))


def _form_rows(forms: np.ndarray, m: int, dtype) -> np.ndarray:
    """The rows of the forms on F_2^m in the form table of dtype, shape
    forms.shape + (2^m,): bits for uint8, signs for the LLRs' float dtype.
    Above FORM_TABLE_M bits a row is the combination of its _form_factors
    over the high bits of z and the low FORM_TABLE_M bits."""
    if m <= FORM_TABLE_M:
        return np.take(_form_table(m, dtype), forms, axis=0)
    high, low = _form_factors(forms, m, dtype, FORM_TABLE_M)
    combine = np.bitwise_xor if dtype == np.uint8 else np.multiply
    return combine(high[..., :, None], low[..., None, :]).reshape(
        forms.shape + (1 << m,))


def form_bits(forms: np.ndarray, m: int) -> np.ndarray:
    """The codewords u0 ^ <b, z> of forms f = b + 2^m * u0 on F_2^m, as
    fht_decode returns them, on a last axis of length 1: their bits, for
    z in [0, 2^m), take that axis, shape forms.shape[:-1] + (2^m,)."""
    return _form_rows(np.squeeze(forms, axis=-1), m, np.uint8)


@lru_cache(maxsize=None)
def _band_keys(n: int) -> tuple:
    """The column of 2 * (n - a) over the a of n-point spectra, and the
    form a + n * u0 named by each key 2 * (n - a) + u0; read-only."""
    key = np.arange(2 * n + 2)
    return _read_only(key[2 * n:0:-2, None].astype(
        np.min_scalar_type(2 * n + 1)), n - (key >> 1) + n * (key & 1))


def fht_decode(l: np.ndarray, counter: FodCounter | None = None) -> np.ndarray:
    """ML decoding of RM(m', 1) by Walsh-spectrum argmax.

    Returns the decoded form f = a* + 2^m' * u0 of each vector, shape
    l.shape[:-1] + (1,), with the codeword u0 ^ <a*, z> (form_bits).  a* is
    the smallest a whose |W[a]| is within the tie band of max|W|, so that
    ties, exact or broken by rounding, go to the smallest a, and u0 = 1 iff
    W[a*] < 0.  The band is TIE_RTOL_FLOAT32 for float32 l and TIE_RTOL for
    any other, which is decoded in float64.  The search runs across the
    spectra, as columns of one array.  Counts one FOD per vector.
    """
    l = float_array(l)
    rtol = TIE_RTOL_FLOAT32 if l.dtype == np.float32 else TIE_RTOL
    n = l.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    w = _spectra(l.reshape(-1, n))
    # the signs of the spectra, then their magnitudes in their place
    neg = w < 0
    mag = np.abs(w, out=w)
    # |W| orders as its bits do, and an integer max is the faster one
    peak = mag.view(f"i{mag.itemsize}").max(axis=0).view(mag.dtype)
    peak *= 1.0 - rtol
    # a* has the largest key, 2 * (n - a) + (W[a] < 0) in the band and at
    # most 1 outside it
    countdown, form_of_key = _band_keys(n)
    key = (mag >= peak) * countdown
    key += neg.view(np.uint8)
    forms = form_of_key.take(key.max(axis=0))
    if counter is not None:
        counter.record(n.bit_length() - 1, count=mag.shape[1])
    return forms.reshape(l.shape[:-1] + (1,))
