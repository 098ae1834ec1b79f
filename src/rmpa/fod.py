"""Fast Hadamard transform and ML decoding of first-order RM(m, 1) codes.

The transform is a chain of products with small +-1 Hadamard matrices:
of at most CHAIN_M bits over a batch held as columns, as the decode walk
hands on several rows' projections, and of at most RADIX_M bits over a
batch held as rows.  The decoder returns the decoded affine form (form_bits
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
# transforms in a batch held as rows, and in a batch held as columns
RADIX_M = 6
CHAIN_M = 4
# relative band below max|W| within which a spectrum magnitude ties with
# the max: BLAS kernels sum in their own order, so a tie may come out
# unequal by rounding.  float64 spectra get TIE_RTOL, about 4,500 eps.
# float32 spectra came out within 6 eps of the float64 spectra of the same
# inputs, relative to max|W|: within 3 eps from the chain over columns (the
# walk's several-row batches on RM(7,2), RM(8,3) and RM(9,2), and Gaussian
# and +-v columns for m 6-12), and within 6 eps from the products over rows
# (the one-row walk: 4.2 on RM(7,2), 3.6 on RM(11,2), 6.0 on RM(8,3)'s
# shared-step blocks).  Two tied magnitudes thus round at most 12 eps
# apart, and the float32 band is 64 eps.
TIE_RTOL = 1e-12
TIE_RTOL_FLOAT32 = 64 * float(np.finfo(np.float32).eps)


def float_array(values) -> np.ndarray:
    """values as an array of the float dtype the kernels compute in:
    float32 stays float32, anything else becomes float64."""
    x = np.asarray(values)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


# Each temporary of a table build or of a decode kernel holds at most this
# many bytes, whatever the code and the batch, and a block of the decode
# walk's rows 4 times this: the work goes a chunk at a time along an axis
# whose outputs are independent (_chunks).
BUILD_BYTES = 1 << 18


@lru_cache(maxsize=256)
def _chunks(items: int, item_bytes: int, unit: int, budget: int) -> tuple:
    """The chunks of items at item_bytes each, as slices in order: each
    takes as many items as fit budget bytes, in whole units and at least
    one unit, and one (empty) chunk stands where there are no items.  Every
    budgeted loop of rmpa iterates these, so each shape is worked out once."""
    step = max(unit, budget // (item_bytes * unit or 1) * unit)
    return tuple(slice(start, min(start + step, items))
                 for start in range(0, max(items, 1), step))


def _digits(m: int, most: int) -> list:
    """The fewest digits of at most `most` bits that sum to m, as equal as
    can be, the widest first."""
    k = -(-m // most)
    return [m // k + (i < m % k) for i in range(k)]


def _spectra(batch: np.ndarray) -> np.ndarray:
    """The spectra of the rows of a (rows, 2^m) batch as the columns of a
    (2^m, rows) array in batch's dtype, C-ordered bar those of rows of more
    than RADIX_M bits.  A product with the
    2^c x 2^c +-1 Hadamard matrix transforms c bits of z, at 2^c
    multiply-adds per value, in one BLAS call.

    A batch held as columns (F-ordered), as the walk hands on several rows'
    projections, is transformed where it lies by a chain of digits of at
    most CHAIN_M bits, the highest first.  Each digit is one product over
    the array viewed as (bits above it, its 2^c values, bits below it and
    the rows), so the spectra come out in the batch's own layout.  3 + 3
    bits for m = 6 take a quarter of the multiply-adds of one product and
    measured 1.5 to 2.6 times faster; for m = 7-12 the chain measured 2.1
    to 2.4 times faster than a row copy and the row chain (float32 at the
    walk's column counts, one x86 core).  Up to CHAIN_M bits one product is
    faster than two digits.

    Any other batch is transformed up to RADIX_M bits by batch @ H, H
    symmetric, written through the transpose of the spectra: 9 us at the
    one-row walk's 127 rows of 64 points, against 15 for H @ batch.T, and
    as fast as that on column-held batches of up to CHAIN_M bits, such as
    the RM(4,1) leaves of a batch.  Above it the digits of at most RADIX_M
    bits, the widest lowest (4 + 3 bits for m = 7 measured faster than
    6 + 1), are each transformed row by row, and the spectra are the
    transpose of the rows: for m = 8-11 at the one-row walk's shapes 1.4 to
    2.5 times faster than a copy into columns and the chain, and with the
    search 1.2 to 2.7 times faster than a spectrum-major copy."""
    rows, n = batch.shape
    m = n.bit_length() - 1
    if m > CHAIN_M and (batch.flags.f_contiguous
                        and not batch.flags.c_contiguous):
        out, outer = batch.T, 1
        for c in _digits(m, CHAIN_M):
            out = np.matmul(_form_table(c, batch.dtype)[:1 << c],
                            out.reshape(outer, 1 << c, -1))
            outer <<= c
        return out.reshape(n, rows)
    if m <= RADIX_M:
        out = np.empty((rows, n), batch.dtype, order="F")
        return np.matmul(batch, _form_table(m, batch.dtype)[:n], out=out).T
    digits = _digits(m, RADIX_M)
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


def _form_parts(forms: np.ndarray, m: int, low: int) -> tuple:
    """The parts of the forms on F_2^m over the high m - low bits of z and
    over its low `low` bits, each after its number of bits: the form
    shifted down, with u0, and its low bits, with u0 = 0, so that the
    form's row over z is the xor, or product, of their rows in the form
    tables of m - low and of low bits."""
    return (m - low, forms >> low), (low, forms & ((1 << low) - 1))


def _form_rows(forms: np.ndarray, m: int, dtype) -> np.ndarray:
    """The rows of the forms on F_2^m in the form table of dtype, shape
    forms.shape + (2^m,): bits for uint8, signs for the LLRs' float dtype.
    Above FORM_TABLE_M bits a row is the combination of its rows over the
    high bits of z and the low FORM_TABLE_M bits (_form_parts)."""
    if m <= FORM_TABLE_M:
        return _form_table(m, dtype).take(forms, axis=0)
    high, low = (_form_table(bits, dtype).take(part, axis=0)
                 for bits, part in _form_parts(forms, m, FORM_TABLE_M))
    combine = np.bitwise_xor if dtype == np.uint8 else np.multiply
    return combine(high[..., :, None], low[..., None, :]).reshape(
        forms.shape + (1 << m,))


def _parity(x: np.ndarray) -> np.ndarray:
    """The parity of the bits of each x below 2^16, 0 or 1; x is
    overwritten."""
    for shift in (8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


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
    spectra, as columns of one array, a chunk of the vectors at a time
    (_chunks, worked out once per shape), and each chunk's forms are
    gathered fresh: one chunk is the result.  Counts one FOD per vector.
    """
    l = float_array(l)
    n = l.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    countdown, form_of_key = _band_keys(n)
    # |W| orders as its bits do, and an integer max is the faster one
    signed, scale = ((np.int32, 1.0 - TIE_RTOL_FLOAT32) if l.itemsize == 4
                     else (np.int64, 1.0 - TIE_RTOL))
    batch = l.reshape(-1, n)
    forms = []
    # a chunk of the vectors at a time, whose spectra fit BUILD_BYTES
    for rows in _chunks(len(batch), n * l.itemsize, 1, BUILD_BYTES):
        w = _spectra(batch[rows])
        # the signs of the spectra, then their magnitudes in their place
        neg = w < 0
        mag = np.abs(w, out=w)
        peak = np.maximum.reduce(mag.view(signed), axis=0).view(mag.dtype)
        peak *= scale
        # a* has the largest key, 2 * (n - a) + (W[a] < 0) in the band and
        # at most 1 outside it.  The band's bools are bytes 0 and 1, scaled
        # where they lie when the keys fit a byte (n < 128), else into
        # wider keys
        key = np.greater_equal(mag, peak).view(np.uint8)
        key = np.multiply(key, countdown, out=key if n < 128 else None)
        np.add(key, neg, out=key)
        # every key names a form, so the gather runs unchecked
        forms.append(form_of_key.take(np.maximum.reduce(key, axis=0),
                                      mode="wrap"))
    if counter is not None:
        counter.record(n.bit_length() - 1, count=len(batch))
    forms = forms[0] if len(forms) == 1 else np.concatenate(forms)
    return forms.reshape(l.shape[:-1] + (1,))
