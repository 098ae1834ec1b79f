"""Fast Hadamard transform and ML decoding of first-order RM(m, 1) codes.

The transform is a chain of products with the +-1 Hadamard matrix of
RADIX_M bits, and the decoder ties spectrum magnitudes that agree to within
a band below the max, so that decoded bits do not depend on the order in
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


# bits of z that one product with the +-1 Hadamard matrix transforms
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


def fht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis:
    out[a] = sum_z (-1)^<a, z> values[z]; values itself is only read.

    One product with the 2^c x 2^c +-1 Hadamard matrix transforms
    c <= RADIX_M bits of z, the lowest bits first, then each further digit.
    A digit costs 2^c multiply-adds per value, more arithmetic than the c
    passes of a butterfly, but in one BLAS call.  The transform is in
    values' float dtype (float_array)."""
    x = float_array(values)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    m = n.bit_length() - 1
    done = min(m, RADIX_M)
    out = x.reshape(-1, 1 << done) @ _hadamard(done, x.dtype)
    while done < m:
        c = min(m - done, RADIX_M)
        out = np.matmul(_hadamard(c, x.dtype),
                        out.reshape(-1, 1 << c, 1 << done))
        done += c
    return out.reshape(x.shape)


# largest m whose Hadamard bit table is kept whole: 2^m x 2^m bytes
HADAMARD_TABLE_M = 10


@lru_cache(maxsize=None)
def _hadamard_bits(m: int) -> np.ndarray:
    """Bit table H[a, z] = <a, z> mod 2 over F_2^m, read-only."""
    table = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(m):
        # a new top bit of a and of z flips the product where both are 1
        table = np.block([[table, table], [table, table ^ 1]])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _hadamard(m: int, dtype=np.float64) -> np.ndarray:
    """The +-1 Hadamard matrix (-1)^<a, z> over F_2^m in dtype, read-only."""
    table = (1.0 - 2.0 * _hadamard_bits(m)).astype(dtype)
    table.setflags(write=False)
    return table


def _linear_form_bits(a: np.ndarray, m: int) -> np.ndarray:
    """Bit matrix c[j, z] = <a[j], z> for all z in [0, 2^m): rows of the
    Hadamard bit table.  Above HADAMARD_TABLE_M bits a row is the XOR of
    a row over the high bits of z and one over the low bits."""
    low = min(m, HADAMARD_TABLE_M)
    bits = _hadamard_bits(low)[a & ((1 << low) - 1)]
    if low == m:
        return bits
    high = _linear_form_bits(a >> low, m - low)
    return (high[..., :, None] ^ bits[..., None, :]).reshape(a.shape + (-1,))


def fht_decode(l: np.ndarray, counter: FodCounter | None = None) -> np.ndarray:
    """ML decoding of RM(m', 1) by Walsh-spectrum argmax.

    Returns the codeword c(z) = u0 ^ <a*, z> with a* the smallest a whose
    |W[a]| is within the tie band of max|W|, so that ties, exact or broken
    by rounding, go to the smallest a, and u0 = 0 iff W[a*] >= 0.  The band
    is TIE_RTOL_FLOAT32 for float32 l and TIE_RTOL for any other, which is
    decoded in float64.  Counts one FOD per decoded vector.
    """
    l = float_array(l)
    rtol = TIE_RTOL_FLOAT32 if l.dtype == np.float32 else TIE_RTOL
    single = l.ndim == 1
    batch = l[None, :] if single else l
    n = batch.shape[-1]
    m = n.bit_length() - 1
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    # row j of w is the spectrum of row j
    w = fht(batch)
    rows = np.arange(len(w))
    mag = np.abs(w)
    peak = mag[rows, np.argmax(mag, axis=1)]
    peak *= 1.0 - rtol
    a_star = np.argmax(mag >= peak[:, None], axis=1)
    u0 = (w[rows, a_star] < 0).astype(np.uint8)
    bits = _linear_form_bits(a_star, m)
    bits ^= u0[:, None]
    if counter is not None:
        counter.record(m, count=len(w))
    return bits[0] if single else bits
