"""Fast Hadamard transform and ML decoding of first-order RM(m, 1) codes.

One call to fht_decode is one "first-order decoding" (FOD), the unit in
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


def fht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis:
    out[a] = sum_z (-1)^<a, z> values[z].  Butterfly, O(n log n); values
    itself is only read."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n == 1:
        return x.copy()
    return np.moveaxis(_fht_first_axis(np.moveaxis(x, -1, 0)), 0, -1)


def _fht_first_axis(x: np.ndarray) -> np.ndarray:
    """The transform along the first axis, where each butterfly stage is a
    few long contiguous passes.  Each stage reads one buffer and writes the
    other, so x is only read."""
    n = x.shape[0]
    buffers = (np.empty(x.shape), np.empty(x.shape))
    h = 1
    while h < n:
        src = x.reshape((n // (2 * h), 2, h) + x.shape[1:])
        x = buffers[h.bit_length() % 2]
        dst = x.reshape(src.shape)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        h *= 2
    return x


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

    Returns the codeword c(z) = u0 ^ <a*, z> with a* = argmax_a |W[a]|
    (ties to the smallest a) and u0 = 0 iff W[a*] >= 0.  Counts one FOD
    per decoded vector.
    """
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    batch = l[None, :] if single else l
    n = batch.shape[-1]
    m = n.bit_length() - 1
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    # the spectrum of row j is column j
    w = _fht_first_axis(batch.T)
    a_star = np.argmax(np.abs(w), axis=0)
    u0 = (w[a_star, np.arange(batch.shape[0])] < 0).astype(np.uint8)
    bits = _linear_form_bits(a_star, m)
    bits ^= u0[:, None]
    if counter is not None:
        counter.record(m, count=batch.shape[0])
    return bits[0] if single else bits
