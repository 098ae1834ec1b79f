"""Reed-Muller code construction and encoding."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CodeParams:
    """Identity of an RM(m, r) code: blocklength n = 2^m, dimension
    k = sum_{i<=r} C(m, i)."""

    m: int
    r: int

    def __post_init__(self):
        if not (_is_int(self.m) and _is_int(self.r) and 0 <= self.r <= self.m):
            raise ValueError(f"invalid RM parameters (m={self.m!r}, "
                             f"r={self.r!r})")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return sum(math.comb(self.m, i) for i in range(self.r + 1))

    @property
    def rate(self) -> float:
        return self.k / self.n


def build_generator(params: CodeParams) -> np.ndarray:
    """Canonical k x n generator of RM(m, r).

    Row a (a subset of the m coordinates, popcount(a) <= r) evaluates the
    monomial prod_{b in a} z_b: G[a, z] = 1 iff a is a subset of z.  Rows
    are ordered by popcount, then by a, so the weight groups descend.
    """
    rows = np.array(sorted((a for a in range(params.n)
                            if bin(a).count("1") <= params.r),
                           key=lambda a: (bin(a).count("1"), a)))[:, None]
    z = np.arange(params.n)
    return ((rows & z) == rows).astype(np.uint8)


def encode(msg: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """c = u G over F_2, for one message or a stack of them (last axis k).

    The product runs in float64, where BLAS does it; a sum of k terms of at
    most 255 is exact there for any k < 2^45.  Its parity is then taken in
    integers, as the low bit of the int64 sum."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.ndim == 0 or msg.shape[-1] != gen.shape[0]:
        raise ValueError(f"message length {msg.shape} does not match k={gen.shape[0]}")
    product = msg.astype(np.float64) @ gen.astype(np.float64)
    # a sum above 255 has no uint8 value: the low bit is taken in int64
    return (product.astype(np.int64) & 1).astype(np.uint8)
