"""Reed-Muller code construction, encoding, and small-scale ML decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ML_ORACLE_CAP = 2 ** 20


@dataclass(frozen=True)
class CodeParams:
    """Identity of an RM(m, r) code: blocklength n = 2^m, dimension
    k = sum_{i<=r} C(m, i)."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 0 or self.r < 0 or self.r > self.m:
            raise ValueError(f"invalid RM parameters (m={self.m}, r={self.r})")

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
    """c = u G over F_2."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape != (gen.shape[0],):
        raise ValueError(f"message length {msg.shape} does not match k={gen.shape[0]}")
    return (msg @ gen) % 2


def is_codeword(c: np.ndarray, params: CodeParams) -> bool:
    """Membership in RM(m, r)."""
    c = np.asarray(c, dtype=np.uint8)
    if c.shape != (params.n,):
        raise ValueError(f"vector length {c.shape} does not match n={params.n}")
    return bool(in_row_space_batch(c[None, :], params)[0])


def in_row_space_batch(vectors: np.ndarray, params: CodeParams) -> np.ndarray:
    """Vectorized membership test; vectors has shape (batch, n).

    The binary Moebius transform, the GF(2) twin of fht, turns each word
    into its coefficients over the monomials; a word is in RM(m, r) iff
    none of degree > r is present."""
    v = np.asarray(vectors, dtype=np.uint8) % 2
    n = params.n
    h = 1
    while h < n:
        w = v.reshape(v.shape[:-1] + (n // (2 * h), 2, h))
        w[..., 1, :] ^= w[..., 0, :]
        h *= 2
    degree = np.array([bin(a).count("1") for a in range(n)])
    return ~np.any(v[:, degree > params.r], axis=1)


def enumerate_codewords(params: CodeParams) -> np.ndarray:
    """All 2^k codewords (rows), message index order.  Small codes only."""
    if 2 ** params.k > ML_ORACLE_CAP:
        raise ValueError(f"2^k = 2^{params.k} exceeds exhaustive cap {ML_ORACLE_CAP}")
    gen = build_generator(params)
    k = params.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    return (msgs @ gen) % 2


def ml_decode_oracle(llr: np.ndarray, params: CodeParams) -> np.ndarray:
    """Exhaustive correlation-maximizing decoder; ties broken by the
    lexicographically smallest codeword.  Test oracle, not for production use."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (params.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={params.n}")
    words = enumerate_codewords(params)
    corr = (1.0 - 2.0 * words) @ llr
    best = np.max(corr)
    candidates = np.nonzero(corr == best)[0]
    if candidates.size == 1:
        return words[candidates[0]].copy()
    rows = words[candidates]
    order = np.lexsort(rows[:, ::-1].T)
    return rows[order[0]].copy()
