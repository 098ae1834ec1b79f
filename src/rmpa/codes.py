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


def _kron_power_rows(m: int) -> np.ndarray:
    """Rows of F^{(x)m} with F = [[1,1],[0,1]], row/column index bit 0 = LSB."""
    f = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        g = np.kron(f, g)
    return g


def _canonical_order(row_indices):
    # descending Hamming weight of the row = ascending popcount of its
    # Kronecker index; stable by index within a weight group
    return sorted(row_indices, key=lambda a: (bin(a).count("1"), a))


def build_generator(params: CodeParams) -> np.ndarray:
    """Canonical k x n generator of RM(m, r).

    Rows are the Kronecker-power rows with Hamming weight >= 2^(m-r),
    ordered by descending weight group (stable by Kronecker row index).
    """
    full = _kron_power_rows(params.m)
    selected = [a for a in range(params.n) if bin(a).count("1") <= params.r]
    rows = full[_canonical_order(selected)]
    assert rows.shape == (params.k, params.n)
    return rows


def encode(msg: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """c = u G over F_2."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape != (gen.shape[0],):
        raise ValueError(f"message length {msg.shape} does not match k={gen.shape[0]}")
    return (msg @ gen) % 2


def gf2_rref(matrix: np.ndarray):
    """Reduced row echelon form over F_2; returns (rref rows, pivot columns)."""
    a = (np.asarray(matrix, dtype=np.uint8) % 2).copy()
    pivots = []
    row = 0
    for col in range(a.shape[1]):
        if row >= a.shape[0]:
            break
        hits = np.nonzero(a[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        elim = np.nonzero(a[:, col])[0]
        for t in elim:
            if t != row:
                a[t] ^= a[row]
        pivots.append(col)
        row += 1
    return a[:row], pivots


def is_codeword(c: np.ndarray, params: CodeParams) -> bool:
    """Membership in the row space of the canonical generator."""
    c = np.asarray(c, dtype=np.uint8)
    if c.shape != (params.n,):
        raise ValueError(f"vector length {c.shape} does not match n={params.n}")
    rref, pivots = _rref_cache(params)
    return bool(np.all(_reduce(c[None, :], rref, pivots) == 0))


def in_row_space_batch(vectors: np.ndarray, params: CodeParams) -> np.ndarray:
    """Vectorized membership test; vectors has shape (batch, n)."""
    v = np.asarray(vectors, dtype=np.uint8) % 2
    rref, pivots = _rref_cache(params)
    return ~np.any(_reduce(v, rref, pivots), axis=1)


def _reduce(v: np.ndarray, rref: np.ndarray, pivots) -> np.ndarray:
    v = v.copy()
    for row, col in zip(rref, pivots):
        mask = v[:, col] == 1
        v[mask] ^= row
    return v


_RREF_CACHE: dict = {}


def _rref_cache(params: CodeParams):
    key = (params.m, params.r)
    if key not in _RREF_CACHE:
        _RREF_CACHE[key] = gf2_rref(build_generator(params))
    return _RREF_CACHE[key]


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
