"""One-dimensional subspace cosets, soft projections, and aggregation.

Coordinates are indexed by integers z in [0, 2^m); the subspace B_i = {0, i}
partitions the index set into n/2 cosets {z, z^i}, ordered by their canonical
representative min(z, z^i), whose bit h (the top bit of i) is clear.

project_llr, coset_signs and aggregate compute in the LLRs' float dtype
(rmpa.fod.float_array): float32, as the decode walk runs, stays float32,
and anything else is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fod import _read_only, float_array

# Natural-log LLR saturation.  Beyond exp(-30) the error probabilities are
# numerically irrelevant at the simulated SNRs, and the projection's
# exp(-|l|) stays far above underflow, so its logs stay finite, in float32
# too: u = exp(-|l|) >= e^-30 = 9.4e-14 and u_a * u_b >= 8.8e-27, far above
# float32's smallest normal number, 1.2e-38.
LLR_CLAMP = 30.0


@dataclass(frozen=True)
class CosetMap:
    """Coset structure of B_i = {0, i} inside F_2^m.

    A stack of k maps (see stack_coset_maps) has a leading axis of length k
    on every array, and each map numbers its own cosets from 0, so that any
    row slice of a stack is a stack: map[a:b:s] holds views."""

    reps: np.ndarray      # canonical representatives, ascending (n/2,)
    partners: np.ndarray  # reps ^ i (n/2,)
    coset_of: np.ndarray  # coordinate z -> coset index (n,)
    partner_of: np.ndarray  # coordinate z -> z ^ i (n,)

    def __getitem__(self, rows: slice) -> CosetMap:
        return CosetMap(*(a[rows] for a in vars(self).values()))


def top_bits(indices) -> tuple:
    """indices as an array, and the top bit of each; read-only."""
    i = np.array(indices, dtype=np.intp)
    return _read_only(i, np.frexp(i)[1].astype(np.intp) - 1)


def insert_zero_bit(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    return z + (z >> h << h)


def drop_bit(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    return (z >> (h + 1) << h) | (z & ((1 << h) - 1))


# The table is filled a block of maps at a time, so that each temporary of
# the build holds at most this many bytes, whatever m is.
BUILD_BYTES = 1 << 18


def stack_coset_maps(m: int, indices) -> CosetMap:
    """The coset maps of the subspaces in indices, stacked along a first
    axis; the arrays are read-only."""
    n = 1 << m
    i, h = top_bits(indices)
    if i.size == 0 or not np.all((1 <= i) & (i <= n - 1)):
        raise ValueError(f"subspace indices must be in [1, {n - 1}], "
                         f"got {list(indices)}")
    stack = CosetMap(*(np.empty((i.size, size), dtype=np.intp)
                       for size in (n // 2, n // 2, n, n)))
    z = np.arange(n)
    step = max(1, BUILD_BYTES // (n * z.itemsize))
    for start in range(0, i.size, step):
        block = slice(start, start + step)
        reps, partners, coset_of, partner_of = vars(stack[block]).values()
        ib, hb = i[block, None], h[block, None]
        reps[...] = insert_zero_bit(z[:n // 2], hb)
        np.bitwise_xor(reps, ib, out=partners)
        np.bitwise_xor(z, ib, out=partner_of)
        coset_of[...] = drop_bit(np.minimum(z, partner_of), hb)
    return CosetMap(*_read_only(*vars(stack).values()))


@lru_cache(maxsize=None)
def coset_table(m: int) -> CosetMap:
    """All n - 1 maps of F_2^m, 24 n (n - 1) bytes; map i is row i - 1."""
    return stack_coset_maps(m, range(1, 1 << m))


def project_llr(l: np.ndarray, cmap: CosetMap) -> np.ndarray:
    """Soft XOR (boxplus) of the two members a, b of each coset,
    2*atanh(tanh(a/2)*tanh(b/2)); length n -> n/2.

    It is evaluated in the exp domain: u = exp(-|l|) is taken once per
    coordinate, shared by all the stacked maps, and then
    |a [+] b| = log1p(u_a*u_b) - log(u_a + u_b), signed by
    sign(a)*sign(b).  LLRs beyond +-LLR_CLAMP count as +-LLR_CLAMP, as
    decode clamps them on entry, so the output stays within the clamp up to
    rounding; a zero LLR projects to 0.  Only cmap's reps and partners are
    read: any pair of equal-shaped index arrays into the last axis of l
    projects the same way.  The projection is in l's float dtype.

    u and the signs are taken coordinates first, as (n, rows) arrays of
    the rows of l, so that each of the four gathers copies a run of rows
    per index.  The result has shape l.shape[:-1] + (k, n/2) for k stacked
    maps (no k for one map) and is a view: with one row its memory holds
    the projections in the order of cmap's indices, and with more it holds
    each projected vector as a column, (n/2, k, rows), through the
    transposed indices.
    """
    l = float_array(l)
    lead, n = l.shape[:-1], l.shape[-1]
    cols = np.ascontiguousarray(l.reshape(-1, n).T)
    # with more than one row, the gathers write the projections as columns
    columns = cols.shape[1] > 1
    reps, partners = cmap.reps, cmap.partners
    if columns:
        reps, partners = reps.T, partners.T
    u = np.exp(-np.minimum(np.abs(cols), LLR_CLAMP))
    ua = u.take(reps, axis=0)
    ub = u.take(partners, axis=0)
    del u
    out = np.multiply(ua, ub)
    np.log1p(out, out=out)
    ua += ub
    out -= np.log(ua, out=ua)
    del ua, ub
    sign = np.sign(cols)
    out *= sign.take(reps, axis=0)
    out *= sign.take(partners, axis=0)
    return (out.T if columns else out).reshape(lead + cmap.reps.shape)


def clamp_llr(l: np.ndarray) -> np.ndarray:
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)


# the sign (-1)^bit of a decoded bit, by lookup, in each float dtype
_SIGN = {t: np.array([1.0, -1.0], dtype=t) for t in (np.float32, np.float64)}


def coset_signs(cmap: CosetMap, chat: np.ndarray,
                dtype=np.float64) -> np.ndarray:
    """The signs (-1)^chat[t, coset_t(z)] of every coordinate z, shape
    (..., k, n), from the decoded projection bits chat of shape
    (..., k, n/2) of the k stacked maps of cmap; float32 if dtype is, the
    dtype of the LLRs they will sign, else float64."""
    chat = np.asarray(chat)
    k, half = cmap.reps.shape
    if chat.shape[-2:] != (k, half):
        raise ValueError(f"decoded bits of shape {chat.shape} do not match "
                         f"{k} projections of length {half}")
    flat = chat.reshape(chat.shape[:-2] + (k * half,))
    # the signs of the cosets, map t's from t * n/2, gathered to coordinates
    sign = _SIGN[np.float32 if dtype == np.float32 else np.float64]
    cosets = cmap.coset_of + np.arange(0, k * half, half)[:, None]
    return np.take(sign.take(flat), cosets, axis=-1)


def aggregate(l: np.ndarray, cmap: CosetMap, signs: np.ndarray) -> np.ndarray:
    """Average the partner LLRs, sign-flipped per projection.

    cmap stacks the k maps of the projections (stack_coset_maps) and signs
    holds the +-1 of each map at each coordinate, shape (..., k, n), as
    coset_signs gives them; output coordinate z is
    (1/k) * sum_t signs[t, z] * l[z ^ i_t], summed in the order of the
    stack, in l's float dtype, which signs must have.  signs is overwritten.
    """
    l = float_array(l)
    if signs.shape[-2:] != cmap.partner_of.shape:
        raise ValueError(f"signs of shape {signs.shape} do not match "
                         f"{len(cmap.reps)} projections of length {l.shape[-1]}")
    if signs.dtype != l.dtype:
        raise ValueError(f"signs of dtype {signs.dtype} do not match LLRs "
                         f"of dtype {l.dtype}")
    signs *= np.take(l, cmap.partner_of, axis=-1)
    return signs.sum(axis=-2) / len(cmap.reps)
