"""One-dimensional subspace cosets, soft projections, and aggregation.

Coordinates are indexed by integers z in [0, 2^m); the subspace B_i = {0, i}
partitions the index set into n/2 cosets {z, z^i}, ordered by their canonical
representative min(z, z^i), whose bit h (the top bit of i) is clear.

project_llr, coset_signs, form_signs and aggregate compute in the LLRs'
float dtype (rmpa.fod.float_array): float32, as the decode walk runs,
stays float32, and anything else is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fod import _form_factors, _form_rows, _read_only, float_array

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
    row slice of a stack is a stack: map[a:b:s] holds views.  Every index
    lies in [0, n), n the length of partner_of, as stack_coset_maps builds
    them: the kernels gather through a map of their vectors' length
    unchecked."""

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
    projects the same way, and an index outside it raises.  Only one row
    through a CosetMap of l's length is gathered unchecked, its indices
    being in range as built.  The projection is in l's float dtype.

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
    # a gather of one value per index, as with one row, runs faster
    # unchecked; runs of rows do not
    mode = ("wrap" if not columns and isinstance(cmap, CosetMap)
            and cmap.partner_of.shape[-1] == n else "raise")
    u = np.exp(-np.minimum(np.abs(cols), LLR_CLAMP))
    ua = u.take(reps, axis=0, mode=mode)
    ub = u.take(partners, axis=0, mode=mode)
    del u
    out = np.multiply(ua, ub)
    np.log1p(out, out=out)
    ua += ub
    out -= np.log(ua, out=ua)
    del ua, ub
    sign = np.sign(cols)
    out *= sign.take(reps, axis=0, mode=mode)
    out *= sign.take(partners, axis=0, mode=mode)
    return (out.T if columns else out).reshape(lead + cmap.reps.shape)


def clamp_llr(l: np.ndarray) -> np.ndarray:
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)


# The most rows that aggregate, coset_signs and form_signs keep in the
# row-major layout, by m from 5 to 10 (smaller m as 5, larger as 10); more
# rows go coordinates first.  Each is the cutoff that lost least against
# the faster layout, summed over both sign sources and rows 1 to 128, in
# float32 timings of sign building and aggregation on a 2-core x86 host.
ROW_MAJOR_ROWS = (32, 24, 16, 16, 6, 8)


def _coordinates_first(rows: int, n: int) -> bool:
    """Whether aggregation over rows vectors of length n takes them
    coordinates first, (n, k, rows), or row-major, (rows, k, n).  Each
    gather of the coordinates-first layout copies a run of rows, which pays
    once there are enough rows; the cutoff is measured per m, and one row
    is always row-major."""
    if rows <= 1:
        return False
    m = min(max(n.bit_length() - 1, 5), 10)
    return rows > ROW_MAJOR_ROWS[m - 5]


# the sign (-1)^bit of a decoded bit, by lookup, in each float dtype
_SIGN = {t: np.array([1.0, -1.0], dtype=t) for t in (np.float32, np.float64)}


def coset_signs(cmap: CosetMap, chat: np.ndarray,
                dtype=np.float64) -> np.ndarray:
    """The signs (-1)^chat[t, coset_t(z)] of every coordinate z, from the
    decoded projection bits chat of shape (..., k, n/2) of the k stacked
    maps of cmap, in aggregate's layout for the rows of chat: (..., k, n)
    row-major, else (n, k, rows) coordinates first.  float32 if dtype is,
    the dtype of the LLRs they will sign, else float64."""
    chat = np.asarray(chat)
    k, half = cmap.reps.shape
    if chat.shape[-2:] != (k, half):
        raise ValueError(f"decoded bits of shape {chat.shape} do not match "
                         f"{k} projections of length {half}")
    flat = chat.reshape(-1, k * half)
    sign = _SIGN[np.float32 if dtype == np.float32 else np.float64]
    # the signs of the cosets, map t's from t * n/2, gathered to coordinates
    cosets = cmap.coset_of + np.arange(0, k * half, half)[:, None]
    if _coordinates_first(len(flat), 2 * half):
        return sign.take(flat.T).take(cosets.T, axis=0)
    # the cosets index the k * n/2 signs, so none wraps: a gather of one
    # value per index runs faster unchecked
    return np.take(sign.take(flat), cosets, axis=-1, mode="wrap").reshape(
        chat.shape[:-1] + (2 * half,))


def form_signs(forms: np.ndarray, m: int, dtype) -> tuple:
    """The signs of the forms f = b + 2^m * u0 on F_2^m, shape (rows, k),
    that the first-order decodings of k maps gave, in aggregate's layout
    for rows vectors: one array (rows, k, 2^m) row-major, else the
    rmpa.fod._form_factors over the high m // 2 and the low m - m // 2
    bits of z, (2^b, k, rows) each; in dtype, the LLRs' float dtype."""
    if not _coordinates_first(len(forms), 1 << m):
        return (_form_rows(forms, m, dtype),)
    return tuple(np.ascontiguousarray(np.moveaxis(factor, -1, 0))
                 for factor in _form_factors(forms.T, m, dtype, m - m // 2))


def aggregate(l: np.ndarray, cmap: CosetMap, *signs) -> np.ndarray:
    """Average the partner LLRs, sign-flipped per projection.

    cmap stacks the k maps of the projections (stack_coset_maps) and signs
    holds the +-1 of each map at each coordinate, as coset_signs and
    form_signs give them for l's rows, in l's float dtype: row-major, one
    array (..., k, n); or coordinates first, factors (2^b_j, k, rows) over
    the bits of z, the highest first, whose product is the sign.  Output
    coordinate z is (1/k) * sum_t signs[t, z] * l[z ^ i_t], summed in the
    order of the stack, in l's float dtype.

    The partner LLRs are gathered in the layout of the signs, coordinates
    first as runs of rows, and one einsum, without its optimize path,
    multiplies and sums them, with the sum over t outside the loop over
    the rows or over z: the +-1 products are exact, and each output is
    summed t = 0, 1, ... as the per-map loop sums it.
    """
    l = float_array(l)
    lead, n = l.shape[:-1], l.shape[-1]
    k = len(cmap.reps)
    rows = math.prod(lead)
    if cmap.partner_of.shape[-1] != n:
        raise ValueError(f"LLRs of length {n} do not match maps of length "
                         f"{cmap.partner_of.shape[-1]}")
    for factor in signs:
        if factor.dtype != l.dtype:
            raise ValueError(f"signs of dtype {factor.dtype} do not match "
                             f"LLRs of dtype {l.dtype}")
    if not _coordinates_first(rows, n):
        if len(signs) != 1 or signs[0].shape[-2:] != cmap.partner_of.shape:
            raise ValueError(f"signs of shapes {[f.shape for f in signs]} "
                             f"do not match {k} projections of length {n}")
        # the partners index l's last axis, so none wraps: a gather of one
        # value per index runs faster unchecked
        out = np.einsum("...tz,...tz->...z", signs[0],
                        np.take(l, cmap.partner_of, axis=-1, mode="wrap"))
        out /= k
        return out
    sizes = tuple(len(factor) for factor in signs)
    if (math.prod(sizes) != n
            or any(factor.shape[1:] != (k, rows) for factor in signs)):
        raise ValueError(f"sign factors of shapes "
                         f"{[f.shape for f in signs]} do not match {k} "
                         f"projections of {rows} rows of length {n}")
    cols = np.ascontiguousarray(l.reshape(rows, n).T)
    partners = cols.take(cmap.partner_of.T, axis=0).reshape(sizes + (k, rows))
    # one letter per factor for its bits of z: "abtr,atr,btr->abr"
    z = "abcdefgh"[:len(signs)]
    out = np.einsum(f"{z}tr,{','.join(c + 'tr' for c in z)}->{z}r",
                    partners, *signs)
    out /= k
    return out.reshape(n, rows).T.reshape(lead + (n,))
