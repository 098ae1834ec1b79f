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
    unchecked.

    The run fields serve the row-major gathers, which go by the maps' XOR
    structure.  A map's representatives depend only on the top bit h of i,
    and z ^ i is z with its low b = _run_bits(m) bits XORed by those of i
    and its high bits by the rest.  So a vector w is gathered once per call
    into the table of _xor_index(m), runs of 2^b values: run z holds the
    low-bit XOR shifts w[z ^ a] for a < 2^b, and the runs after the first
    n hold w at the representatives of the maps 2^h for h < b and at the
    partners of the maps 1 ... 2^b - 1.  Every map's operands are then runs
    of that table, which the run fields name: w[z ^ i] for the run of z
    from a multiple of 2^b is run z ^ i, so partner_of_runs is partner_of
    strided by 2^b, and so are rep_runs and partner_runs, reps and partners
    strided, for h >= b."""

    reps: np.ndarray      # canonical representatives, ascending (n/2,)
    partners: np.ndarray  # reps ^ i (n/2,)
    coset_of: np.ndarray  # coordinate z -> coset index (n,)
    partner_of: np.ndarray  # coordinate z -> z ^ i (n,)
    rep_runs: np.ndarray  # the runs that hold w[reps] (n/2^(b+1),)
    partner_runs: np.ndarray  # those that hold w[partners] (n/2^(b+1),)
    partner_of_runs: np.ndarray  # those that hold w[partner_of] (n/2^b,)

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


# The most low bits of z that a run of the row-major gathers keeps
# together: 8 float32 values, 32 bytes, the longest chunk numpy's take
# copies without a memmove call.
RUN_BITS = 3


def _run_bits(m: int) -> int:
    return max(0, min(RUN_BITS, m - 1))


@lru_cache(maxsize=None)
def _xor_index(m: int) -> np.ndarray:
    """The coordinates of the table that the row-major gathers take runs of
    (CosetMap), for b = _run_bits(m): z ^ a for each z and then each shift
    a < 2^b, the representatives of the maps 2^h for h < b, and the
    partners of the maps 1 ... 2^b - 1, one after the other; read-only."""
    b = _run_bits(m)
    z = np.arange(1 << m)
    c = z[:len(z) // 2]
    i, h = top_bits(range(1, 1 << b))
    return _read_only(np.concatenate([
        (z[:, None] ^ np.arange(1 << b)).ravel(),
        insert_zero_bit(c, np.arange(b)[:, None]).ravel(),
        (insert_zero_bit(c, h[:, None]) ^ i[:, None]).ravel()]))[0]


def _runs(m: int, i: np.ndarray, h: np.ndarray, reps: np.ndarray,
          partners: np.ndarray, partner_of: np.ndarray) -> tuple:
    """The run fields of CosetMap for the maps i, (k, 1), of top bits h and
    of the given index fields: indices of runs of 2^b values in the table
    of _xor_index(m)."""
    b = _run_bits(m)
    n, run = 1 << m, 1 << b
    # h >= b: the representatives come in runs of 2^b from multiples of
    # 2^b, and so do their partners, each a run of the shifts.  h < b: the
    # runs that follow the n of the shifts, those of the representatives of
    # map 2^h and of the partners of map i
    cosets = n // 2 // run
    rows = n + np.arange(cosets)
    wide = h >= b
    return (np.where(wide, reps[:, ::run], rows + h * cosets),
            np.where(wide, partners[:, ::run], rows + (b + i - 1) * cosets),
            partner_of[:, ::run])


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
    runs = n >> _run_bits(m)
    stack = CosetMap(*(np.empty((i.size, size), dtype=np.intp)
                       for size in (n // 2, n // 2, n, n,
                                    runs // 2, runs // 2, runs)))
    z = np.arange(n)
    step = max(1, BUILD_BYTES // (n * z.itemsize))
    for start in range(0, i.size, step):
        block = slice(start, start + step)
        reps, partners, coset_of, partner_of, *run_fields = vars(
            stack[block]).values()
        ib, hb = i[block, None], h[block, None]
        reps[...] = insert_zero_bit(z[:n // 2], hb)
        np.bitwise_xor(reps, ib, out=partners)
        np.bitwise_xor(z, ib, out=partner_of)
        coset_of[...] = drop_bit(np.minimum(z, partner_of), hb)
        for field, values in zip(run_fields, _runs(m, ib, hb, reps, partners,
                                                   partner_of)):
            field[...] = values
    return CosetMap(*_read_only(*vars(stack).values()))


@lru_cache(maxsize=None)
def coset_table(m: int) -> CosetMap:
    """All n - 1 maps of F_2^m, 24 n (n - 1) bytes and their runs, 2 n (n - 1)
    more from m = 4; map i is row i - 1."""
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
    read, bar one row through a CosetMap of l's length: any pair of
    equal-shaped index arrays into the last axis of l projects the same
    way, gathered checked, so that an index outside it raises.  The
    projection is in l's float dtype.

    One row through a CosetMap of its length is gathered by the maps' XOR
    structure, unchecked, as the map's indices are in range as built: u and
    the signs go into one table of 2^b low-bit XOR shifts and low-bit maps
    (_xor_index), one value per index, and each map's operands are runs of
    2^b values of it (the map's run fields).  Otherwise u and the signs are
    taken coordinates first, as (n, rows) arrays of the rows of l, so that
    each of the four gathers copies a run of rows per index.  The result
    has shape l.shape[:-1] + (k, n/2) for k stacked maps (no k for one
    map) and is a view: with one row its memory holds the projections in
    the order of cmap's indices, and with more it holds each projected
    vector as a column, (n/2, k, rows), through the transposed indices.
    """
    l = float_array(l)
    lead, n = l.shape[:-1], l.shape[-1]
    if (l.size == n and isinstance(cmap, CosetMap)
            and cmap.partner_of.shape[-1] == n):
        m = n.bit_length() - 1
        w = np.empty((2, n), dtype=l.dtype)
        np.exp(-np.minimum(np.abs(l.reshape(n)), LLR_CLAMP), out=w[0])
        np.sign(l.reshape(n), out=w[1])
        table = w.take(_xor_index(m), axis=1, mode="wrap").reshape(
            2, -1, 1 << _run_bits(m))
        a = table.take(cmap.rep_runs, axis=1, mode="wrap")
        b = table.take(cmap.partner_runs, axis=1, mode="wrap")
        out = _soft_xor(a[0], b[0])
        out *= a[1]
        out *= b[1]
        return out.reshape(lead + cmap.reps.shape)
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
    out = _soft_xor(ua, ub)
    del ua, ub
    sign = np.sign(cols)
    out *= sign.take(reps, axis=0)
    out *= sign.take(partners, axis=0)
    return (out.T if columns else out).reshape(lead + cmap.reps.shape)


def _soft_xor(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """|a [+] b| = log1p(u_a*u_b) - log(u_a + u_b); ua is overwritten."""
    out = np.multiply(ua, ub)
    np.log1p(out, out=out)
    ua += ub
    out -= np.log(ua, out=ua)
    return out


def clamp_llr(l: np.ndarray) -> np.ndarray:
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)


# The most rows that aggregate, coset_signs and form_signs keep in the
# row-major layout, by m from 5 to 10 (smaller m as 5, larger as 10); more
# rows go coordinates first.  Each is the smallest cutoff whose time
# relative to the faster layout, summed over both sign sources and rows 1
# to 128, is within 1% of the least, in float32 timings of sign building
# and aggregation on a 2-core x86 host.  Near-ties go to the
# coordinates-first layout, which builds no (rows, k, n) sign array.
ROW_MAJOR_ROWS = (32, 24, 32, 32, 12, 8)


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
    # value per index runs faster unchecked.  The maps' XOR structure does
    # not pay here: a sign's coset is z's own for half the coordinates and
    # its partner's for the rest, which needs each map's decoded bits
    # shifted by its own i, one value per index.
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


def _partners(rows: np.ndarray, cmap: CosetMap) -> np.ndarray:
    """The partner LLRs rows[:, z ^ i] of each map of cmap through the XOR
    structure, (rows, k, n/L, L), L = 2^_run_bits(m): each row's low-bit XOR
    shifts, one value per index, and then runs of L of them.  The indices
    are in range as built, so the gathers run unchecked, which is
    faster."""
    n = rows.shape[-1]
    m = n.bit_length() - 1
    run = 1 << _run_bits(m)
    shifts = rows.take(_xor_index(m)[:run * n], axis=1, mode="wrap")
    return shifts.reshape(len(rows), n, run).take(
        cmap.partner_of_runs, axis=1, mode="wrap")


def aggregate(l: np.ndarray, cmap: CosetMap, *signs) -> np.ndarray:
    """Average the partner LLRs, sign-flipped per projection.

    cmap stacks the k maps of the projections (stack_coset_maps) and signs
    holds the +-1 of each map at each coordinate, as coset_signs and
    form_signs give them for l's rows, in l's float dtype: row-major, one
    array (..., k, n); or coordinates first, factors (2^b_j, k, rows) over
    the bits of z, the highest first, whose product is the sign.  Output
    coordinate z is (1/k) * sum_t signs[t, z] * l[z ^ i_t], summed in the
    order of the stack, in l's float dtype.

    The partner LLRs are gathered in the layout of the signs: coordinates
    first as runs of rows, row-major through the maps' XOR structure, each
    row's low-bit XOR shifts and then runs of them (_partners).  One
    einsum, without its optimize path, multiplies and sums them, with the
    sum over t outside the loop over the rows or over z: the +-1 products
    are exact, and each output is summed t = 0, 1, ... as the per-map loop
    sums it.
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
        out = np.einsum("...tz,...tz->...z", signs[0],
                        _partners(l.reshape(-1, n), cmap).reshape(
                            lead + (k, n)))
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
