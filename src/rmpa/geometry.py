"""One-dimensional subspace cosets, soft projections, and aggregation.

Coordinates are indexed by integers z in [0, 2^m); the subspace B_i = {0, i}
partitions the index set into n/2 cosets {z, z^i}, ordered by their canonical
representative min(z, z^i), whose bit h (the top bit of i) is clear.

project_llr and aggregate compute in the LLRs' float dtype
(rmpa.fod.float_array): float32, as the decode walk runs, stays float32,
and anything else is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fod
from .fod import (_chunks, _form_parts, _form_rows, _form_table, _parity,
                  _read_only, float_array)

# Natural-log LLR saturation.  Beyond exp(-30) the error probabilities are
# numerically irrelevant at the simulated SNRs, and the projection's
# exp(-|l|) stays far above underflow, so its logs stay finite, in float32
# too: u = exp(-|l|) >= e^-30 = 9.4e-14 and u_a * u_b >= 8.8e-27, far above
# float32's smallest normal number, 1.2e-38.
LLR_CLAMP = 30.0


@dataclass(frozen=True)
class CosetMap:
    """Coset structure of B_i = {0, i} inside F_2^m.

    A stack of k maps (rows of coset_table) has a leading axis of length k
    on every array, and each map numbers its own cosets from 0, so that any
    row slice of a stack is a stack: map[a:b:s] holds views (index arrays
    copy).  As built (coset_table), reps, partners and partner_of_runs lie
    in [0, n), n the length of coset_of, coset_of in [0, n/2), rep_runs
    and partner_runs in [0, 13 n/8) from m = 4, the runs of _xor_index(m),
    and lifts in [0, 2n): the kernels gather through them unchecked.  Each
    field is held in the narrowest unsigned dtype of its range: uint8 up
    to m = 7, uint16 from m = 10, at m = 8 for rep_runs, partner_runs and
    lifts, at m = 9 for all but coset_of.  Arithmetic widens a field to intp.

    The run fields serve the row-major gathers, which go by the maps' XOR
    structure.  A map's representatives depend only on the top bit h of i,
    and z ^ i is z with its low b = _run_bits(m) bits XORed by those of i
    and its high bits by the rest.  So a vector w is gathered once per call
    into the table of _xor_index(m), runs of 2^b values: run z holds the
    low-bit XOR shifts w[z ^ a] for a < 2^b, and the runs after the first
    n hold w at the representatives of the maps 2^h for h < b and at the
    partners of the maps 1 ... 2^b - 1.  Every map's operands are then runs
    of that table, which the run fields name: w[z ^ i] for the run of z
    from a multiple of 2^b is run z ^ i, so partner_of_runs is z ^ i over z
    strided by 2^b, and so are rep_runs and partner_runs, reps and partners
    strided, for h >= b."""

    reps: np.ndarray      # canonical representatives, ascending (n/2,)
    partners: np.ndarray  # reps ^ i (n/2,); partners[0] is i
    coset_of: np.ndarray  # coordinate z -> coset index (n,)
    rep_runs: np.ndarray  # the runs that hold w[reps] (n/2^(b+1),)
    partner_runs: np.ndarray  # those that hold w[partners] (n/2^(b+1),)
    partner_of_runs: np.ndarray  # those that hold w[z ^ i] (n/2^b,)
    lifts: np.ndarray     # _lift of each form f < n on F_2^(m-1) (n,)

    def __getitem__(self, rows) -> CosetMap:
        return CosetMap(*(a[rows] for a in vars(self).values()))


def top_bits(indices) -> tuple:
    """indices as an array, and the top bit of each; read-only."""
    i = np.array(indices, dtype=np.intp)
    return _read_only(i, np.frexp(i)[1].astype(np.intp) - 1)


def insert_zero_bit(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    return z + (z >> h << h)


def _lift(f: np.ndarray, h: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The forms f on F_2^m (rmpa.fod) as forms on F_2^(m+1) that are zero
    on i, whose top bit is h: f with a 0 inserted at bit h, so that it is
    unchanged on the z with bit h clear (the coset representatives of
    {0, i}), then bit h set where that makes it orthogonal to i."""
    b = insert_zero_bit(f, h)
    # 16 bits are past the m of any code that can be decoded
    return b | (_parity(b & i) << h)


def drop_bit(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """z with bit h taken out, in z's place: z is overwritten, and only its
    low bits are copied."""
    low = z & ((1 << h) - 1)
    z >>= h + 1
    z <<= h
    z |= low
    return z


# The most low bits of z that a run of the row-major gathers keeps
# together: 8 float32 values, 32 bytes, the longest chunk numpy's take
# copies without a memmove call.
RUN_BITS = 3


def _run_bits(m: int) -> int:
    return max(0, min(RUN_BITS, m - 1))


@lru_cache(maxsize=None)
def _xor_index(m: int) -> np.ndarray:
    """The coordinates of the table that the row-major gathers take runs of
    (CosetMap), for b = _run_bits(m), one run of 2^b a row: z ^ a for each
    z and then each shift a < 2^b, the representatives of the maps 2^h for
    h < b, and the partners of the maps 1 ... 2^b - 1, one after the
    other; read-only."""
    b = _run_bits(m)
    z = np.arange(1 << m)
    c = z[:len(z) // 2]
    i, h = top_bits(range(1, 1 << b))
    return _read_only(np.concatenate([
        (z[:, None] ^ np.arange(1 << b)).ravel(),
        insert_zero_bit(c, np.arange(b)[:, None]).ravel(),
        (insert_zero_bit(c, h[:, None]) ^ i[:, None]).ravel()]).reshape(
            -1, 1 << b))[0]


def _map_fields(m: int, i: np.ndarray, h: np.ndarray) -> tuple:
    """The fields of CosetMap for the maps i, (k, 1), of top bits h, in
    intp; the run fields index runs of 2^b values in the table of
    _xor_index(m)."""
    b = _run_bits(m)
    n, run = 1 << m, 1 << b
    z = np.arange(n)
    reps = insert_zero_bit(z[:n // 2], h)
    partners = reps ^ i
    coset_of = z ^ i
    drop_bit(np.minimum(z, coset_of, out=coset_of), h)
    # h >= b: the representatives come in runs of 2^b from multiples of
    # 2^b, and so do their partners, each a run of the shifts.  h < b: the
    # runs that follow the n of the shifts, those of the representatives of
    # map 2^h and of the partners of map i
    cosets = n // 2 // run
    rows = n + np.arange(cosets)
    wide = h >= b
    return (reps, partners, coset_of,
            np.where(wide, reps[:, ::run], rows + h * cosets),
            np.where(wide, partners[:, ::run], rows + (b + i - 1) * cosets),
            np.arange(0, n, run) ^ i, _lift(z, h, i))


@lru_cache(maxsize=None)
def coset_table(m: int) -> CosetMap:
    """All n - 1 maps of F_2^m, built once, map i as row i - 1, each field
    read-only in the narrowest unsigned dtype of its range (CosetMap):
    3.25 n (n - 1) bytes for m = 4 ... 7, 4.375 at m = 8, 5.5 at m = 9 and
    6.5 from m = 10 (52.8 KB at m = 7, 6.8 MB at m = 10, 109 MB at m = 12)."""
    n = 1 << m
    i, h = top_bits(range(1, n))
    b = _run_bits(m)
    runs, cosets = n >> b, n >> (b + 1)
    # the runs of _xor_index(m): n of the shifts, then cosets of each map
    # 2^h for h < b and of each map 1 ... 2^b - 1
    xor_runs = n + (b + (1 << b) - 1) * cosets
    stack = CosetMap(*(np.empty((i.size, size),
                                dtype=np.min_scalar_type(bound - 1))
                       for size, bound in ((n // 2, n), (n // 2, n),
                                           (n, n // 2), (cosets, xor_runs),
                                           (cosets, xor_runs), (runs, n),
                                           (n, 2 * n))))
    # a block of maps at a time, computed in intp and cast as it is stored:
    # its reps, partners, coset_of and lifts, 3 n a map, fit BUILD_BYTES
    for block in _chunks(i.size, 3 * n * i.itemsize, 1, fod.BUILD_BYTES):
        for field, values in zip(vars(stack[block]).values(), _map_fields(
                m, i[block, None], h[block, None])):
            field[...] = values
    return CosetMap(*_read_only(*vars(stack).values()))


def project_llr(l: np.ndarray, cmap: CosetMap) -> np.ndarray:
    """Soft XOR (boxplus) of the two members a, b of each coset,
    2*atanh(tanh(a/2)*tanh(b/2)); length n -> n/2.

    It is evaluated in the exp domain: u = exp(-|l|) is taken once per
    coordinate, shared by all the stacked maps, and then
    |a [+] b| = log1p(u_a*u_b) - log(u_a + u_b), signed by
    sign(a)*sign(b).  LLRs beyond +-LLR_CLAMP count as +-LLR_CLAMP, as
    decode clamps them on entry, so the output stays within the clamp up to
    rounding; a zero LLR projects to 0.  Only cmap's reps and partners are
    read, bar one row through a CosetMap (of l's length, else ValueError):
    any pair of equal-shaped index arrays into the last axis of l projects
    the same way, gathered checked, so that an index outside it raises.
    The projection is in l's float dtype.

    One row through a CosetMap is gathered by the maps' XOR structure,
    unchecked, as the map's indices are in range as built: u and the signs
    go into one table of 2^b low-bit XOR shifts and low-bit maps
    (_xor_index), one value per index, and each map's operands are runs of
    2^b values of it (the map's run fields), a chunk of the rows of those
    fields at a time.  Otherwise u and the signs are taken coordinates
    first, as (n, rows) arrays of a chunk of the rows of l, so that each of
    the four gathers copies a run of rows per index, a chunk of the maps at
    a time.  Each gathered operand fits BUILD_BYTES (rmpa.fod._chunks).
    The result has shape l.shape[:-1] + (k, n/2) for k stacked maps (no k
    for one map) and is a view: with one row its memory holds the
    projections in the order of cmap's indices, and with more it holds
    each projected vector as a column, (n/2, k, rows), through the
    transposed indices.
    """
    l = float_array(l)
    lead, n = l.shape[:-1], l.shape[-1]
    _check_length(cmap, n)
    if l.size == n and isinstance(cmap, CosetMap):
        row = l.reshape(n)
        w = np.empty((2, n), dtype=l.dtype)
        u = np.minimum(np.abs(row, out=w[0]), LLR_CLAMP, out=w[0])
        np.exp(np.negative(u, out=u), out=u)
        np.sign(row, out=w[1])
        table = w.take(_xor_index(n.bit_length() - 1), axis=1, mode="wrap")
        # a row of the run fields, a map's or one run of a map, projects
        # a row of out, and gathers u and the sign of its operands
        runs, partner_runs = cmap.rep_runs, cmap.partner_runs
        out = np.empty(runs.shape + table.shape[-1:], dtype=l.dtype)
        for rows in _chunks(len(out), 2 * out.strides[0], 1,
                            fod.BUILD_BYTES):
            a = table.take(runs[rows], axis=1, mode="wrap")
            b = table.take(partner_runs[rows], axis=1, mode="wrap")
            part = _soft_xor(a[0], b[0], out[rows])
            part *= a[1]
            part *= b[1]
        return out.reshape(lead + cmap.reps.shape)
    half = cmap.reps.shape[-1]
    reps = cmap.reps.reshape(-1, half)
    partners = cmap.partners.reshape(-1, half)
    flat = l.reshape(-1, n)
    # with more than one row, the gathers write the projections as columns
    columns = len(flat) > 1
    out = np.empty((half, len(reps), len(flat)) if columns
                   else (len(reps), half, len(flat)), dtype=l.dtype)
    for block in _chunks(len(flat), n * l.itemsize, 1, fod.BUILD_BYTES):
        cols = np.ascontiguousarray(flat[block].T)
        u = np.exp(-np.minimum(np.abs(cols), LLR_CLAMP))
        sign = np.sign(cols)
        for maps in _chunks(len(reps), half * cols.shape[1] * l.itemsize, 1,
                            fod.BUILD_BYTES):
            a, b = ((reps[maps].T.astype(np.intp),
                     partners[maps].T.astype(np.intp)) if columns
                    else (reps[maps], partners[maps]))
            part = _soft_xor(u.take(a, axis=0), u.take(b, axis=0),
                             out[:, maps, block] if columns else out[maps])
            part *= sign.take(a, axis=0)
            part *= sign.take(b, axis=0)
    return (out.T if columns else out).reshape(lead + cmap.reps.shape)


def _check_length(cmap, n: int) -> None:
    """ValueError if cmap is a CosetMap of another length than the LLRs'."""
    if isinstance(cmap, CosetMap) and cmap.coset_of.shape[-1] != n:
        raise ValueError(f"LLRs of length {n} do not match maps of length "
                         f"{cmap.coset_of.shape[-1]}")


def _soft_xor(ua: np.ndarray, ub: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|a [+] b| = log1p(u_a*u_b) - log(u_a + u_b), written to out; ua is
    overwritten."""
    np.multiply(ua, ub, out=out)
    np.log1p(out, out=out)
    ua += ub
    out -= np.log(ua, out=ua)
    return out


def clamp_llr(l: np.ndarray) -> np.ndarray:
    """l within +-LLR_CLAMP, as np.clip gives it: +-0 and NaN pass
    through, and +-inf clamps."""
    out = np.minimum(l, LLR_CLAMP)
    return np.maximum(out, -LLR_CLAMP, out=out)


# The most rows that aggregate keeps in the row-major layout, by m from 5
# to 10 (smaller m as 5, larger as 10); more rows go coordinates first.
# Each is the smallest cutoff whose time relative to the faster layout,
# summed over both decoded inputs (bits and forms) and rows 1 to 128, is
# within 1% of the least, in float32 timings of aggregation, its signs
# built, on a 2-core x86 host.  Near-ties go to the coordinates-first
# layout, which builds no (rows, k, n) sign array.
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


def _coset_index(cmap: CosetMap, z: slice = slice(None)) -> np.ndarray:
    """The cosets of the coordinates z of the slice among the k * n/2
    decoded bits of the k stacked maps of cmap, map t's from t * n/2, shape
    (k, z).  None wraps, and a gather of one value per index runs faster
    unchecked.  The maps' XOR structure does not pay here: a sign's coset
    is z's own for half the coordinates and its partner's for the rest,
    which needs each map's decoded bits shifted by its own i, one value per
    index.  The sum is intp: the offsets pass what coset_of's dtype
    holds."""
    k, half = cmap.reps.shape
    return np.add(cmap.coset_of[:, z], np.arange(0, k * half, half)[:, None],
                  dtype=np.intp)


def _coset_signs(chat: np.ndarray, cosets: np.ndarray, dtype,
                 columns: bool) -> tuple:
    """The signs (-1)^chat[r, t, coset] of the cosets (k, z) of
    _coset_index, in dtype, from the decoded projection bits chat: row-major
    chat is (rows, k, n/2) and the signs one array (rows, k, z); if columns,
    coordinates first, chat is laid out (k * n/2, rows), as aggregate copies
    a block's bits once, and the signs are one factor (z, k, rows).  The
    bits are gathered, a byte each, and then made 1 - 2 * bit, exact in
    dtype."""
    bits = (np.take(chat, cosets.T, axis=0, mode="wrap") if columns else
            np.take(chat.reshape(-1, chat.shape[-2] * chat.shape[-1]),
                    cosets, axis=-1, mode="wrap"))
    sign = np.multiply(bits, -2, dtype=dtype)
    sign += 1
    return (sign,)


def _form_signs(forms: np.ndarray, m: int, dtype, columns: bool,
                z: slice = slice(None)) -> tuple:
    """The signs of the forms f = b + 2^m * u0 on F_2^m, (rows, k), that
    the first-order decodings of k maps gave, in dtype: one array
    (rows, k, z) row-major for the coordinates of z, an aligned run of a
    power of two, else, if columns, the factors over the high m // 2 and
    the low m - m // 2 bits of every z (rmpa.fod._form_parts),
    (2^b, k, rows) each, whose product is the sign.  Each factor is built
    z first, one gather from the transposed form table of its bits.  A
    run of 2^c coordinates from z0 takes the rows of the forms' low c bits
    (u0 = 0), each times the sign (-1)^(u0 + <b, z0>) of its form there."""
    if columns:
        return tuple(np.take(_form_table(bits, dtype).T, part, axis=1,
                             mode="wrap")
                     for bits, part in _form_parts(forms.T, m, m - m // 2))
    c = m if z.stop is None else (z.stop - z.start).bit_length() - 1
    if c == m:
        return (_form_rows(forms, m, dtype),)
    high = np.multiply(_parity(forms & (z.start | 1 << m)), -2, dtype=dtype)
    high += 1
    low = _form_rows(forms & ((1 << c) - 1), c, dtype)
    low *= high[..., None]
    return (low,)


# The walk aggregates blocks of a few shapes over and over: working a
# shape's tiles out on every call cost the one-row RM(7,2) walk about 3% a
# frame.
@lru_cache(maxsize=256)
def _row_tiles(rows: int, n: int, k: int, itemsize: int, from_bits: bool,
               budget: int) -> tuple:
    """The tiles of a row-major aggregation of rows vectors of length n
    through k maps, in order: the length of their runs of z, and for each
    run, slices of z and of the runs of the maps' run fields over it, and
    the blocks of rows that it takes, chunks of budget bytes
    (rmpa.fod._chunks).  Each coordinate of a tile holds k signs, k
    partners and the 2^b XOR shifts of its row, so a tile takes rows of
    aligned runs of z, of the widest power of two that a chunk of whole
    runs holds (all of z where a row fits); from bits, a run's coset index
    holds k intp a coordinate for all of its blocks.  budget is
    rmpa.fod.BUILD_BYTES."""
    run = 1 << _run_bits(n.bit_length() - 1)
    size = max(k, run) * itemsize
    most = max(size, 8 * k) if from_bits else size
    width = 1 << (_chunks(n, most, run, budget)[0].stop.bit_length() - 1)
    blocks = _chunks(rows, width * size, 1, budget)
    return width, tuple((z, slice(z.start // run, z.stop // run), blocks)
                        for z in _chunks(n, most, width, budget))


def aggregate(l: np.ndarray, cmap: CosetMap, *, chat: np.ndarray = None,
              forms: np.ndarray = None) -> np.ndarray:
    """Average the partner LLRs, sign-flipped by what each projection
    decoded.

    cmap stacks the k maps of the projections (coset_table), and exactly
    one of chat and forms gives what their decoders returned: chat the
    projections' bits, shape l.shape[:-1] + (k, n/2); forms, below a
    first-order decoder, the forms f = b + 2^m * u0 lifted to F_2^m, shape
    (rows, k) for the rows of l, in [0, 2n).  Output z is (1/k) * sum_t
    s_t(z) * l[z ^ i_t], s_t(z) the +-1 of map t's decoding at z, summed in
    the order of the stack, in l's float dtype.

    The layout is chosen once for l's rows (_coordinates_first), and the
    signs are built in it, in l's dtype: row-major, (rows, k, z) arrays;
    coordinates first, factors (2^b_j, k, rows) over the bits of z, the
    highest first, whose product is the sign, so that forms build no
    (rows, k, n) array.  The partner LLRs are gathered in the same layout:
    coordinates first as runs of rows, row-major through the maps' XOR
    structure, each row's low-bit XOR shifts and then runs of them.  One
    einsum, without its optimize path, multiplies and sums them, with the
    sum over t outside the loop over the rows or over z: the +-1 products
    are exact, and each output is summed t = 0, 1, ... as the per-map loop
    sums it.

    Every map goes into each sum, and the outputs go a tile of rows and of
    z at a time, each of its temporaries within BUILD_BYTES (the chunks of
    rmpa.fod._chunks): row-major, aligned runs of z of a power of two (all
    of z when a row's signs and its coset index fit), whose coset index
    and partner runs serve each of its blocks of rows (_row_tiles);
    coordinates first, blocks of at least two rows (over one row the
    einsum would sum the maps innermost, in another order), whose bits are
    laid out coordinates first once, (k * n/2, rows), then runs of z of
    whole values of its high bits.
    """
    if (chat is None) == (forms is None):
        raise ValueError("aggregation takes either decoded bits or forms")
    l = float_array(l)
    lead, n = l.shape[:-1], l.shape[-1]
    k = len(cmap.reps)
    rows = math.prod(lead)
    _check_length(cmap, n)
    if k == 0:
        raise ValueError("aggregation needs at least one projection")
    decoded, shape = ((chat, lead + (k, n // 2)) if forms is None
                      else (forms, (rows, k)))
    if decoded.shape != shape:
        raise ValueError(f"decoded input of shape {decoded.shape} does not "
                         f"match the {shape} of {k} projections of LLRs of "
                         f"shape {l.shape}")
    m = n.bit_length() - 1
    columns = _coordinates_first(rows, n)
    if not columns:
        width, tiles = _row_tiles(rows, n, k, l.itemsize, forms is None,
                                  fod.BUILD_BYTES)
    # raise on f < 0, and on f >= 2n where the layout masks f's bits
    if forms is not None and (
            forms.dtype.kind != "u" and forms.min(initial=0) < 0
            or (columns or width < n) and forms.max(initial=0) >= 2 * n):
        raise IndexError(f"forms must lie in [0, {2 * n})")
    flat = l.reshape(rows, n)
    if forms is None:
        chat = chat.reshape(rows, k, n // 2)
    if not columns:
        # the partners of a row: its low-bit XOR shifts, one value per
        # index, and then the runs of them that the maps' run fields name,
        # gathered unchecked, as the indices are in range as built.  A
        # tile's runs are widened to intp once, not by each block's gather
        shifts = _xor_index(m)[:n]
        out = np.empty((rows, n), dtype=l.dtype)
        for z, runs, blocks in tiles:
            partner_runs = cmap.partner_of_runs[:, runs].astype(np.intp)
            cosets = None if forms is not None else _coset_index(cmap, z)
            for block in blocks:
                signs = (_coset_signs(chat[block], cosets, l.dtype, False)
                         if forms is None else
                         _form_signs(forms[block], m, l.dtype, False, z))
                partners = flat[block].take(shifts, axis=1, mode="wrap").take(
                    partner_runs, axis=1, mode="wrap")
                np.einsum("rtz,rtz->rz", *signs,
                          partners.reshape(-1, k, width), out=out[block, z])
        out /= k
        return out.reshape(lead + (n,))
    out = np.empty((n, rows), dtype=l.dtype)
    # one value of the high bits of z, over which the low-bit factor runs
    unit = 1 << (m - m // 2)
    # blocks of two rows or more: the chunks of all rows but the last, and
    # the last chunk takes that row too.  A row holds a unit of partners
    # and, from bits, its k * n/2 bits laid out coordinates first
    row_bytes = k * l.itemsize * unit
    *blocks, last = _chunks(rows - 1, row_bytes if chat is None else max(
        row_bytes, chat[0].nbytes), 2, fod.BUILD_BYTES)
    # the partner of coordinate z through map t is z ^ i_t, i = partners[:, 0]
    z_col, i = np.arange(n)[:, None], cmap.partners[:, 0]
    for block in (*blocks, slice(last.start, rows)):
        cols = np.ascontiguousarray(flat[block].T)
        decoded = (_form_signs(forms[block], m, l.dtype, True) if chat is None
                   else np.ascontiguousarray(chat[block].reshape(
                       -1, k * n // 2).T))
        for z in _chunks(n, k * l.itemsize * cols.shape[1], unit,
                         fod.BUILD_BYTES):
            signs = ((decoded[0][z.start // unit:z.stop // unit], decoded[1])
                     if chat is None else
                     _coset_signs(decoded, _coset_index(cmap, z), l.dtype,
                                  True))
            sizes = tuple(len(factor) for factor in signs)
            # one letter per factor for its bits of z: "abtr,atr,btr->abr"
            bits = "abcdefgh"[:len(signs)]
            np.einsum(f"{bits}tr,{','.join(c + 'tr' for c in bits)}->{bits}r",
                      cols.take(z_col[z] ^ i, axis=0).reshape(
                          sizes + (k, cols.shape[1])), *signs,
                      out=out[z, block].reshape(sizes + (cols.shape[1],)))
    out /= k
    return out.T.reshape(lead + (n,))
