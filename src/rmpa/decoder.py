"""Projection-aggregation decoding with a multi-factor pruning schedule.

The pruning factor gamma * delta_itr^(j-1) * delta_rec^(l-2) sets the
fraction of the n-1 coset projections kept at iteration j and recursion
level l.  (1,1,1) is the unpruned decoder; (q,1,1) and (1,1/d,1) recover
the sparse and iteration-decay variants.  Factors are held as exact
Fractions, so the ceil() in the projection count is free of float rounding.

Complexity is counted in first-order decodings (FODs).  The nominal count
is the paper's: one FOD per first-order decoding the plan describes, which
is what analytic_fod_count returns and every FodCounter records.  A decode
runs fewer, the executed count of executed_fod_count.  Soft projections
commute, so in one iteration of a level-3 decoder the pairs (i, j) of its
projection i and the first projection j of its inner decoder that span the
same subspace {i, lift_h(j)} (h the top bit of i) project the input onto
one quotient.  The walk decodes the first pair of each span with the
arithmetic of that pair's own path, and every other pair reads its decoded
first-order codeword from the same form, which is zero on the span.  The
decoded bits are therefore those of decoding every path on its own, bar a
spectrum tie broken differently in another pair's coordinates.  Decoders
whose inner decoder is first-order aggregate from the decoded forms, not
from their bits: rmpa.geometry.aggregate builds the signs from the form
tables of rmpa.fod, and lift each form by one gather (coset_table's lifts).

The walk runs in float32 (WALK_DTYPE): decode and decode_batch clamp the
LLRs and cast them once, and every projection, first-order decoding,
aggregation and convergence test below computes in that dtype, with the
float32 tie band of rmpa.fod.  A first-order code decoded alone has no walk
and is decoded from its float64 LLRs as given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import fod
from .codes import CodeParams, _is_int
from .fod import FodCounter, _chunks, _read_only, fht_decode, form_bits
from .geometry import (CosetMap, aggregate, clamp_llr,
                       coset_table, drop_bit, insert_zero_bit, project_llr,
                       top_bits)

FACTORS = ("gamma", "delta_itr", "delta_rec")


@dataclass(frozen=True, eq=False)
class PruningConfig:
    """Pruning factors plus iteration cap; fully determines decoder
    behavior and complexity (early stopping aside).  The factors are held
    as Fractions, a float at its exact binary value."""

    gamma: Fraction | float = Fraction(1)
    delta_itr: Fraction | float = Fraction(1)
    delta_rec: Fraction | float = Fraction(1)
    # 1 with an explicit schedule, else 3
    n_max: int | None = None
    # projection counts per recursion level, from level r down to level 2;
    # replaces the factors, which must then stay 1
    explicit_schedule: tuple | None = None
    early_stop_theta: float | None = None

    def __post_init__(self):
        schedule = self.explicit_schedule
        if schedule is not None:
            if isinstance(schedule, dict):
                raise ValueError("a schedule lists its counts from level r "
                                 f"down to level 2, got the dict {schedule}")
            schedule = tuple(schedule)
            object.__setattr__(self, "explicit_schedule", schedule)
            if not all(_is_int(c) and c >= 1 for c in schedule):
                raise ValueError("schedule counts must be integers >= 1, "
                                 f"got {schedule}")
        if self.n_max is None:
            object.__setattr__(self, "n_max", 3 if schedule is None else 1)
        for name in FACTORS:
            v = getattr(self, name)
            if not (_is_real(v) and 0 < v <= 1):
                raise ValueError(f"{name} must be in (0, 1], got {v}")
            if schedule is not None and v != 1:
                raise ValueError(f"{name} does not apply beside a schedule")
            object.__setattr__(self, name, Fraction(
                v if isinstance(v, numbers.Rational) else float(v)))
        if not (_is_int(self.n_max) and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        theta = self.early_stop_theta
        if theta is not None and not (_is_real(theta) and math.isfinite(theta)
                                      and theta > 0):
            raise ValueError("early-stop threshold must be positive and "
                             f"finite, got {theta}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class DecodeResult:
    codeword: np.ndarray
    fods: FodCounter
    iterations_run: int
    converged_early: bool


@dataclass(frozen=True, eq=False)
class DecodePlan:
    """One decode of RM(m, r) under a PruningConfig, fixed in advance.

    steps holds one (range of kept subspaces, plan of RM(m-1, r-1)) pair per
    iteration; it is empty at r == 1, where a decode is one FHT.  fods is
    the first-order-decoding cost of one decode with early stopping off;
    row_bytes is the size, in WALK_DTYPE, of the projections one row holds
    at this node: those of its largest iteration, each 2^(m-1) long (at
    r == 1, the row itself), by which _walk blocks the node's rows within
    4 * rmpa.fod.BUILD_BYTES; inner nodes block their own rows."""

    m: int
    steps: tuple
    fods: int
    row_bytes: int


# The float dtype the decode walk computes in.  float32 runs the walk's
# exp, log, log1p and Hadamard products about twice as fast as float64, and
# the float32 tie band of fht_decode keeps decoded bits independent of how
# BLAS sums.
WALK_DTYPE = np.dtype(np.float32)
# The most steps (iterations, summed over a plan's distinct nodes) that a
# plan may compile to.  A step takes about 20 us to compile with small
# factors.  Its exact factor g_j gains the bits of delta_itr each
# iteration, and the step multiplies it by delta_itr and by
# delta_rec^(r-2), whose gcds take time with the sizes of both operands:
# about as long again per 2^23 of the bits of g_j and delta_rec^(r-2)
# times those of delta_itr and delta_rec^(r-2) plus 1024, for which a step
# counts once more.  (Counted once a step, RM(12,2) with a 27-bit delta_itr
# just below 1 took 33 s at this bound.)  So compiling a plan takes about a
# second at most on a 2-core x86 host.  RM(8,3) rpa_sch may run n_max 180
# at d = 101/100 and 3,640 at d = 2, and full RPA on RM(12,2) 32,768.
MAX_PLAN_STEPS = 1 << 15

# Each decoder: the keys it takes and the factor triple they give.  A
# schedule keeps the factors at 1 and sets fixed counts per level instead.
DECODERS = {
    "rpa": ((), lambda: (1, 1, 1)),
    "srpa": (("q",), lambda q: (q, 1, 1)),
    "rpa_sch": (("d",), lambda d: (1, 1 / _decay(d), 1)),
    "mfp": (FACTORS, lambda gamma, delta_itr, delta_rec:
            (gamma, delta_itr, delta_rec)),
    "schedule": (("schedule",), lambda schedule: (1, 1, 1)),
}
# keys that go with every decoder
SHARED_KEYS = ("n_max", "early_stop_theta")


def _decay(d) -> Fraction:
    """The rpa_sch decay d, at least 1 so that delta_itr = 1/d is a factor."""
    if Fraction(d) < 1:
        raise ValueError("d must be at least 1")
    return Fraction(d)


def _shown(value) -> str:
    """A decoder key's value for a message: a Fraction, which may be
    hundreds of digits long exactly, in decimal to six digits; else repr."""
    if isinstance(value, Fraction):
        return f"{Decimal(value.numerator) / value.denominator:.6g}"
    return repr(value)


def preset(name: str | None = None, **keys) -> PruningConfig:
    """The PruningConfig that decoder keys describe: the keys DECODERS
    lists for the named decoder, plus any of SHARED_KEYS.

    rpa     -> (1, 1, 1)
    srpa    -> (q, 1, 1)
    rpa_sch -> (1, 1/d, 1)
    mfp     -> (gamma, delta_itr, delta_rec)

    Without a name the decoder is a schedule if one is given, else mfp if
    a factor is, else rpa.  A key set to None counts as not given.  Keys
    the decoder would not use raise ValueError, which names all of them."""
    keys = {key: value for key, value in keys.items() if value is not None}
    name = name or ("schedule" if "schedule" in keys else
                    "mfp" if keys.keys() & set(FACTORS) else "rpa")
    if name not in DECODERS:
        raise ValueError(f"unknown decoder {name!r}")
    takes, factors = DECODERS[name]
    unused = keys.keys() - set(takes) - set(SHARED_KEYS)
    if unused:
        raise ValueError(f"decoder keys {sorted(unused)} are unknown or do "
                         f"not apply to {name}")
    missing = [key for key in takes if key not in keys]
    if missing:
        raise ValueError(f"{name} requires {', '.join(missing)}")
    given = {key: keys.pop(key) for key in takes}
    flags = [key for key in takes if isinstance(given[key], bool)]
    if flags:
        raise ValueError(f"{name} takes numbers, not booleans, for {flags}")
    try:
        triple = [Fraction(x) for x in factors(**given)]
    except (ArithmeticError, TypeError, ValueError) as exc:
        shown = ", ".join(f"{key}={_shown(value)}"
                          for key, value in given.items())
        raise ValueError(f"bad {name} parameters {shown}: {exc}") from exc
    return PruningConfig(*triple, explicit_schedule=given.get("schedule"),
                         **keys)


def explicit_schedule_config(counts, r: int, **kwargs) -> PruningConfig:
    """Fixed projection counts per recursion level, given top level first
    (level r down to level 2); a single iteration unless n_max says more."""
    counts = tuple(counts)
    if len(counts) != r - 1:
        raise ValueError(f"need {r - 1} schedule entries for r={r}, got {len(counts)}")
    return preset(schedule=counts, **kwargs)


def select_projection_indices(n: int, np_: int) -> range:
    """np_ subspace indices uniformly strided over [1, n-1]."""
    if not 1 <= np_ <= n - 1:
        raise ValueError(f"projection count {np_} outside [1, {n - 1}]")
    stride = (n - 1) // np_
    return range(1, np_ * stride + 1, stride)


def _converged(l_old: np.ndarray, l_new: np.ndarray, theta: float) -> bool:
    """The early-stopping test: every coordinate changed by less than theta
    * |old value|, in the dtype of the arrays, of one dtype and shape."""
    change = np.subtract(l_new, l_old)
    return bool(np.less(np.abs(change, out=change),
                        theta * np.abs(l_old)).all())


# The kept subspaces are strided, so their maps are views of the one coset
# table of m; plans hold only the ranges, so compiling one builds no table.
@lru_cache(maxsize=128)
def _stacked_maps(m: int, indices: range) -> CosetMap:
    return coset_table(m)[indices.start - 1:indices.stop - 1:indices.step]


@lru_cache(maxsize=64)
def decode_plan(params: CodeParams, cfg: PruningConfig) -> DecodePlan:
    """The plan every decode of params under cfg walks.

    This is the one place the pruning rule lives: iteration j at level r
    keeps the schedule's count for level r, else ceil(g_j *
    delta_rec^(r-2) * (n-1)) subspaces, where g_j = g * delta_itr^(j-1)
    and g is gamma at the top level and the caller's g_j below it.  Inner
    decoders of equal (m, r, g) are one node, and so are the leaves of one
    m and the decoders of one (m, r) whose counts are all 1.  A plan of more than
    MAX_PLAN_STEPS steps raises ValueError as it compiles."""
    if params.r < 1:
        raise ValueError("decoding requires r >= 1")
    schedule = cfg.explicit_schedule
    if schedule is not None and len(schedule) != params.r - 1:
        raise ValueError(f"RM({params.m},{params.r}) needs {params.r - 1} "
                         f"schedule counts (levels {params.r} down to 2), "
                         f"got {len(schedule)}")

    def bits(factor: Fraction) -> int:
        return factor.denominator.bit_length()

    compiled = 0

    def node(m, r, g) -> DecodePlan:
        # the node's key: a leaf reads no factor, and a factor at which
        # every count of RM(m, r) is 1 (at level l, of a code of length
        # 2^(m-r+l)) is raised to the largest such, which changes no count
        # as factors only fall as they decay and recurse
        if r == 1:
            g = None
        elif schedule is None:
            scale = max(cfg.delta_rec ** (l - 2) * ((1 << (m - r + l)) - 1)
                        for l in range(2, r + 1))
            g = max(g, 1 / scale)
        return compile_level(m, r, g)

    @lru_cache(maxsize=None)
    def compile_level(m, r, g) -> DecodePlan:
        nonlocal compiled
        if r == 1:
            return DecodePlan(m=m, steps=(), fods=1,
                              row_bytes=WALK_DTYPE.itemsize << m)
        n = 1 << m
        rec = cfg.delta_rec ** (r - 2)
        other = bits(cfg.delta_itr) + bits(rec) + 1024
        # g_j is the factor decayed to iteration j, one exact product a
        # step, so that a step's arithmetic grows only linearly with g_j;
        # inner levels start from it
        steps, g_j = [], g
        for _ in range(cfg.n_max):
            compiled += 1 + ((bits(g_j) + bits(rec)) * other >> 23)
            if compiled > MAX_PLAN_STEPS:
                raise ValueError(
                    f"RM({params.m},{params.r}) under this decoder compiles "
                    f"to more than {MAX_PLAN_STEPS} steps (iterations summed "
                    f"over the plan's distinct nodes); lower n_max")
            count = (schedule[params.r - r] if schedule is not None else
                     math.ceil(g_j * rec * (n - 1)))
            indices = select_projection_indices(n, count)
            steps.append((indices, node(m - 1, r - 1, g_j)))
            g_j *= cfg.delta_itr
        # a row holds the projections of one iteration at a time
        widest = max(len(indices) for indices, _ in steps)
        return DecodePlan(
            m=m, steps=tuple(steps),
            fods=sum(len(indices) * inner.fods for indices, inner in steps),
            row_bytes=widest * (WALK_DTYPE.itemsize << (m - 1)))

    return node(params.m, params.r, cfg.gamma)


def _lifted(forms: np.ndarray, m: int, i: np.ndarray) -> np.ndarray:
    """_lift of the forms (rows, k) on F_2^(m-1) by the maps i (k,) of
    F_2^m, gathered from the lifts of coset_table(m) read flat."""
    return coset_table(m).lifts.take(((i - 1) << m) + forms)


def _spans(m: int, outer: range, inner: range) -> np.ndarray:
    """The span of each pair (t, s) of a level-3 node's iteration, shape
    (k_i, k_j): pair (t, s) projects onto i = outer[t], whose top bit is h,
    and then onto j = inner[s], which is the projection onto
    span{i, lift_h(j)}, named by two of its three nonzero members."""
    i, h = top_bits(outer)
    i, h = i[:, None], h[:, None]
    v = insert_zero_bit(top_bits(inner)[0], h)
    w = i ^ v
    return (np.minimum(np.minimum(i, v), w) << m) | np.maximum(
        np.maximum(i, v), w)


def _span_classes(m: int, outer: range, inner: range) -> tuple:
    """The pairs of a level-3 node's iteration grouped by span (_spans):
    their flat indices t * k_j + s sorted stably by span, so that each
    span's pairs come in order, and where each span begins in that order."""
    span = _spans(m, outer, inner).ravel()
    order = np.argsort(span, kind="stable")
    span = span[order]
    return order, np.concatenate(([True], span[1:] != span[:-1]))


# A decode reads one share table per iteration of each level-3 node, and a
# table is (k_i, k_j) int32, 2 MB at RM(10,3) full RPA: the cache holds the
# tables of a few decodes, not those of every iteration of a long decaying
# schedule.
@lru_cache(maxsize=8)
def _shared_quotients(m: int, outer: range, inner: range) -> tuple:
    """Which first-order decodings of a level-3 node's iteration repeat.

    Returns the pairs (t, s) that come first in order for their span
    (_span_classes), as arrays of t and of s, and the (k_i, k_j) int32
    index of each pair's span among them."""
    order, starts = _span_classes(m, outer, inner)
    first = order[starts]
    # the spans in order of their first pairs, and each span's place there
    by_first = np.argsort(first)
    alias = np.empty(len(order), dtype=np.int32)
    alias[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
    canon_t, canon_s = np.divmod(first[by_first], len(inner))
    return _read_only(canon_t, canon_s,
                      alias.reshape(len(outer), len(inner)))


def _shared_forms(m: int, outer: range, inner: range, proj: np.ndarray,
                  counter: FodCounter | None) -> np.ndarray:
    """The forms that the first iteration of the level-2 decoders below a
    level-3 node decodes, shape (k_i * rows, k_j), map by map: those of the
    projections proj, (rows, k_i, 2^(m-1)), onto outer, each projected onto
    inner.

    Soft projections commute, so the pairs that span one subspace decode one
    quotient.  Its first pair is projected and decoded as its own level-2
    decoder's first step would (_decode_lifted), a block of first pairs at
    a time within BUILD_BYTES; the decoded form lifts to a form on F_2^m
    that is zero on the span, and every pair reads it as a form on its own
    F_2^(m-1), its bit h dropped in the place of the gathered block.  The
    counter gets the FODs of every pair.  Where no two pairs share a span
    this returns None: the level-2 decoders then decode their own
    quotients."""
    canon_t, canon_s, alias = _shared_quotients(m, outer, inner)
    if alias.size == len(canon_t):
        return None
    rows, k, half = proj.shape
    quarter = half // 2
    i, h = top_bits(outer)
    j = top_bits(inner)[0]
    maps = _stacked_maps(m - 1, inner)
    lifted = np.empty((rows, len(canon_t)), dtype=coset_table(m).lifts.dtype)
    # Each temporary of a block fits BUILD_BYTES: its pairs' two intp index
    # arrays, their projections, gathered operands and spectra, and the copy
    # of the maps of proj that it reads.  Bounded twice, the blocks are not
    # the planner's: each is at most one chunk of pairs and of maps of proj
    step = _chunks(len(canon_t), quarter * max(
        np.dtype(np.intp).itemsize, rows * proj.itemsize), 1,
        fod.BUILD_BYTES)[0].stop
    most = _chunks(k, half * rows * proj.itemsize, 1,
                   fod.BUILD_BYTES)[0].stop
    start = 0
    while start < len(canon_t):
        # The first pairs come in order of t, so this block reads only maps
        # lo ... t[-1] of proj, at most `most` of them.  Their inputs are
        # copied once into columns, coordinate c of map t at row
        # c * k_b + t - lo, as the gathers of several rows read them, and
        # so are the indices, (n/4, pairs).
        block = slice(start, min(start + step, int(np.searchsorted(
            canon_t, canon_t[start] + most))))
        start = block.stop
        t, s = canon_t[block], canon_s[block]
        lo, k_b = t[0], t[-1] + 1 - t[0]
        flat = np.ascontiguousarray(proj.T[:, lo:lo + k_b]).reshape(
            half * k_b, rows).T
        # widened first: k_b * n/4 passes what the maps' dtype holds
        reps = np.multiply(maps.reps.T[:, s], k_b, dtype=np.intp) + (t - lo)
        partners = np.multiply(maps.partners.T[:, s], k_b,
                               dtype=np.intp) + (t - lo)
        decoded = fht_decode(project_llr(flat, SimpleNamespace(
            reps=reps.T, partners=partners.T)).swapaxes(0, 1).reshape(
                -1, quarter))
        lifted[:, block] = _lifted(_lifted(
            decoded.reshape(len(s), rows).T, m - 1, j[s]), m, i[t])
    if counter is not None:
        counter.record(m - 2, rows * k * len(inner))
    # the forms on F_2^(m-1) are below 2^m: held in the fewest bytes, as the
    # level-2 walk holds them all while it runs.  Each pair reads its
    # span's lifted form, a block of rows at a time
    forms = np.empty((k, rows, len(inner)),
                     dtype=np.min_scalar_type((1 << m) - 1))
    h = h[:, None].astype(lifted.dtype)
    for block in _chunks(rows, alias.size * lifted.itemsize, 1,
                         fod.BUILD_BYTES):
        forms[:, block] = drop_bit(lifted[block, alias], h).swapaxes(0, 1)
    return forms.reshape(k * rows, len(inner))


def _decode_lifted(llr: np.ndarray, m: int, indices: range,
                   counter: FodCounter | None = None) -> np.ndarray:
    """A level-2 decoder's first step: the forms (rows, k) decoded from the
    projections of llr's rows onto the k maps of indices, of F_2^m, each
    lifted to be zero on its map (_lift); decoded map by map, a chunk of
    maps at a time whose projections fit BUILD_BYTES (_map_chunks).  Each
    chunk is projected (project_llr), decoded (fht_decode) and lifted by
    one gather from the lifts of coset_table(m) at its maps' offsets; one
    chunk's forms are the result."""
    half = 1 << (m - 1)
    lifted = []
    for maps, offsets in _map_chunks(m, indices, len(llr) * llr.itemsize,
                                     fod.BUILD_BYTES):
        proj = project_llr(llr, maps)
        forms = fht_decode(proj.swapaxes(0, 1).reshape(-1, half), counter)
        lifted.append(coset_table(m).lifts.take(
            offsets + forms.reshape(len(offsets), len(llr)).T))
    return lifted[0] if len(lifted) == 1 else np.concatenate(lifted, axis=1)


# The walk decodes the same ranges of maps over and over: working their
# chunks out on every call cost the one-row RM(7,2) walk about 2% a frame.
@lru_cache(maxsize=128)
def _map_chunks(m: int, indices: range, row_bytes: int,
                budget: int) -> tuple:
    """The chunks of the maps of indices, of F_2^m, whose projections fit
    budget bytes (rmpa.fod._chunks), at row_bytes a projected coordinate,
    in order: the chunk's stacked maps, and the offset (i - 1) * 2^m of
    each map i in the lifts of m read flat.  budget is BUILD_BYTES."""
    return tuple((_stacked_maps(m, indices[maps]),
                  _read_only((top_bits(indices[maps])[0] - 1) << m)[0])
                 for maps in _chunks(len(indices), row_bytes << (m - 1), 1,
                                     budget))


def _shared_step(inner: DecodePlan) -> range | None:
    """inner's first projections if the level-3 iteration above it shares
    quotients, which it does iff inner is level 2; else None."""
    level_2 = inner.steps and not inner.steps[0][1].steps
    return inner.steps[0][0] if level_2 else None


def _walk(node: DecodePlan, llr: np.ndarray, counter: FodCounter | None,
          theta: float | None = None, forms: np.ndarray | None = None):
    """Decode a (batch, 2^m) stack along node; returns (bits, iterations,
    converged).  Only the top call passes theta (inner decoders run their
    full iteration budget), and it tests row 0 alone (batch size 1).  A
    level-3 node whose pairs repeat a span passes its level-2 decoders the
    forms of their first iteration (_shared_forms), (batch, k) of them.

    The rows go through in blocks, the chunks of them whose projections at
    this node fit 4 * BUILD_BYTES (rmpa.fod._chunks), each kernel temporary
    a quarter of that: a level-2 block's traced peak is about its budget
    (1.05 MiB for RM(7,2) RPA on 128 frames and RM(6,2) on 256, 1.12 MiB
    for RM(8,2) RPA on 64), and a level-3 block's 2.4 times it (RM(8,3) MFP
    on 64 frames), as it holds its projections while the shared step and
    the inner walk run.  A block runs every iteration before the next one
    starts, and blocks change no result."""
    if not node.steps:
        return form_bits(fht_decode(llr, counter), node.m), 0, False
    blocks = _chunks(len(llr), node.row_bytes, 1, 4 * fod.BUILD_BYTES)
    if len(blocks) > 1:
        return np.concatenate([
            _walk(node, llr[rows], counter,
                  forms=None if forms is None else forms[rows])[0]
            for rows in blocks]), len(node.steps), False
    iterations, converged = 0, False
    for iterations, (indices, inner) in enumerate(node.steps, 1):
        cmap = _stacked_maps(node.m, indices)
        # a level-2 inner decoder starts from the forms of its first
        # iteration; a deeper one's bits go to aggregate unnamed here, so
        # that they are freed with its last tile
        if forms is None and not inner.steps:
            forms = _decode_lifted(llr, node.m, indices, counter)
        llr_new = (aggregate(llr, cmap, forms=forms) if forms is not None
                   else aggregate(llr, cmap, chat=_inner_bits(
                       node.m, indices, inner, llr, cmap, counter)))
        forms = None
        converged = (theta is not None
                     and _converged(llr[0], llr_new[0], theta))
        llr = llr_new
        if converged:
            break
    return (llr < 0).astype(np.uint8), iterations, converged


def _inner_bits(m: int, indices: range, inner: DecodePlan, llr: np.ndarray,
                cmap: CosetMap, counter: FodCounter | None) -> np.ndarray:
    """The bits that inner decodes from the projections of llr's rows onto
    the k maps cmap of indices, shape (rows, k, 2^(m-1)).  The projections
    are freed before this returns, and so before aggregate runs."""
    proj = project_llr(llr, cmap)
    first = _shared_step(inner)
    shared = (None if first is None else
              _shared_forms(m, indices, first, proj, counter))
    # the inner decoders' rows map by map, as the projections lie in
    # memory: a view, whose bits come back frame by frame
    half = proj.shape[-1]
    bits = _walk(inner, proj.swapaxes(0, 1).reshape(-1, half), counter,
                 forms=shared)[0]
    return np.ascontiguousarray(bits.reshape(
        len(indices), len(llr), half).swapaxes(0, 1))


def _start(llr: np.ndarray, params: CodeParams, cfg: PruningConfig):
    """The plan of params under cfg, and llr checked finite, clamped and
    cast to WALK_DTYPE once: inner levels get boxplus output and later
    iterations the mean of clamped values, which stay within the clamp.  A
    first-order code alone is decoded from the LLRs as given."""
    if not np.isfinite(llr).all():
        raise ValueError("LLRs must be finite, not NaN or inf")
    plan = decode_plan(params, cfg)
    return plan, clamp_llr(llr).astype(WALK_DTYPE) if plan.steps else llr


def decode(llr: np.ndarray, params: CodeParams, cfg: PruningConfig,
           counter: FodCounter | None = None) -> DecodeResult:
    """Decode one LLR vector; see module docstring."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (params.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={params.n}")
    plan, llr = _start(llr, params, cfg)
    counter = FodCounter() if counter is None else counter
    bits, iterations, converged = _walk(plan, llr[None, :], counter,
                                        cfg.early_stop_theta)
    return DecodeResult(codeword=bits[0], fods=counter.snapshot(),
                        iterations_run=iterations, converged_early=converged)


def decode_batch(llr: np.ndarray, params: CodeParams, cfg: PruningConfig,
                 counter: FodCounter | None = None) -> np.ndarray:
    """Decode a (batch, n) stack of independent LLR vectors in one pass.
    Numerically identical to per-vector decode(); early stopping is a
    per-vector rule and is not supported here."""
    if cfg.early_stop_theta is not None:
        raise ValueError("batched decoding does not support early stopping")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 2 or llr.shape[1] != params.n:
        raise ValueError(f"expected shape (batch, {params.n}), got {llr.shape}")
    bits, _, _ = _walk(*_start(llr, params, cfg), counter)
    return bits


def analytic_fod_count(params: CodeParams, cfg: PruningConfig) -> int:
    """First-order-decoding count of a full decode with early stopping off,
    read from the plan decode walks: the nominal count."""
    return decode_plan(params, cfg).fods


def executed_fod_count(params: CodeParams, cfg: PruningConfig) -> int:
    """The first-order decodings a full decode runs, with early stopping
    off: the nominal count less the repeated quotients of the first
    iteration below each level-3 node, which it decodes once."""

    @lru_cache(maxsize=None)
    def executed(node: DecodePlan) -> int:
        if not node.steps:
            return 1
        total = 0
        for indices, inner in node.steps:
            first = _shared_step(inner)
            if first is not None:
                spans = int(np.count_nonzero(
                    _span_classes(node.m, indices, first)[1]))
                total += spans + len(indices) * (inner.fods - len(first))
            else:
                total += len(indices) * executed(inner)
        return total

    return executed(decode_plan(params, cfg))
