"""Projection-aggregation decoding with a multi-factor pruning schedule.

The pruning factor gamma * delta_itr^(j-1) * delta_rec^(l-2) sets the
fraction of the n-1 coset projections kept at iteration j and recursion
level l.  (1,1,1) is the unpruned decoder; (q,1,1) and (1,1/d,1) recover
the sparse and iteration-decay variants.  Factors may be exact Fractions
so the ceil() in the projection count is free of float rounding.

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
whose inner decoder is first-order build the signs of their aggregation
from the decoded forms (rmpa.geometry.form_signs), from the form tables of
rmpa.fod.

The walk runs in float32 (WALK_DTYPE): decode and decode_batch clamp the
LLRs and cast them once, and every projection, first-order decoding,
aggregation and convergence test below computes in that dtype, with the
float32 tie band of rmpa.fod.  A first-order code decoded alone has no walk
and is decoded from its float64 LLRs as given.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .codes import CodeParams, _is_int
from .fod import FodCounter, _read_only, float_array, fht_decode, form_bits
from .geometry import (CosetMap, aggregate, clamp_llr, coset_signs,
                       coset_table, drop_bit, form_signs, insert_zero_bit,
                       project_llr, top_bits)

FACTORS = ("gamma", "delta_itr", "delta_rec")


@dataclass(frozen=True, eq=False)
class PruningConfig:
    """Pruning factors plus iteration cap; fully determines decoder
    behavior and complexity (early stopping aside)."""

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
    r == 1, the row itself).  It does not count the inner nodes, which
    block their own rows."""

    m: int
    steps: tuple
    fods: int
    row_bytes: int


# The float dtype the decode walk computes in.  float32 runs the walk's
# exp, log, log1p and Hadamard products about twice as fast as float64, and
# the float32 tie band of fht_decode keeps decoded bits independent of how
# BLAS sums.
WALK_DTYPE = np.dtype(np.float32)
# Bytes of projections one block of rows may hold at a node (row_bytes per
# row); the node's inner walk takes those rows in blocks of its own.  A
# level-2 block's traced peak is about 3 times this where its aggregation
# takes the rows coordinates first: the projection's result and its two
# gathered operands, and then the gathered partner LLRs, twice this.  With
# few rows the row-major aggregation holds its (rows, k, n) signs beside
# them, about 4.5 times this, and so does a level-3 decode, as the level-3
# block holds its projections and shared forms meanwhile.  Blocks change
# no result.
BLOCK_BYTES = 1 << 20
# Keep freed block temporaries mapped, not faulted in again zeroed: 32 MiB
# caps glibc's dynamic mmap threshold on 64-bit; glibc trims at twice that.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def _keep_freed_memory() -> bool:
    try:
        glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
        mallopt(-3, MMAP_THRESHOLD_BYTES)  # M_MMAP_THRESHOLD
        mallopt(-1, TRIM_THRESHOLD_BYTES)  # M_TRIM_THRESHOLD
    return glibc


_keep_freed_memory()


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
        raise ValueError(f"bad {name} parameters {given}: {exc}") from exc
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


def check_convergence(l_old: np.ndarray, l_new: np.ndarray, theta: float) -> bool:
    """True iff every coordinate changed by less than theta * |old value|,
    compared in the LLRs' float dtype (float_array)."""
    l_old = float_array(l_old)
    l_new = float_array(l_new)
    if l_old.shape != l_new.shape:
        raise ValueError("LLR vectors must have equal length")
    return _converged(l_old, l_new, theta)


def _converged(l_old: np.ndarray, l_new: np.ndarray, theta: float) -> bool:
    """check_convergence of two arrays of one float dtype and shape, as the
    walk holds them, without converting or checking them."""
    return bool((np.abs(l_new - l_old) < theta * np.abs(l_old)).all())


# The kept subspaces are strided, so their maps are views of the one coset
# table of m; plans hold only the ranges, so compiling one builds no table.
@lru_cache(maxsize=128)
def _stacked_maps(m: int, indices: range) -> CosetMap:
    return coset_table(m)[indices.start - 1:indices.stop - 1:indices.step]


_top_bits = lru_cache(maxsize=128)(top_bits)


@lru_cache(maxsize=64)
def decode_plan(params: CodeParams, cfg: PruningConfig) -> DecodePlan:
    """The plan every decode of params under cfg walks.

    This is the one place the pruning rule lives: iteration j at level r
    keeps the schedule's count for level r, else ceil(g_j *
    delta_rec^(r-2) * (n-1)) subspaces, where g_j = g * delta_itr^(j-1)
    and g is gamma at the top level and the caller's g_j below it.  Inner
    decoders of equal (m, r, g) are one node."""
    if params.r < 1:
        raise ValueError("decoding requires r >= 1")
    schedule = cfg.explicit_schedule
    if schedule is not None and len(schedule) != params.r - 1:
        raise ValueError(f"RM({params.m},{params.r}) needs {params.r - 1} "
                         f"schedule counts (levels {params.r} down to 2), "
                         f"got {len(schedule)}")

    @lru_cache(maxsize=None)
    def compile_level(m, r, g) -> DecodePlan:
        if r == 1:
            return DecodePlan(m=m, steps=(), fods=1,
                              row_bytes=WALK_DTYPE.itemsize << m)
        n = 1 << m
        steps = []
        for j in range(1, cfg.n_max + 1):
            # the factor decayed to iteration j; inner levels start from it
            g_j = g * cfg.delta_itr ** (j - 1)
            count = (schedule[params.r - r] if schedule is not None else
                     math.ceil(g_j * cfg.delta_rec ** (r - 2) * (n - 1)))
            indices = select_projection_indices(n, count)
            steps.append((indices, compile_level(m - 1, r - 1, g_j)))
        # a row holds the projections of one iteration at a time
        widest = max(len(indices) for indices, _ in steps)
        return DecodePlan(
            m=m, steps=tuple(steps),
            fods=sum(len(indices) * inner.fods for indices, inner in steps),
            row_bytes=widest * (WALK_DTYPE.itemsize << (m - 1)))

    return compile_level(params.m, params.r, cfg.gamma)


# A form f = b + 2^m * u0 names the codeword u0 ^ <b, z> (rmpa.fod).


def _parities() -> np.ndarray:
    """The parity of the bits of every 16-bit number, past the m of any
    code that can be decoded."""
    x = np.arange(1 << 16, dtype=np.uint16)
    for shift in (8, 4, 2, 1):
        x ^= x >> shift
    return (x & 1).astype(np.uint8)


_PARITY = _parities()


def _lift(f: np.ndarray, h: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The forms f on F_2^m as forms on F_2^(m+1) that are zero on i, whose
    top bit is h: f with a 0 inserted at bit h, so that it is unchanged on
    the z with bit h clear (the coset representatives of {0, i}), then bit
    h set where that makes it orthogonal to i."""
    b = insert_zero_bit(f, h)
    return b | (_PARITY.take(b & i) << h)


def _spans(m: int, outer: range, inner: range) -> np.ndarray:
    """The span of each pair (t, s) of a level-3 node's iteration, shape
    (k_i, k_j): pair (t, s) projects onto i = outer[t], whose top bit is h,
    and then onto j = inner[s], which is the projection onto
    span{i, lift_h(j)}, named by two of its three nonzero members."""
    i, h = _top_bits(outer)
    i, h = i[:, None], h[:, None]
    v = insert_zero_bit(_top_bits(inner)[0], h)
    w = i ^ v
    return (np.minimum(np.minimum(i, v), w) << m) | np.maximum(
        np.maximum(i, v), w)


# A decode reads one share table per iteration of each level-3 node, and a
# table is (k_i, k_j) int32, 2 MB at RM(10,3) full RPA: the cache holds the
# tables of a few decodes, not those of every iteration of a long decaying
# schedule.
@lru_cache(maxsize=8)
def _shared_quotients(m: int, outer: range, inner: range) -> tuple:
    """Which first-order decodings of a level-3 node's iteration repeat.

    Returns the pairs (t, s) that come first in order for their span
    (_spans), as arrays of t and of s, and the (k_i, k_j) int32 index of
    each pair's span among them."""
    span = _spans(m, outer, inner)
    _, first, alias = np.unique(span.ravel(), return_index=True,
                                return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order))
    canon_t, canon_s = np.divmod(first[order], len(inner))
    return _read_only(canon_t, canon_s, rank[alias].reshape(span.shape))


def _shared_forms(m: int, outer: range, inner: range, proj: np.ndarray,
                  counter: FodCounter | None) -> np.ndarray:
    """The forms that the first iteration of the level-2 decoders below a
    level-3 node decodes, shape (rows * k_i, k_j): those of the projections
    proj, (rows, k_i, 2^(m-1)), onto outer, each projected onto inner.

    Soft projections commute, so the pairs that span one subspace decode one
    quotient.  Its first pair is projected and decoded, with the same
    arithmetic as its own level-2 decoder; the decoded form lifts to a form
    on F_2^m that is zero on the span, and every pair reads it as a form on
    its own F_2^(m-1).  The counter gets the FODs of every pair.  Where no
    two pairs share a span this returns None: the level-2 decoders then
    decode their own quotients."""
    canon_t, canon_s, alias = _shared_quotients(m, outer, inner)
    if alias.size == len(canon_t):
        return None
    rows, k, half = proj.shape
    quarter = half // 2
    i, h = _top_bits(outer)
    j, hj = _top_bits(inner)
    maps = _stacked_maps(m - 1, inner)
    lifted = np.empty((rows, len(canon_t)), dtype=np.int32)
    # a block's projections and their two index arrays fit in BLOCK_BYTES
    width = max(1, BLOCK_BYTES // (quarter * (rows * proj.itemsize
                                              + 2 * maps.reps.itemsize)))
    for start in range(0, len(canon_t), width):
        t = canon_t[start:start + width]
        s = canon_s[start:start + width]
        # The first pairs come in order of t, so this block reads only maps
        # lo ... t[-1] of proj.  Their inputs are laid out cosets first,
        # coordinate c of map t at c * k_b + t - lo, as the projections of
        # several rows lie in memory; the indices are built as columns,
        # (n/4, pairs), as the gathers of several rows read them.
        lo, k_b = t[0], t[-1] + 1 - t[0]
        flat = proj[:, lo:lo + k_b].transpose(0, 2, 1).reshape(
            rows, half * k_b)
        reps = maps.reps.T[:, s] * k_b + (t - lo)
        partners = maps.partners.T[:, s] * k_b + (t - lo)
        forms = fht_decode(_columns(project_llr(flat, SimpleNamespace(
            reps=reps.T, partners=partners.T))))
        lifted[:, start:start + width] = _lift(_lift(
            forms.reshape(len(t), rows).T, hj[s], j[s]), h[t], i[t])
    if counter is not None:
        counter.record(m - 2, rows * k * len(inner))
    # the forms on F_2^(m-1) are below 2^m: held in the fewest bytes, as the
    # level-2 walk holds them all while it runs
    forms = drop_bit(lifted[:, alias], h[:, None].astype(np.int32))
    return forms.astype(np.min_scalar_type((1 << m) - 1)).reshape(
        rows * k, len(inner))


def _columns(proj: np.ndarray) -> np.ndarray:
    """The projections (rows, k, n/2) of project_llr as a (k * rows, n/2)
    view, map by map: one first-order input per row, on the first axis."""
    return proj.swapaxes(0, 1).reshape(-1, proj.shape[-1])


def _walk(node: DecodePlan, llr: np.ndarray, counter: FodCounter | None,
          theta: float | None = None, forms: np.ndarray | None = None):
    """Decode a (batch, 2^m) stack along node; returns (bits, iterations,
    converged).  Only the top call passes theta (inner decoders run their
    full iteration budget), and it tests row 0 alone (batch size 1).  A
    level-3 node whose pairs repeat a span passes its level-2 decoders the
    forms of their first iteration (_shared_forms), (batch, k) of them.

    The rows go through in blocks: as many rows as keep the block's
    projections at this node within BLOCK_BYTES, and at least one.  Each
    block runs every iteration before the next block starts."""
    if not node.steps:
        return form_bits(fht_decode(llr, counter), node.m), 0, False
    rows = max(1, BLOCK_BYTES // node.row_bytes)
    if len(llr) > rows:
        return np.concatenate([
            _walk(node, llr[start:start + rows], counter,
                  forms=None if forms is None else forms[start:start + rows]
                  )[0]
            for start in range(0, len(llr), rows)]), len(node.steps), False
    iterations, converged = 0, False
    half = llr.shape[-1] // 2
    for iterations, (indices, inner) in enumerate(node.steps, 1):
        cmap = _stacked_maps(node.m, indices)
        # the projections are freed before the signs are built; a level-2
        # inner decoder starts from the forms of its first iteration
        if forms is None and not inner.steps:
            i, h = _top_bits(indices)
            forms = _lift(fht_decode(_columns(project_llr(llr, cmap)),
                                     counter).reshape(len(i), len(llr)).T,
                          h, i)
        if forms is not None:
            signs = form_signs(forms, node.m, llr.dtype)
        else:
            proj = project_llr(llr, cmap)
            first, below = inner.steps[0]
            shared = (None if below.steps else
                      _shared_forms(node.m, indices, first, proj, counter))
            # the inner decoders' rows frame by frame: a copy, and the
            # projections as columns are freed before the inner walk
            proj = proj.reshape(-1, half)
            chat = _walk(inner, proj, counter, forms=shared)[0]
            del proj, shared
            signs = (coset_signs(cmap,
                                 chat.reshape(len(llr), len(indices), half),
                                 llr.dtype),)
        forms = chat = None
        llr_new = aggregate(llr, cmap, *signs)
        del signs
        converged = (theta is not None
                     and _converged(llr[0], llr_new[0], theta))
        llr = llr_new
        if converged:
            break
    return (llr < 0).astype(np.uint8), iterations, converged


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
            if inner.steps and not inner.steps[0][1].steps:
                first = inner.steps[0][0]
                # counted sorted: numpy's hashed unique is slower here
                span = np.sort(_spans(node.m, indices, first), axis=None)
                spans = 1 + np.count_nonzero(span[1:] != span[:-1])
                total += spans + len(indices) * (inner.fods - len(first))
            else:
                total += len(indices) * executed(inner)
        return total

    return executed(decode_plan(params, cfg))
