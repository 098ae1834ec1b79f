"""Projection-aggregation decoding with a multi-factor pruning schedule.

The pruning factor gamma * delta_itr^(j-1) * delta_rec^(l-2) sets the
fraction of the n-1 coset projections kept at iteration j and recursion
level l.  (1,1,1) is the unpruned decoder; (q,1,1) and (1,1/d,1) recover
the sparse and iteration-decay variants.  Factors may be exact Fractions
so the ceil() in the projection count is free of float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .codes import CodeParams
from .fod import FodCounter, fht_decode
from .geometry import aggregate, build_coset_map, clamp_llr, project_llr

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
    min_sum: bool = False
    # seeded random projection subsets instead of uniform striding
    random_projection_seed: int | None = None

    def __post_init__(self):
        schedule = self.explicit_schedule
        if schedule is not None:
            if isinstance(schedule, dict):
                raise ValueError("a schedule lists its counts from level r "
                                 f"down to level 2, got the dict {schedule}")
            schedule = tuple(schedule)
            object.__setattr__(self, "explicit_schedule", schedule)
            if min(schedule, default=1) < 1:
                raise ValueError(f"schedule counts must be >= 1, got {schedule}")
        if self.n_max is None:
            object.__setattr__(self, "n_max", 3 if schedule is None else 1)
        for name in FACTORS:
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
            if schedule is not None and v != 1:
                raise ValueError(f"{name} does not apply beside a schedule")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.early_stop_theta is not None and self.early_stop_theta <= 0:
            raise ValueError("early-stop threshold must be positive")


@dataclass
class DecodeResult:
    codeword: np.ndarray
    fods: FodCounter
    iterations_run: int
    converged_early: bool


@dataclass(frozen=True)
class DecodePlan:
    """One decode of RM(m, r) under a PruningConfig, fixed in advance.

    steps holds one (kept subspace indices, plan of RM(m-1, r-1)) pair per
    iteration; it is empty at r == 1, where a decode is one FHT.  fods is
    the first-order-decoding cost of one decode with early stopping off."""

    m: int
    steps: tuple
    fods: int


# Each decoder: the keys it takes and the factor triple they give.  A
# schedule keeps the factors at 1 and sets fixed counts per level instead.
DECODERS = {
    "rpa": ((), lambda: (1, 1, 1)),
    "srpa": (("q",), lambda q: (q, 1, 1)),
    "rpa_sch": (("d",), lambda d: (1, 1 / Fraction(d), 1)),
    "mfp": (FACTORS, lambda gamma, delta_itr, delta_rec:
            (gamma, delta_itr, delta_rec)),
    "schedule": (("schedule",), lambda schedule: (1, 1, 1)),
}
# keys that go with every decoder
SHARED_KEYS = ("n_max", "early_stop_theta", "min_sum",
               "random_projection_seed")


def decoder_config(preset: str | None = None, **keys) -> PruningConfig:
    """The PruningConfig that decoder keys describe.

    The decoder is the named preset; without one it is a schedule if one
    is given, else mfp if a factor is, else rpa.  A key set to None counts
    as not given.  Keys the decoder would not use raise ValueError, which
    names all of them."""
    keys = {key: value for key, value in keys.items() if value is not None}
    name = preset or ("schedule" if "schedule" in keys else
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
    try:
        triple = [Fraction(x) for x in factors(**given)]
    except (ArithmeticError, TypeError) as exc:
        raise ValueError(f"bad {name} parameters {given}: {exc}") from exc
    return PruningConfig(*triple, explicit_schedule=given.get("schedule"),
                         **keys)


def preset(name: str, **kwargs) -> PruningConfig:
    """Named decoder configurations; kwargs are the keys DECODERS lists
    for name, plus any of SHARED_KEYS.

    rpa     -> (1, 1, 1)
    srpa    -> (q, 1, 1)
    rpa_sch -> (1, 1/d, 1)
    mfp     -> (gamma, delta_itr, delta_rec)
    """
    return decoder_config(name, **kwargs)


def explicit_schedule_config(counts, r: int, **kwargs) -> PruningConfig:
    """Fixed projection counts per recursion level, given top level first
    (level r down to level 2); a single iteration unless n_max says more."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != r - 1:
        raise ValueError(f"need {r - 1} schedule entries for r={r}, got {len(counts)}")
    return decoder_config(schedule=counts, **kwargs)


def delta(j: int, l: int, cfg: PruningConfig, gamma=None):
    """Fraction of projections kept at iteration j, recursion level l;
    gamma overrides cfg.gamma for the decayed factor handed to inner
    recursion levels."""
    g = cfg.gamma if gamma is None else gamma
    return g * cfg.delta_itr ** (j - 1) * cfg.delta_rec ** (l - 2)


def num_projections(n: int, j: int, l: int, cfg: PruningConfig,
                    gamma=None) -> int:
    """The schedule's count for level l, else ceil(delta * (n-1))."""
    if cfg.explicit_schedule is not None:
        # the schedule ends with level 2
        return cfg.explicit_schedule[1 - l]
    return math.ceil(delta(j, l, cfg, gamma) * (n - 1))


def select_projection_indices(n: int, np_: int, rng=None) -> list:
    """np_ subspace indices uniformly strided over [1, n-1] (or a seeded
    random subset when rng is given)."""
    if not 1 <= np_ <= n - 1:
        raise ValueError(f"projection count {np_} outside [1, {n - 1}]")
    if rng is not None:
        return sorted(rng.choice(np.arange(1, n), size=np_, replace=False).tolist())
    stride = (n - 1) // np_
    return [t * stride + 1 for t in range(np_)]


def check_convergence(l_old: np.ndarray, l_new: np.ndarray, theta: float) -> bool:
    """True iff every coordinate changed by less than theta * |old value|."""
    l_old = np.asarray(l_old, dtype=np.float64)
    l_new = np.asarray(l_new, dtype=np.float64)
    if l_old.shape != l_new.shape:
        raise ValueError("LLR vectors must have equal length")
    return bool(np.all(np.abs(l_new - l_old) < theta * np.abs(l_old)))


@lru_cache(maxsize=64)
def decode_plan(params: CodeParams, cfg: PruningConfig) -> DecodePlan:
    """The plan every decode of params under cfg walks.  Seeded random
    projection subsets are drawn here, in decoding order, so all decodes
    under one config share them."""
    if params.r < 1:
        raise ValueError("decoding requires r >= 1")
    schedule = cfg.explicit_schedule
    if schedule is not None and len(schedule) != params.r - 1:
        raise ValueError(f"RM({params.m},{params.r}) needs {params.r - 1} "
                         f"schedule counts (levels {params.r} down to 2), "
                         f"got {len(schedule)}")
    rng = (np.random.default_rng(cfg.random_projection_seed)
           if cfg.random_projection_seed is not None else None)

    def compile_level(m, r, g) -> DecodePlan:
        if r == 1:
            return DecodePlan(m=m, steps=(), fods=1)
        n = 1 << m
        steps = []
        for j in range(1, cfg.n_max + 1):
            indices = tuple(select_projection_indices(
                n, num_projections(n, j, r, cfg, gamma=g), rng=rng))
            # inner levels start from the factor decayed to this iteration
            steps.append((indices, compile_level(
                m - 1, r - 1, g * cfg.delta_itr ** (j - 1))))
        return DecodePlan(m=m, steps=tuple(steps), fods=sum(
            len(idx) * inner.fods for idx, inner in steps))

    return compile_level(params.m, params.r, cfg.gamma)


def _walk(node: DecodePlan, llr: np.ndarray, cfg: PruningConfig,
          counter: FodCounter | None, theta: float | None = None):
    """Decode a (batch, 2^m) stack along node; returns (bits, iterations,
    converged).  Only the top call passes theta (inner decoders run their
    full iteration budget), and it tests row 0 alone (batch size 1)."""
    if not node.steps:
        return fht_decode(llr, counter, level=node.m), 0, False
    half = 1 << (node.m - 1)
    llr = clamp_llr(llr)
    iterations, converged = 0, False
    for iterations, (indices, inner) in enumerate(node.steps, 1):
        projected = np.stack([
            project_llr(llr, build_coset_map(node.m, i), min_sum=cfg.min_sum)
            for i in indices])
        chat, _, _ = _walk(inner, projected.reshape(-1, half), cfg, counter)
        chat = chat.reshape(len(indices), llr.shape[0], half)
        llr_new = clamp_llr(aggregate(llr, list(zip(indices, chat))))
        converged = (theta is not None
                     and check_convergence(llr[0], llr_new[0], theta))
        llr = llr_new
        if converged:
            break
    return (llr < 0).astype(np.uint8), iterations, converged


def decode(llr: np.ndarray, params: CodeParams, cfg: PruningConfig,
           counter: FodCounter | None = None) -> DecodeResult:
    """Decode one LLR vector; see module docstring."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (params.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={params.n}")
    if not np.isfinite(llr).all():
        raise ValueError("LLRs must be finite, not NaN or inf")
    counter = FodCounter() if counter is None else counter
    bits, iterations, converged = _walk(
        decode_plan(params, cfg), llr[None, :], cfg, counter,
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
    if not np.isfinite(llr).all():
        raise ValueError("LLRs must be finite, not NaN or inf")
    bits, _, _ = _walk(decode_plan(params, cfg), llr, cfg, counter)
    return bits


def analytic_fod_count(params: CodeParams, cfg: PruningConfig) -> int:
    """First-order-decoding count of a full decode with early stopping off,
    read from the plan decode walks."""
    return decode_plan(params, cfg).fods
