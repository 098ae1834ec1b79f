"""Correctness checks that do not rely on the program's own outputs.

The benchmark builds RM(m, r) and its dual RM(m, m-r-1) itself, from the
evaluations of monomials in the bits of the coordinate index z, and compares
the program's counts with the paper's numbers.  Nothing here imports rmpa.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# z of the Wilson interval in the FER check: a two-sided tail of 6.3e-5
FER_Z = 4.0


def monomial_matrix(m: int, degree: int) -> np.ndarray:
    """Rows are the evaluations over z in [0, 2^m) of every monomial of
    degree <= `degree` in the bits of z; they generate RM(m, degree)."""
    n = 1 << m
    bits = (np.arange(n)[None, :] >> np.arange(m)[:, None]) & 1
    rows = []
    for d in range(degree + 1):
        for subset in itertools.combinations(range(m), d):
            row = np.ones(n, dtype=np.uint8)
            for i in subset:
                row &= bits[i].astype(np.uint8)
            rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), n)


def parity_failures(words: np.ndarray, m: int, r: int) -> np.ndarray:
    """Indices of the rows of `words` that are not codewords of RM(m, r),
    by a parity check against the dual code RM(m, m-r-1)."""
    words = np.atleast_2d(np.asarray(words)).astype(np.int64)
    if words.shape[1] != 1 << m:
        raise ValueError(f"words must have length {1 << m}")
    dual = monomial_matrix(m, m - r - 1).astype(np.int64)
    syndromes = (words @ dual.T) % 2
    return np.nonzero(syndromes.any(axis=1))[0]


def codeword_sign_llrs(m: int, r: int, count: int, rng: np.random.Generator):
    """`count` random codewords of RM(m, r) and LLRs whose signs form them
    (positive LLR for a 0 bit), with magnitudes in [1, 4)."""
    gen = monomial_matrix(m, r).astype(np.int64)
    msgs = rng.integers(0, 2, size=(count, gen.shape[0]))
    words = ((msgs @ gen) % 2).astype(np.uint8)
    magnitudes = rng.uniform(1.0, 4.0, size=words.shape)
    return words, (1.0 - 2.0 * words) * magnitudes


def recount_errors(sent: np.ndarray, decoded: np.ndarray):
    """(frame errors, bit errors) of decoded against sent words."""
    wrong = np.asarray(sent) != np.asarray(decoded)
    return int(wrong.any(axis=1).sum()), int(wrong.sum())


def fod_problems(fods_total: int, frames: int, exact: int | None = None,
                 step: tuple | None = None, per_frame=None) -> list:
    """Reasons the FOD counts are wrong; empty when they are right.

    `exact` is the count every frame must cost.  `step` is (step, low,
    high) for early stopping: every frame costs a whole multiple of `step`
    FODs between `low` and `high`, checked per frame when `per_frame`
    gives the counts and on the total otherwise."""
    problems = []
    if exact is not None and fods_total != exact * frames:
        problems.append(f"{fods_total} FODs for {frames} frames, "
                        f"expected {exact} per frame")
    if step is not None:
        unit, low, high = step
        in_range = low * frames <= fods_total <= high * frames
        if fods_total % unit or not in_range:
            problems.append(f"{fods_total} FODs for {frames} frames is not a "
                            f"multiple of {unit} in [{low}, {high}] per frame")
        if per_frame is not None:
            per_frame = [int(f) for f in per_frame]
            bad = [f for f in per_frame if f % unit or not low <= f <= high]
            if bad:
                problems.append(f"per-frame FOD counts {sorted(set(bad))} are "
                                f"not multiples of {unit} in [{low}, {high}]")
            if sum(per_frame) != fods_total:
                problems.append(f"per-frame FODs sum to {sum(per_frame)}, "
                                f"the sweep reports {fods_total}")
    return problems


def wilson_interval(errors: int, trials: int, z: float = FER_Z):
    """Wilson score interval for a binomial proportion."""
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return center - half, center + half


def fer_consistent(errors: int, trials: int, paper_fer: float,
                   tolerance: float, z: float = FER_Z) -> bool:
    """True when the Wilson interval of the observed FER meets the band
    [paper_fer / (1 + tolerance), paper_fer * (1 + tolerance)]."""
    lo, hi = wilson_interval(errors, trials, z)
    return (lo <= paper_fer * (1 + tolerance)
            and hi >= paper_fer / (1 + tolerance))
