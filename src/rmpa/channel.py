"""BPSK/AWGN channel model and a reproducible Monte Carlo FER/BER harness.

Convention: unit-energy BPSK (0 -> +1, 1 -> -1), per-dimension noise
variance sigma^2 = 1 / (2 * R * 10^(EbN0_dB / 10)), channel LLR 2y/sigma^2.
Every frame draws its randomness from an RNG keyed by (seed, SNR-point
index, frame index), so results do not depend on batching or worker count.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from statistics import NormalDist

import numpy as np

from .codes import CodeParams, build_generator, encode
from .decoder import PruningConfig, decode, decode_batch, decode_plan
from .fod import FodCounter
from .geometry import LLR_CLAMP

RESULT_SCHEMA_VERSION = 1
CSV_COLUMNS = ["ebno_db", "frames", "frame_errors", "bit_errors", "fer",
               "ber", "fods_total", "fods_per_frame", "wall_seconds"]


@dataclass(frozen=True)
class ChannelConfig:
    ebno_db: float
    rate: float

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    @property
    def sigma(self) -> float:
        return (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0)) ** -0.5


@dataclass(frozen=True)
class SimConfig:
    code: CodeParams
    decoder: PruningConfig
    ebno_points: tuple
    min_frame_errors: int = 100
    max_frames: int = 10 ** 7
    seed: int = 0
    message_mode: str = "random"
    # frames decoded per batched decoder call; does not affect results
    chunk_frames: int = 64
    workers: int = 1
    # wall_seconds is the only non-deterministic output field; turn it off
    # when byte-identical outputs are required
    record_timing: bool = True

    def __post_init__(self):
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if self.max_frames < self.min_frame_errors:
            raise ValueError("max_frames must be >= min_frame_errors")
        if self.message_mode not in ("random", "all_zero"):
            raise ValueError(f"unknown message_mode {self.message_mode!r}")
        if self.chunk_frames < 1 or self.workers < 1:
            raise ValueError("chunk_frames and workers must be >= 1")
        # a decoder that does not fit the code fails here, not mid-sweep
        decode_plan(self.code, self.decoder)


@dataclass
class FerPoint:
    ebno_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    fods_total: int
    fods_per_frame: float
    wall_seconds: float


def transmit(c: np.ndarray, ch: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """BPSK-modulate and add white Gaussian noise."""
    c = np.asarray(c)
    return (1.0 - 2.0 * c) + rng.normal(0.0, ch.sigma, size=c.shape)


def llr_from_channel(y: np.ndarray, ch: ChannelConfig) -> np.ndarray:
    """L(z) = 2 y(z) / sigma^2, clamped."""
    l = 2.0 * np.asarray(y, dtype=np.float64) / ch.sigma ** 2
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)


def _frame_rng(seed: int, point: int, frame: int) -> np.random.Generator:
    return np.random.default_rng((seed, point, frame))


def _run_chunk(cfg: SimConfig, gen: np.ndarray, ch: ChannelConfig,
               point: int, start: int, count: int):
    """Simulate frames [start, start+count); returns per-frame error stats."""
    n = cfg.code.n
    k = cfg.code.k
    sent = np.empty((count, n), dtype=np.uint8)
    llrs = np.empty((count, n))
    for t in range(count):
        rng = _frame_rng(cfg.seed, point, start + t)
        if cfg.message_mode == "random":
            msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        else:
            msg = np.zeros(k, dtype=np.uint8)
        sent[t] = encode(msg, gen)
        llrs[t] = llr_from_channel(transmit(sent[t], ch, rng), ch)
    if cfg.decoder.early_stop_theta is not None:
        rows = []
        frame_fods = np.empty(count, dtype=np.int64)
        for t in range(count):
            res = decode(llrs[t], cfg.code, cfg.decoder)
            rows.append(res.codeword)
            frame_fods[t] = res.fods.total
        decoded = np.stack(rows)
    else:
        counter = FodCounter()
        decoded = decode_batch(llrs, cfg.code, cfg.decoder, counter)
        fods = decode_plan(cfg.code, cfg.decoder).fods
        if counter.total != count * fods:
            raise RuntimeError(f"decoder counted {counter.total} FODs for "
                               f"{count} frames of {fods} each")
        frame_fods = np.full(count, fods, dtype=np.int64)
    bit_errs = np.sum(decoded != sent, axis=1)
    return bit_errs, frame_fods


def run_point(cfg: SimConfig, gen: np.ndarray, ebno_db: float,
              point: int) -> FerPoint:
    """Monte Carlo at one SNR point, stopping at min_frame_errors or
    max_frames, whichever comes first."""
    ch = ChannelConfig(ebno_db=ebno_db, rate=cfg.code.rate)
    t0 = time.perf_counter()
    frames = frame_errors = bit_errors = fods_total = 0
    done = False
    next_frame = 0
    pool = (ThreadPoolExecutor(max_workers=cfg.workers)
            if cfg.workers > 1 else None)
    try:
        while not done and next_frame < cfg.max_frames:
            starts = []
            while (len(starts) < max(cfg.workers, 1)
                   and next_frame < cfg.max_frames):
                count = min(cfg.chunk_frames, cfg.max_frames - next_frame)
                starts.append((next_frame, count))
                next_frame += count
            work = [(cfg, gen, ch, point, s, c) for s, c in starts]
            if pool is not None:
                results = list(pool.map(lambda a: _run_chunk(*a), work))
            else:
                results = [_run_chunk(*a) for a in work]
            # scan frames strictly in order so the stopping frame (and
            # therefore every statistic) is independent of batching
            for (start, count), (bit_errs, frame_fods) in zip(starts, results):
                for t in range(count):
                    frames += 1
                    fods_total += int(frame_fods[t])
                    if bit_errs[t] > 0:
                        frame_errors += 1
                        bit_errors += int(bit_errs[t])
                    if frame_errors >= cfg.min_frame_errors:
                        done = True
                        break
                if done:
                    break
    finally:
        if pool is not None:
            pool.shutdown()
    wall = time.perf_counter() - t0 if cfg.record_timing else 0.0
    return FerPoint(
        ebno_db=float(ebno_db), frames=frames, frame_errors=frame_errors,
        bit_errors=bit_errors, fer=frame_errors / frames,
        ber=bit_errors / (frames * cfg.code.n), fods_total=fods_total,
        fods_per_frame=fods_total / frames, wall_seconds=wall)


def run_sweep(cfg: SimConfig, progress=None) -> list:
    """FER/BER sweep over cfg.ebno_points; fully reproducible from seed."""
    gen = build_generator(cfg.code)
    points = []
    for idx, ebno in enumerate(cfg.ebno_points):
        pt = run_point(cfg, gen, ebno, idx)
        points.append(pt)
        if progress is not None:
            progress(pt)
    return points


def points_to_csv(points, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in points:
        writer.writerow([repr(getattr(p, col)) if isinstance(getattr(p, col), float)
                         else getattr(p, col) for col in CSV_COLUMNS])


def points_to_json(points) -> str:
    return json.dumps({
        "schema_version": RESULT_SCHEMA_VERSION,
        "points": [asdict(p) for p in points],
    }, indent=2)


def csv_string(points) -> str:
    buf = io.StringIO()
    points_to_csv(points, buf)
    return buf.getvalue()


def binomial_ci(errors: int, trials: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1 - phat) / trials
                          + z * z / (4 * trials * trials)) ** 0.5
    return center - half, center + half


def two_proportion_pvalue(err1: int, n1: int, err2: int, n2: int) -> float:
    """One-sided z-test p-value for H1: p1 < p2 (pooled variance)."""
    p1, p2 = err1 / n1, err2 / n2
    pooled = (err1 + err2) / (n1 + n2)
    se = (pooled * (1 - pooled) * (1 / n1 + 1 / n2)) ** 0.5
    if se == 0:
        return 1.0
    z = (p2 - p1) / se
    return NormalDist().cdf(-z)
