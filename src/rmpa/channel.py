"""BPSK/AWGN channel model and a reproducible Monte Carlo FER/BER harness.

Convention: unit-energy BPSK (0 -> +1, 1 -> -1), per-dimension noise
variance sigma^2 = 1 / (2 * R * 10^(EbN0_dB / 10)), channel LLR 2y/sigma^2.
Every frame draws its randomness from the stream that
np.random.default_rng((seed, SNR-point index, frame index)) gives, so
results do not depend on batching or worker count.  The message bits are
those rng.integers(0, 2, dtype=np.uint8) draws, read off the stream's raw
words; encode takes the parity of its float64 product in integers.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from statistics import NormalDist

import numpy as np

from .codes import CodeParams, _is_int, build_generator, encode
from .decoder import (PruningConfig, _is_real, decode, decode_batch,
                      decode_plan)
from .fod import FodCounter
from .geometry import LLR_CLAMP

RESULT_SCHEMA_VERSION = 1
# each worker is a thread and runs one chunk per round
MAX_WORKERS = 256
# frames that go through the channel and the decoder together; no result
# depends on it
CHUNK_FRAMES = 64
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
    workers: int = 1
    # wall_seconds is the only non-deterministic output field; turn it off
    # when byte-identical outputs are required
    record_timing: bool = True

    def __post_init__(self):
        for name in ("min_frame_errors", "max_frames", "workers"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if self.max_frames < self.min_frame_errors:
            raise ValueError("max_frames must be >= min_frame_errors")
        # the frame streams hash the seed's 32-bit words themselves
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in [1, {MAX_WORKERS}], "
                             f"got {self.workers}")
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


def transmit(c: np.ndarray, ch: ChannelConfig,
             noise: np.ndarray) -> np.ndarray:
    """BPSK-modulate c and add white Gaussian noise; noise holds
    standard-normal draws of c's shape."""
    return (1.0 - 2.0 * np.asarray(c)) + ch.sigma * np.asarray(noise)


def llr_from_channel(y: np.ndarray, ch: ChannelConfig) -> np.ndarray:
    """L(z) = 2 y(z) / sigma^2, clamped."""
    l = 2.0 * np.asarray(y, dtype=np.float64) / ch.sigma ** 2
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h); NEP 19
# keeps both seedings stable across numpy versions
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list:
    """n's little-endian 32-bit words, as SeedSequence splits an entropy
    integer; 0 is one word."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants a SeedSequence hash steps through in its first calls:
    init * mult^i mod 2^32 for i <= calls."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One SeedSequence hash call per column of values, column i with
    consts[i] and consts[i + 1]: xor, multiply, fold the high half down."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = x * _MIX_MULT_L - y * _MIX_MULT_R
    return values ^ values >> 16


def _seed_pools(seed: int, point: int, frames: range) -> np.ndarray:
    """The pools of SeedSequence((seed, point, frame)), one uint32 row of 4
    per frame: numpy's mix_entropy run on all the frames at once."""
    head = _uint32_words(seed) + _uint32_words(point)
    frame = np.array(frames, dtype=object)
    # frames increase, so the last one has the most words
    tail = [frame >> (32 * j)
            for j in range(len(_uint32_words(frames[-1])))]
    width = max(4, len(head) + len(tail))
    entropy = np.zeros((len(frames), width), dtype=np.uint32)
    entropy[:, :len(head)] = head
    for j, word in enumerate(tail):
        entropy[:, len(head) + j] = (word & _MASK32).astype(np.uint32)
    # a frame's words end at its highest nonzero one
    length = len(head) + 1 + sum(word[:, None] != 0 for word in tail[1:])
    # mix_entropy makes 4 * width hash calls; the zero padding of a short
    # entropy is its hashmix(0)
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * width)
    pool = _hash(entropy[:, :4], consts[:5])
    for src in range(4):
        # the source word is hashed once for each other word, in order,
        # and the other words do not change it
        dst = [i for i in range(4) if i != src]
        call = 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None],
                                                consts[call:call + 4]))
    # words past the pool are mixed into all of it, on the frames that
    # have them
    for src in range(4, width):
        mixed = _mix(pool, _hash(entropy[:, src, None],
                                 consts[4 * src:4 * src + 5]))
        pool = np.where(src < length, mixed, pool)
    return pool


def _frame_states(seed: int, point: int, frames: range) -> list:
    """The PCG64 state of np.random.default_rng((seed, point, frame)) for
    each frame: generate_state(4, uint64) of the frame's pool, then PCG's
    setseq seeding of (state, inc) in Python's 128-bit integers."""
    pools = _seed_pools(seed, point, frames)
    # generate_state hashes 8 words, cycling through the pool
    words = _hash(np.tile(pools, 2),
                  _hash_consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    states = []
    # uint64 word j is 32-bit words 2j (low) and 2j + 1 (high)
    for s_hi, s_lo, i_hi, i_lo in (words[:, 0::2]
                                   | words[:, 1::2] << 32).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _draw_frames(seed: int, point: int, frames: range, k: int,
                 n: int) -> tuple:
    """The messages (frames, k) and standard-normal noise (frames, n) of the
    frames: what rng.integers(0, 2, size=k, dtype=np.uint8) and then
    rng.standard_normal(n) draw from np.random.default_rng((seed, point,
    frame)), each stream set in turn on one Generator this call owns.

    integers takes one byte per bit from the 32-bit halves of the 64-bit
    words, low half first, and keeps the byte's top bit (Lemire's method,
    which never rejects a range of 2).  So bit j is the top bit of byte j
    of the frame's first ceil(k/8) raw words, read little-endian, and the
    bits of the whole chunk are read at once.  The noise starts at the
    next whole word, as standard_normal ignores a half word left over."""
    words = np.empty((len(frames), -(-k // 8)), dtype=np.uint64)
    noise = np.empty((len(frames), n))
    pcg = np.random.PCG64(0)
    rng = np.random.Generator(pcg)
    for t, state in enumerate(_frame_states(seed, point, frames)):
        pcg.state = state
        words[t] = pcg.random_raw(words.shape[1])
        rng.standard_normal(out=noise[t])
    return words.astype("<u8", copy=False).view(np.uint8)[:, :k] >> 7, noise


def _run_chunk(cfg: SimConfig, gen: np.ndarray, ch: ChannelConfig,
               point: int, frames: range):
    """Simulate the given frames; returns per-frame bit errors and FODs.

    Only the draws are made frame by frame (_draw_frames), each from its
    frame's own stream: the message, then the noise.  Seeding, encoding,
    modulation and the LLRs take one pass over the chunk."""
    code = cfg.code
    msgs, noise = _draw_frames(cfg.seed, point, frames, code.k, code.n)
    sent = encode(msgs, gen)
    llrs = llr_from_channel(transmit(sent, ch, noise), ch)
    if cfg.decoder.early_stop_theta is not None:
        results = [decode(llr, code, cfg.decoder) for llr in llrs]
        decoded = np.stack([res.codeword for res in results])
        frame_fods = np.array([res.fods.total for res in results])
    else:
        counter = FodCounter()
        decoded = decode_batch(llrs, code, cfg.decoder, counter)
        fods = decode_plan(code, cfg.decoder).fods
        if counter.total != len(frames) * fods:
            raise RuntimeError(f"decoder counted {counter.total} FODs for "
                               f"{len(frames)} frames of {fods} each")
        frame_fods = np.full(len(frames), fods)
    return np.sum(decoded != sent, axis=1), frame_fods


def run_point(cfg: SimConfig, gen: np.ndarray, ebno_db: float,
              point: int) -> FerPoint:
    """Monte Carlo at one SNR point, stopping at min_frame_errors or
    max_frames, whichever comes first.

    Each round runs one chunk per worker.  The stopping frame is found in
    frame order, so every statistic is independent of batching."""
    ch = ChannelConfig(ebno_db=ebno_db, rate=cfg.code.rate)
    t0 = time.perf_counter()
    frames = frame_errors = bit_errors = fods_total = 0
    chunk, last = CHUNK_FRAMES, cfg.max_frames
    step = chunk * cfg.workers

    def chunk_at(start):
        return _run_chunk(cfg, gen, ch, point,
                          range(start, min(start + chunk, last)))

    # one worker runs in this thread: a pool thread gets its own OpenBLAS
    # buffers, which raise the sweep's peak memory
    pool = (ThreadPoolExecutor(max_workers=cfg.workers)
            if cfg.workers > 1 else None)
    run = map if pool is None else pool.map
    try:
        for first in range(0, last, step):
            results = run(chunk_at,
                          range(first, min(first + step, last), chunk))
            bit_errs, frame_fods = map(np.concatenate, zip(*results))
            # frames up to and including the one that reaches the target
            hits = np.cumsum(bit_errs > 0)
            used = 1 + int(np.searchsorted(hits, cfg.min_frame_errors
                                           - frame_errors))
            bit_errs, frame_fods = bit_errs[:used], frame_fods[:used]
            frames += len(bit_errs)
            frame_errors += int(np.count_nonzero(bit_errs))
            bit_errors += int(bit_errs.sum())
            fods_total += int(frame_fods.sum())
            if frame_errors >= cfg.min_frame_errors:
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


def points_to_json(points) -> str:
    return json.dumps({
        "schema_version": RESULT_SCHEMA_VERSION,
        "points": [asdict(p) for p in points],
    }, indent=2)


def csv_string(points) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in points:
        writer.writerow([repr(getattr(p, col)) if isinstance(getattr(p, col), float)
                         else getattr(p, col) for col in CSV_COLUMNS])
    return buf.getvalue()


def binomial_ci(errors: int, trials: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not (_is_int(errors) and 0 <= errors <= trials):
        raise ValueError(f"errors must be an integer in [0, trials], got {errors!r}")
    if not (_is_real(confidence) and 0 < confidence < 1):
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1 - phat) / trials
                          + z * z / (4 * trials * trials)) ** 0.5
    return center - half, center + half
