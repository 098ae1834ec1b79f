"""Host-speed probe: scales times measured on a host whose speed drifts to
a fixed reference speed.

On a shared virtual machine the same work can take 1.5-1.8 times longer for
tens of seconds at a time, while CPU time keeps tracking wall time: the
virtual CPU runs, only slower.  Over a run of 15-60 s the median of a raw
time therefore moves by up to a third between runs.  The probe times a fixed
yardstick of four parts on a timer signal while the program runs (about 1%
of the time), and a time divided by the yardstick's slowdown over the same
interval reads as the time at the reference speed.  The yardstick never
changes, so two commits compared on it are compared at the same speed.

The parts slow differently on a busy host, as programs do: code that works
in cache slows like the first three parts, code that streams arrays far
larger than the cache also like the fourth.  A workload names the parts that
match it.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PARTS = ("tiny_numpy", "cached_numpy", "pure_python", "uncached_numpy")
IN_CACHE = PARTS[:3]
# each part's wall time on a quiet host: 2.1 GHz Xeon (Sapphire Rapids) VM
REFERENCE_S = {"tiny_numpy": 4.5e-4, "cached_numpy": 3.1e-4,
               "pure_python": 3.1e-4, "uncached_numpy": 5.6e-4}
INTERVAL_S = 0.2
# a slowdown is the median of the samples over at least this long, since
# one sample varies by about 15% on a quiet host while the host's speed
# holds for 10 s or more
MIN_WINDOW_S = 2.0


class SpeedProbe:
    """Yardstick samples: when each was taken and the wall time of each of
    its parts: tiny numpy calls, a numpy kernel in cache, pure Python, and a
    numpy pass over 4 MB, more than this CPU's L2 cache."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(4, 64))
        self._perm = rng.permutation(64)
        self._mid = rng.normal(size=(2, 4096))
        self._large = rng.normal(size=1 << 19)
        self._large_out = np.empty_like(self._large)
        self.when = array("d")
        # the parts' wall times, sample after sample
        self.parts = array("d")
        # wall time spent in the probe, to take out of the measured times
        self.spent = 0.0

    def _tiny_numpy(self):
        for _ in range(20):
            a = self._small[:, self._perm]
            np.logaddexp(0.0, a + self._small) - np.logaddexp(a, self._small)

    def _cached_numpy(self):
        a, b = self._mid
        np.logaddexp(0.0, a + b) - np.logaddexp(a, b)

    def _pure_python(self):
        acc = 0
        for i in range(3000):
            acc += (i * 7) ^ (i >> 3)

    def _uncached_numpy(self):
        np.multiply(self._large, 1.0001, out=self._large_out)

    def sample(self) -> None:
        t0 = last = time.perf_counter()
        for part in (self._tiny_numpy, self._cached_numpy, self._pure_python,
                     self._uncached_numpy):
            part()
            now = time.perf_counter()
            self.parts.append(now - last)
            last = now
        self.when.append(t0)
        self.spent += last - t0

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, t0: float, t1: float, parts=PARTS) -> float:
        """How much slower than the reference the host ran over [t0, t1],
        widened to MIN_WINDOW_S around its middle: the median over the
        samples of the geometric mean of the chosen parts' slowdowns.  The
        samples nearest to the interval count when none fall inside it."""
        when = np.frombuffer(self.when, dtype=np.float64)
        if len(when) == 0:
            raise RuntimeError("the speed probe took no samples")
        times = np.frombuffer(self.parts, dtype=np.float64).reshape(-1, 4)
        chosen = [PARTS.index(p) for p in parts]
        reference = np.array([REFERENCE_S[p] for p in parts])
        slow = np.exp(np.log(times[:, chosen] / reference).mean(axis=1))
        middle, half = (t0 + t1) / 2, max(t1 - t0, MIN_WINDOW_S) / 2
        t0, t1 = middle - half, middle + half
        inside = (when >= t0) & (when <= t1)
        if not inside.any():
            gap = np.minimum(np.abs(when - t0), np.abs(when - t1))
            inside = gap <= gap.min() + INTERVAL_S
        return float(np.median(slow[inside]))
