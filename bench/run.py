"""The rmpa benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-rm63-sched --seed 1 --seconds 25 \
        --trace 0

A run pins itself to one CPU and times `setup_s` as the median of five
set-ups in fresh processes (`setup_child.py`).  It then parses the
workload's spec with `rmpa.cli.load_experiment_spec` and calls
`rmpa.channel.run_sweep` in process, round after round, on the same frames.
Every untraced round keeps the sent and decoded words and checks them
against the benchmark's own RM code, a recount and the paper's numbers, and
must report exactly the frame errors, bit errors and FODs of the first one.
A handful of frames whose LLR signs form a codeword are also decoded and
must come back unchanged.

With `--trace 0` rounds start while less than `--seconds` have passed, and
the only instrumentation of the program keeps the results of `encode` and
the decoder entries and reads the clock on each side of each decoder call.
With `--trace 1` untraced and traced rounds alternate, the traced ones
record spans at the layer boundaries (see `tracer.py`), and the run prints
the per-layer metrics and the tracing overhead; the spans are written to
`bench/out/`.  Every reported time is scaled to the reference
host speed by the speed probe (see `speed.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A frame fails when the
program raises on it or a check rejects it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
SIGN_FRAMES = 4
SETUP_TIMEOUT_S = 120
# yardstick samples taken on each side of a set-up
SETUP_PROBES = 3


def import_rmpa():
    """Import rmpa from this checkout's src/, never from anywhere else."""
    if not (SRC / "rmpa" / "__init__.py").is_file():
        raise SystemExit(f"error: rmpa sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import rmpa
    import rmpa.channel
    import rmpa.cli
    import rmpa.decoder
    if not Path(rmpa.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: rmpa was imported from {rmpa.__file__}")
    return rmpa


def measure_setups(workload, seed: int, probe: SpeedProbe) -> list:
    """Each set-up's phases, plus setup_s: spawn to ready, as seen here.
    A set-up runs in another process on this CPU, so the probe samples
    right before and after it."""
    results = []
    for _ in range(SETUPS):
        begin = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), workload.name,
             str(seed)], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(
                f"set-up failed with exit code {proc.returncode}")
        for _ in range(SETUP_PROBES):
            probe.sample()
        slowdown = probe.slowdown(begin, time.perf_counter(),
                                  workload.yardstick)
        phases = {k: v / slowdown for k, v in json.loads(line).items()}
        phases.update(setup_s=ready / slowdown, setup_raw_s=ready,
                      slowdown=slowdown)
        results.append(phases)
    return results


def point_key(point):
    return (point.frames, point.frame_errors, point.bit_errors,
            point.fods_total)


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


class Run:
    """The state and the rounds of one benchmark run."""

    def __init__(self, rmpa, workload, seed: int, probe: SpeedProbe):
        self.rmpa = rmpa
        self.workload = workload
        self.cfg, _ = rmpa.cli.load_experiment_spec(workload.spec(seed))
        self.seed = seed
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        # what the first verified round reported; every round must match
        self.reference = None
        # (decoder entry, arguments) of the first decoder call
        self.first_call = None
        self.rounds: list = []

    def reject(self, frames: int, problem: str) -> None:
        self.failed += frames
        self.problems.append(problem)
        print(f"check failed: {problem}", file=sys.stderr)

    def timed_round(self, tracer: Tracer | None = None):
        """One round of run_sweep, timed net of the probe's samples.

        Untraced, `encode` and the decoder entries of rmpa.channel keep
        their results for the checks, and each decoder call is timed with
        one clock read on each side.  Traced, the tracer's wrappers are
        installed instead, and the round must match the verified ones.
        Returns the round's timing, or None when it failed."""
        channel, probe = self.rmpa.channel, self.probe
        calls, sent, decoded = [], [], []
        saved = {name: getattr(channel, name) for name in
                 ("encode", "decode", "decode_batch", "run_sweep")}
        if tracer is None:
            def encode(*args, **kwargs):
                word = saved["encode"](*args, **kwargs)
                sent.append(word)
                return word

            channel.encode = encode
            for name in ("decode", "decode_batch"):
                def timed(*args, _fn=saved[name], _name=name, **kwargs):
                    spent = probe.spent
                    t0 = time.perf_counter()
                    result = _fn(*args, **kwargs)
                    calls.append(time.perf_counter() - t0
                                 - (probe.spent - spent))
                    decoded.append(result)
                    if self.first_call is None:
                        self.first_call = (_name, args)
                    return result

                setattr(channel, name, timed)
        else:
            install_layers(tracer, self.rmpa, self.cfg.decoder.n_max)
            channel.run_sweep = tracer.wrap(SWEEP_SPAN, saved["run_sweep"])
        frames = self.workload.frames
        self.attempted += frames
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            point = channel.run_sweep(self.cfg)[0]
        except Exception:
            traceback.print_exc()
            self.reject(frames, "run_sweep raised")
            return None
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
            for name, fn in saved.items():
                setattr(channel, name, fn)
        key = point_key(point)
        timing = {"traced": tracer is not None, "t0": t0, "t1": t1,
                  "net_s": t1 - t0 - (probe.spent - spent), "calls_s": calls,
                  "frames": key[0], "frame_errors": key[1],
                  "bit_errors": key[2], "fods_total": key[3]}
        self.rounds.append(timing)
        faults = ([] if tracer is not None
                  else self.verification_faults(point, sent, decoded))
        if not faults and self.reference is None and tracer is None:
            self.reference = key
        elif not faults and key != self.reference:
            faults = [f"round reported {key}, the first verified round "
                      f"{self.reference}"]
        if faults:
            self.reject(frames, "; ".join(faults))
            return None
        return timing

    def verification_faults(self, point, sent, decoded) -> list:
        """Why the round's sent and decoded words, kept from the calls the
        sweep made, show it wrong; empty when they show it right."""
        w, frames = self.workload, self.workload.frames
        per_frame_fods = [r.fods.total for r in decoded
                          if not isinstance(r, np.ndarray)]
        decoded = [r if isinstance(r, np.ndarray) else r.codeword
                   for r in decoded]
        if not sent or not decoded:
            return ["the sent or decoded words were not seen"]
        sent = np.concatenate([np.atleast_2d(s) for s in sent])
        decoded = np.concatenate([np.atleast_2d(d) for d in decoded])
        if sent.shape != decoded.shape or len(sent) != frames:
            return [f"saw {len(sent)} sent and {len(decoded)} decoded words "
                    f"for {frames} frames"]
        faults = []
        bad = checks.parity_failures(sent, w.code["m"], w.code["r"])
        if len(bad):
            faults.append(f"{len(bad)} sent words fail the parity check of "
                          "the dual code")
        frame_errors, bit_errors = checks.recount_errors(sent, decoded)
        if (frame_errors, bit_errors) != (point.frame_errors,
                                          point.bit_errors):
            faults.append(f"recount gives {frame_errors} frame and "
                          f"{bit_errors} bit errors, the sweep reports "
                          f"{point.frame_errors} and {point.bit_errors}")
        faults += checks.fod_problems(
            point.fods_total, point.frames, exact=w.fods_exact,
            step=w.fods_step, per_frame=per_frame_fods or None)
        if not checks.fer_consistent(frame_errors, frames, w.paper_fer,
                                     w.fer_tolerance):
            lo, hi = checks.wilson_interval(frame_errors, frames)
            faults.append(f"FER {frame_errors}/{frames} (Wilson "
                          f"[{lo:.4g}, {hi:.4g}]) is far from the paper's "
                          f"{w.paper_fer}")
        return faults

    def sign_check(self) -> None:
        """Decode LLRs whose signs form a codeword; it must come back."""
        w = self.workload
        words, llrs = checks.codeword_sign_llrs(
            w.code["m"], w.code["r"], SIGN_FRAMES,
            np.random.default_rng([self.seed, 1]))
        for word, llr in zip(words, llrs):
            self.attempted += 1
            try:
                result = self.rmpa.decoder.decode(llr, self.cfg.code,
                                                  self.cfg.decoder)
            except Exception:
                traceback.print_exc()
                self.reject(1, "decode raised on a codeword-sign frame")
                continue
            if not np.array_equal(result.codeword, word):
                self.reject(1, "a codeword-sign frame did not decode to "
                            "its codeword")


def run_rounds(run: Run, seconds: float, traced_too: bool) -> tuple:
    """Rounds, or untraced and traced rounds in pairs, started while less
    than `seconds` have passed.  Each returned round carries its slowdown."""
    tracer = Tracer() if traced_too else None
    rounds = []
    begin = time.perf_counter()
    with run.probe:
        while time.perf_counter() - begin < seconds:
            rounds.append(run.timed_round())
            if traced_too:
                rounds.append(run.timed_round(tracer))
    rounds = [r for r in rounds if r is not None]
    for r in rounds:
        r["slowdown"] = run.probe.slowdown(r["t0"], r["t1"],
                                           run.workload.yardstick)
    return rounds, tracer


def untraced(run: Run, seconds: float) -> dict:
    rounds, _ = run_rounds(run, seconds, traced_too=False)
    frames = run.workload.frames
    return {
        "frames_per_s": median(frames * r["slowdown"] / r["net_s"]
                               for r in rounds),
        # the mean call of each round, median over rounds: on early
        # stopping the per-frame calls fall in one cluster per iteration
        # count, and their median jumps between clusters with the seed
        "decode_call_mean_ms": median(
            statistics.fmean(r["calls_s"]) / r["slowdown"] * 1e3
            for r in rounds if r["calls_s"]),
        "raw_frames_per_s": median(frames / r["net_s"] for r in rounds),
        "raw_decode_call_mean_ms": median(statistics.fmean(r["calls_s"]) * 1e3
                                          for r in rounds if r["calls_s"]),
        "slowdown": median(r["slowdown"] for r in rounds),
    }


SWEEP_SPAN = "channel.run_sweep"


def install_layers(tracer: Tracer, rmpa, n_max: int) -> None:
    """Wrap the module-boundary names the sweep calls through."""
    channel, decoder = rmpa.channel, rmpa.decoder
    rows = lambda args, result: (np.atleast_2d(result).shape[0], 0)  # noqa
    size = lambda args, result: (np.size(result), 0)  # noqa
    tracer.install(channel, "encode", "channel.encode", rows)
    tracer.install(channel, "transmit", "channel.transmit", size)
    tracer.install(channel, "llr_from_channel", "channel.llr_from_channel",
                   size)
    tracer.install(channel, "decode", "channel.decode",
                   lambda args, result: (result.iterations_run,
                                         int(result.iterations_run < n_max)))
    tracer.install(channel, "decode_batch", "channel.decode_batch", rows)
    tracer.install(decoder, "project_llr", "decoder.project_llr",
                   lambda args, result: (np.size(result), np.size(args[0])))
    tracer.install(decoder, "fht_decode", "decoder.fht_decode", rows)


def traced(run: Run, seconds: float) -> dict:
    """Untraced and traced rounds in pairs; per-layer metrics per round."""
    rmpa, w = run.rmpa, run.workload
    rounds, tracer = run_rounds(run, seconds, traced_too=True)
    plain = [r for r in rounds if not r["traced"]]
    spanned = [r for r in rounds if r["traced"]]
    slowdown = median(r["slowdown"] for r in spanned)

    peak_alloc_mb = float("nan")
    if run.first_call is not None:
        name, call_args = run.first_call
        tracemalloc.start()
        try:
            getattr(rmpa.channel, name)(*call_args)
            peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{w.name}-seed{run.seed}.npz")
    s = tracer.summary()
    count = max(len(spanned), 1)
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "count": 0, "aux": 0,
             "child_ns": {}}
    get = lambda name: s.get(name, empty)  # noqa: E731
    seconds_per_round = lambda ns: ns / 1e9 / slowdown / count  # noqa: E731
    sweep = get(SWEEP_SPAN)
    enc = get("channel.encode")
    dec, dec_b = get("channel.decode"), get("channel.decode_batch")
    proj, fod = get("decoder.project_llr"), get("decoder.fht_decode")
    dec_busy = dec["busy_ns"] + dec_b["busy_ns"]
    channel_self = sweep["busy_ns"] - sum(
        sweep["child_ns"].get(name, 0) for name in
        ("channel.encode", "channel.decode", "channel.decode_batch"))
    frames = w.frames * count
    fods = run.reference[3] if run.reference else 0
    # decode_batch runs every iteration (it has no early stopping)
    iterations = dec["count"] + run.cfg.decoder.n_max * dec_b["count"]
    silent = [n for n in w.expected_layers if get(n)["calls"] == 0]
    for name in silent:
        print(f"layer {name} recorded no calls on {w.name}", file=sys.stderr)
    return {
        "channel.self_s": seconds_per_round(channel_self),
        "channel.transmit_s": seconds_per_round(
            get("channel.transmit")["busy_ns"]),
        "channel.llr_s": seconds_per_round(
            get("channel.llr_from_channel")["busy_ns"]),
        "channel.self_share": channel_self / max(sweep["busy_ns"], 1),
        "codes.encode_calls": enc["calls"] / count,
        "codes.encode_s": seconds_per_round(enc["busy_ns"]),
        "decoder.calls": (dec["calls"] + dec_b["calls"]) / count,
        "decoder.busy_s": seconds_per_round(dec_busy),
        "decoder.self_s": seconds_per_round(dec["self_ns"] + dec_b["self_ns"]),
        "decoder.fods": fods,
        "decoder.fods_per_s": fods / max(seconds_per_round(dec_busy), 1e-12),
        "decoder.iterations_per_frame": iterations / max(frames, 1),
        "decoder.early_stop_ratio": dec["aux"] / max(frames, 1),
        "decoder.peak_alloc_mb": peak_alloc_mb,
        "geometry.project_calls": proj["calls"] / count,
        "geometry.project_s": seconds_per_round(proj["busy_ns"]),
        "geometry.projected_llrs": proj["count"] / count,
        "geometry.ns_per_llr": (proj["busy_ns"] / slowdown
                                / max(proj["count"], 1)),
        # computed, not measured: read the input once, write the output once
        "geometry.bytes_moved": 8 * (proj["count"] + proj["aux"]) / count,
        "fod.calls": fod["calls"] / count,
        "fod.busy_s": seconds_per_round(fod["busy_ns"]),
        "fod.rows": fod["count"] / count,
        "fod.ns_per_fod": fod["busy_ns"] / slowdown / max(fod["count"], 1),
        "trace.overhead_ratio": (median(r["net_s"] / r["slowdown"]
                                        for r in spanned)
                                 / median(r["net_s"] / r["slowdown"]
                                          for r in plain)),
        "trace.silent_layers": len(silent),
        "host.slowdown": slowdown,
    }


E2E_UNITS = {"setup_s": "s", "frames_per_s": "1/s",
             "decode_call_mean_ms": "ms", "fods_per_frame": "count",
             "peak_rss_mb": "MB"}
SETUP_LAYERS = ("setup.import_s", "cli.load_spec_s", "codes.build_generator_s",
                "decoder.warmup_s")
PER_LAYER_UNITS = {
    "setup.import_s": "s", "cli.load_spec_s": "s",
    "codes.build_generator_s": "s", "decoder.warmup_s": "s",
    "channel.self_s": "s", "channel.transmit_s": "s", "channel.llr_s": "s",
    "channel.self_share": "ratio",
    "codes.encode_calls": "count", "codes.encode_s": "s",
    "decoder.calls": "count", "decoder.busy_s": "s", "decoder.self_s": "s",
    "decoder.fods": "count", "decoder.fods_per_s": "1/s",
    "decoder.iterations_per_frame": "count",
    "decoder.early_stop_ratio": "ratio", "decoder.peak_alloc_mb": "MB",
    "geometry.project_calls": "count", "geometry.project_s": "s",
    "geometry.projected_llrs": "count", "geometry.ns_per_llr": "ns",
    "geometry.bytes_moved": "B",
    "fod.calls": "count", "fod.busy_s": "s", "fod.rows": "count",
    "fod.ns_per_fod": "ns",
    "trace.overhead_ratio": "ratio", "trace.silent_layers": "count",
    "host.slowdown": "ratio",
}


def finite(value):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    rmpa = import_rmpa()
    # the program, its set-ups and the speed probe share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    setups = measure_setups(workload, args.seed, probe)
    run = Run(rmpa, workload, args.seed, probe)
    run.sign_check()
    if args.trace:
        values = traced(run, args.seconds)
        for name in SETUP_LAYERS:
            values[name] = median(s[name] for s in setups)
        units = PER_LAYER_UNITS
    else:
        values = untraced(run, args.seconds)
        values["setup_s"] = median(s["setup_s"] for s in setups)
        values["fods_per_frame"] = (run.reference[3] / workload.frames
                                    if run.reference else float("nan"))
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        units = E2E_UNITS
    metrics = {k: {"value": finite(values[k]), "unit": u}
               for k, u in units.items()}

    OUT.mkdir(exist_ok=True)
    detail = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "values": values, "setups": setups,
              "rounds": run.rounds, "problems": run.problems,
              "probe": {"when": list(probe.when), "parts": list(probe.parts)}}
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
