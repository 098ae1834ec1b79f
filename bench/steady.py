"""Steadiness of the benchmark: run interleaved sets of every workload and
print, per workload and metric, the median, the quartiles and the spread
(quartile distance over median) against the bound in BENCHMARK.json.

    python3 bench/steady.py --sets 10 [--seconds 15] [--trace 0]
        [--workloads sweep-rm63-sched,sweep-rm72-es] [--first-seed 1]

Set i runs every workload with seed first_seed + i, in forward order on
even sets and reverse order on odd ones, so that slow drift of the host
spreads over all workloads alike.  Each run is one `run.py` process; the
table and every run's result are written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.sets):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            res = one_run(w, args.first_seed + i, args.seconds, args.trace)
            results[w].append(res)
            print(f"set {i} {w}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)

    table = {}
    print(f"{'workload':18} {'metric':30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        table[w] = {"correct": all(r["correct"] for r in runs),
                    "failed_shares": sorted(failed_share), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values) if len(values) > 1 else {
                "median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0}
            stats["bound"] = bound
            table[w]["metrics"][name] = stats
            flag = ("" if bound is None or stats["spread"] < bound / 3
                    else "  <- over a third of the bound")
            print(f"{w:18} {name:30} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:7.4f} {bound if bound else '':>6}{flag}")
        print(f"{w:18} correct={table[w]['correct']} failed shares "
              f"{table[w]['failed_shares']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"args": vars(args), "table": table, "runs": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
