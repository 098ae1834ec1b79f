"""One set-up of a workload in a fresh process; `run.py` times it.

Imports rmpa, parses the workload's spec with `rmpa.cli.load_experiment_spec`,
builds the generator and runs a one-frame sweep so that lazily built tables
are filled.  Then it prints the time of each phase as one JSON line, which
marks it ready, and exits.

    python3 bench/setup_child.py <workload> <seed>
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    t0 = time.perf_counter()
    import rmpa.channel
    import rmpa.cli
    import rmpa.codes
    t1 = time.perf_counter()
    cfg, _ = rmpa.cli.load_experiment_spec(workload.spec(seed))
    t2 = time.perf_counter()
    rmpa.codes.build_generator(cfg.code)
    t3 = time.perf_counter()
    rmpa.channel.run_sweep(replace(cfg, max_frames=1, min_frame_errors=1))
    t4 = time.perf_counter()
    print(json.dumps({"setup.import_s": t1 - t0, "cli.load_spec_s": t2 - t1,
                      "codes.build_generator_s": t3 - t2,
                      "decoder.warmup_s": t4 - t3}), flush=True)


if __name__ == "__main__":
    main()
