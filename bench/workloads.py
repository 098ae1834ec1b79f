"""The benchmark's workloads: one `rmpa simulate` spec each, plus what the
independent checks expect of it.

Every round of a workload is one `run_sweep` over a fixed number of frames
at one SNR point, with one worker and `min_frame_errors == max_frames`, so
the sweep never stops on its error target and every round does the same
work.  The spec seed is the benchmark's `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    code: dict
    decoder: dict
    ebno_db: float
    # frames per round: one run_sweep call
    frames: int
    # the paper's plotted FER at ebno_db, and the relative tolerance the
    # FER check allows around it (reading a log-scale plot, and early
    # stopping against the full-RPA curve)
    paper_fer: float
    fer_tolerance: float
    # FODs per frame: an exact count, or (step, low, high) for early
    # stopping, where each frame costs a whole number of top-level
    # iterations of `step` FODs
    fods_exact: int | None = None
    fods_step: tuple | None = None
    # wrapped names that must record calls in a traced round
    expected_layers: tuple = ()
    # the speed probe's parts that slow like this workload on a busy host
    # (see speed.py): the in-cache ones, plus "uncached_numpy" when the
    # decoder streams arrays far larger than the cache
    yardstick: tuple = ("tiny_numpy", "cached_numpy", "pure_python")

    def spec(self, seed: int) -> dict:
        """The `rmpa simulate` spec of one round."""
        return {
            "schema_version": 1,
            "code": dict(self.code),
            "decoder": dict(self.decoder),
            "ebno_db": [self.ebno_db],
            "min_frame_errors": self.frames,
            "max_frames": self.frames,
            "seed": int(seed),
            "workers": 1,
        }


_CHANNEL_LAYERS = ("channel.encode", "channel.transmit",
                   "channel.llr_from_channel", "decoder.project_llr",
                   "decoder.fht_decode")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-rm63-sched",
        why="cheap decoder (32 FODs/frame), so channel and encode take a "
            "large share: per-frame RNG, encode, noise, LLR, bookkeeping",
        code={"m": 6, "r": 3}, decoder={"schedule": [4, 8]}, ebno_db=3.0,
        frames=2048, paper_fer=0.154, fer_tolerance=0.25, fods_exact=32,
        expected_layers=_CHANNEL_LAYERS + ("channel.decode_batch",)),
    Workload(
        name="sweep-rm83-mfp",
        why="the paper's headline code: one large batched decode per "
            "64-frame chunk, bound by projection and FHT kernels and memory",
        code={"m": 8, "r": 3},
        decoder={"gamma": "3/4", "delta_itr": "1/3", "delta_rec": "3/4"},
        ebno_db=1.0, frames=64, paper_fer=0.0884, fer_tolerance=0.25,
        fods_exact=22544,
        expected_layers=_CHANNEL_LAYERS + ("channel.decode_batch",),
        # about 2 GB of projections per 64-frame chunk
        yardstick=("tiny_numpy", "cached_numpy", "pure_python",
                   "uncached_numpy")),
    Workload(
        name="sweep-rm72-es",
        why="early stopping makes the sweep decode frame by frame, so many "
            "tiny projection calls make it bound by per-call overhead",
        code={"m": 7, "r": 2},
        decoder={"preset": "rpa", "early_stop_theta": 0.05},
        ebno_db=2.0, frames=600, paper_fer=0.0089, fer_tolerance=1.0,
        fods_step=(127, 127, 381),
        expected_layers=_CHANNEL_LAYERS + ("channel.decode",)),
)}
