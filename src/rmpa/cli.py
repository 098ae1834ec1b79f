"""Command-line front end: encode/decode vectors, count first-order
decodings, and run FER sweeps from JSON experiment specs.

stdout carries machine-readable results only; diagnostics go to stderr.
Exit codes: 0 success, 2 bad arguments or spec, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .codes import CodeParams, build_generator, encode
from .channel import SimConfig, csv_string, points_to_json, run_sweep
from .decoder import (DECODERS, PruningConfig, analytic_fod_count, decode,
                      decoder_config)
from .fod import FodCounter

SPEC_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_UNWRITABLE = 3


class SpecError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad fraction {text!r}: {exc}") from exc


def _parse_bits(text: str, k: int) -> np.ndarray:
    """Message as a binary string, or hex with an 0x prefix."""
    if text.startswith(("0x", "0X")):
        value = int(text, 16)
        if not 0 <= value < 1 << k:
            raise SpecError(f"message {text} does not fit in k={k} bits")
        bits = [(value >> (k - 1 - t)) & 1 for t in range(k)]
        return np.array(bits, dtype=np.uint8)
    if len(text) != k or set(text) - {"0", "1"}:
        raise SpecError(f"message must be {k} binary digits, got {text!r}")
    return np.array([int(ch) for ch in text], dtype=np.uint8)


# how each decoder key of a spec or of the CLI flags is read; which keys a
# decoder takes is rmpa.decoder's decision
DECODER_VALUES = {"preset": str, "q": _fraction, "d": float,
                  "gamma": _fraction, "delta_itr": _fraction,
                  "delta_rec": _fraction,
                  "schedule": lambda counts: [int(c) for c in counts],
                  "n_max": int, "early_stop_theta": float}


def _decoder_from_args(args) -> PruningConfig:
    spec = {key: getattr(args, key) for key in DECODER_VALUES}
    if spec["schedule"] is not None:
        spec["schedule"] = spec["schedule"].split(",")
    return _decoder_from_spec(spec)


def _decoder_from_spec(obj: dict) -> PruningConfig:
    """The one path from decoder keys, of a spec or of CLI flags, to a
    PruningConfig; rmpa.decoder.decoder_config rejects the keys the
    chosen decoder would not use."""
    unknown = set(obj) - set(DECODER_VALUES)
    if unknown:
        raise SpecError(f"unknown decoder keys {sorted(unknown)}")
    return decoder_config(**{key: None if value is None else
                             DECODER_VALUES[key](value)
                             for key, value in obj.items()})


def load_experiment_spec(obj: dict):
    """Parse a simulate spec; returns (SimConfig, output path or None)."""
    allowed = {"schema_version", "code", "decoder", "ebno_db",
               "min_frame_errors", "max_frames", "seed", "message_mode",
               "output", "workers", "chunk_frames"}
    unknown = set(obj) - allowed
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    if obj.get("schema_version") != SPEC_SCHEMA_VERSION:
        raise SpecError(f"spec schema_version must be {SPEC_SCHEMA_VERSION}")
    try:
        code = CodeParams(m=int(obj["code"]["m"]), r=int(obj["code"]["r"]))
        decoder = _decoder_from_spec(obj["decoder"])
        cfg = SimConfig(
            code=code, decoder=decoder,
            ebno_points=tuple(float(x) for x in obj["ebno_db"]),
            min_frame_errors=int(obj.get("min_frame_errors", 100)),
            max_frames=int(obj.get("max_frames", 10 ** 7)),
            seed=int(obj.get("seed", 0)),
            message_mode=obj.get("message_mode", "random"),
            chunk_frames=int(obj.get("chunk_frames", 64)),
            workers=int(obj.get("workers",
                                os.environ.get("RMPA_WORKERS", 1))),
            record_timing=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from exc
    return cfg, obj.get("output")


def cmd_encode(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    msg = _parse_bits(args.msg, params.k)
    code = encode(msg, build_generator(params))
    print("".join(str(int(b)) for b in code))
    return EXIT_OK


def cmd_decode(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    llr = np.array([float(x) for x in args.llr.split(",")])
    if llr.shape != (params.n,):
        raise SpecError(f"need {params.n} LLR values, got {llr.size}")
    cfg = _decoder_from_args(args)
    result = decode(llr, params, cfg)
    print("".join(str(int(b)) for b in result.codeword))
    return EXIT_OK


def cmd_fods(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    cfg = _decoder_from_args(args)
    count = analytic_fod_count(params, cfg)
    print(count)
    if args.measure:
        rng = np.random.default_rng(0)
        counter = FodCounter()
        decode(rng.normal(size=params.n), params, cfg, counter)
        print(counter.total)
        if cfg.early_stop_theta is None and counter.total != count:
            print(f"mismatch: analytic {count} != measured {counter.total}",
                  file=sys.stderr)
            return 1
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.spec) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {args.spec}: {exc}") from exc
    cfg, output = load_experiment_spec(obj)
    if args.output is not None:
        output = args.output
    if args.workers is not None:
        cfg = SimConfig(**{**cfg.__dict__, "workers": args.workers})
    if args.no_timing:
        cfg = SimConfig(**{**cfg.__dict__, "record_timing": False})

    def progress(pt):
        print(f"{pt.ebno_db} dB: fer={pt.fer:.6g} "
              f"({pt.frame_errors}/{pt.frames} frames)", file=sys.stderr)

    points = run_sweep(cfg, progress=progress)
    text = (points_to_json(points) + "\n"
            if output is not None and output.endswith(".json")
            else csv_string(points))
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


# cells quoted from the literature for decoders we do not re-implement
# (worst-case counts reported by their authors)
TABLE1_REFERENCE = {
    ("rpa_sch", 7, 2): 221,
    ("rpa_sch", 8, 3): 98385,
    ("2-srpa", 7, 2): 96,
    ("2-srpa", 8, 3): 36433,
}


def cmd_table1(args) -> int:
    if any(getattr(args, key) is not None for key in DECODER_VALUES):
        params = CodeParams(m=args.m, r=args.r)
        count = analytic_fod_count(params, _decoder_from_args(args))
        print(count)
        ref = TABLE1_REFERENCE.get((args.preset, args.m, args.r))
        if ref is not None and ref != count:
            print(f"note: published table reports {ref}; the uniform "
                  f"ceiling schedule gives {count}", file=sys.stderr)
        return EXIT_OK
    rows = [("RPA", 7, 2, {}), ("RPA", 8, 3, {}),
            ("MFP(2/3,1/4,1/2)", 7, 2,
             {"gamma": "2/3", "delta_itr": "1/4", "delta_rec": "1/2"}),
            ("MFP(3/4,1/3,3/4)", 8, 3,
             {"gamma": "3/4", "delta_itr": "1/3", "delta_rec": "3/4"})]
    for name, m, r, decoder in rows:
        count = analytic_fod_count(CodeParams(m, r),
                                   _decoder_from_spec(decoder))
        print(f"{name}\tRM({m},{r})\t{count}")
    for (name, m, r), count in TABLE1_REFERENCE.items():
        print(f"{name}\tRM({m},{r})\t{count}\t(reference value, not computed)")
    return EXIT_OK


def _add_code_args(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)


def _add_decoder_args(p):
    # a schedule is selected by --schedule alone
    p.add_argument("--preset",
                   choices=[name for name in DECODERS if name != "schedule"])
    p.add_argument("--q", help="srpa keep fraction, e.g. 1/8")
    p.add_argument("--d", type=float, help="rpa_sch decay factor")
    p.add_argument("--gamma", help="starting factor, e.g. 2/3")
    p.add_argument("--ditr", dest="delta_itr",
                   help="iteration factor, e.g. 1/4")
    p.add_argument("--drec", dest="delta_rec",
                   help="recursion factor, e.g. 1/2")
    p.add_argument("--schedule", help="explicit per-level counts, e.g. 4,8")
    p.add_argument("--nmax", dest="n_max", type=int, help="iterations per "
                   "level (default 1 with --schedule, else 3)")
    p.add_argument("--theta", dest="early_stop_theta", type=float,
                   help="early-stop threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmpa", description="Reed-Muller projection-aggregation codec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a message")
    _add_code_args(p)
    p.add_argument("--msg", required=True, help="k binary digits (or 0x hex)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode one LLR vector")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--llr", required=True, help="comma-separated LLR values")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("fods", help="count first-order decodings")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--measure", action="store_true",
                   help="also instrument one decode and compare")
    p.set_defaults(func=cmd_fods)

    p = sub.add_parser("simulate", help="run an FER sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", help="override the spec's output path")
    p.add_argument("--workers", type=int)
    p.add_argument("--no-timing", action="store_true",
                   help="write wall_seconds as 0 for byte-stable output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table1", help="print reference complexity counts; "
                       "any decoder flag prints that decoder's count alone")
    p.add_argument("--m", type=int, default=7)
    p.add_argument("--r", type=int, default=2)
    _add_decoder_args(p)
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
