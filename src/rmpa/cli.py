"""Command-line front end: encode/decode vectors, count first-order
decodings, and run FER sweeps from JSON experiment specs.

stdout carries machine-readable results only; diagnostics go to stderr.
Exit codes: 0 success, 2 bad arguments or spec, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .codes import CodeParams, build_generator, encode
from .channel import SimConfig, csv_string, points_to_json, run_sweep
from .decoder import DECODERS, PruningConfig, analytic_fod_count, decode, preset
from .fod import FodCounter

SPEC_SCHEMA_VERSION = 1
# the largest m the CLI takes: any decode at m = 12 holds the 109 MB coset
# table, 33.5 MB of it the lifts; one iteration of full RPA on RM(12,2)
# peaks at 144 MiB RSS, and memory grows at least with n^2.  The plans the
# CLI compiles are bounded by rmpa.decoder.MAX_PLAN_STEPS.
MAX_M = 12

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_UNWRITABLE = 3


class SpecError(ValueError):
    pass


def _fraction(value) -> Fraction:
    """An exact fraction from a JSON number or from text, decimal or a/b (a
    flag's text); bools, NaN, infinities, other text and decimal exponents
    past float's range, whose exact values are huge integers, are
    SpecError."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            exponent = re.search(r"[eE]([-+]?\d+)", str(value))
            if exponent is None or abs(int(exponent[1])) <= 400:
                return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError(f"expected a finite number, got {value!r}")


def _integer(value) -> int:
    """An integer from a JSON number or a decimal string (a flag's text or
    RMPA_WORKERS); bools, fractional numbers and other text are SpecError."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    """A finite real from a JSON number or a decimal string (a flag's
    text); bools, NaN, infinities and other text are SpecError."""
    number = math.nan
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise SpecError(f"expected a finite number, got {value!r}")
    return number


def _fields(obj, allowed, what: str) -> dict:
    """obj, which must be a JSON object with no keys outside allowed."""
    if not isinstance(obj, dict):
        raise SpecError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecError(f"unknown {what} keys {sorted(unknown)}")
    return obj


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
DECODER_VALUES = {"preset": str, "q": _fraction, "d": _fraction,
                  "gamma": _fraction, "delta_itr": _fraction,
                  "delta_rec": _fraction,
                  "schedule": lambda counts: [_integer(c) for c in counts],
                  "n_max": _integer, "early_stop_theta": _real}


def _decoder_from_args(args) -> PruningConfig:
    spec = {key: getattr(args, key) for key in DECODER_VALUES}
    if spec["schedule"] is not None:
        spec["schedule"] = spec["schedule"].split(",")
    return _decoder_from_spec(spec)


def _decoder_from_spec(obj: dict) -> PruningConfig:
    """The one path from decoder keys, of a spec or of CLI flags, to a
    PruningConfig; rmpa.decoder.preset rejects the keys the chosen
    decoder would not use."""
    keys = {key: None if value is None else DECODER_VALUES[key](value)
            for key, value in _fields(obj, DECODER_VALUES, "decoder").items()}
    return preset(keys.pop("preset", None), **keys)


def load_experiment_spec(obj: dict):
    """Parse a simulate spec; returns (SimConfig, output path or None)."""
    _fields(obj, ("schema_version", "code", "decoder", "ebno_db",
                  "min_frame_errors", "max_frames", "seed", "output",
                  "workers"), "spec")
    version = obj.get("schema_version")
    # the JSON integer itself: true and 1.0 equal 1 in Python, not in JSON
    if type(version) is not int or version != SPEC_SCHEMA_VERSION:
        raise SpecError(f"spec schema_version must be {SPEC_SCHEMA_VERSION}, "
                        f"got {version!r}")
    output = obj.get("output")
    if output is not None and not isinstance(output, str):
        raise SpecError(f"output must be a path, got {output!r}")
    try:
        code = _fields(obj["code"], ("m", "r"), "code")
        m = _integer(code["m"])
        if m > MAX_M:
            raise SpecError(f"code m must be at most {MAX_M}, got {m}")
        ebno = obj["ebno_db"]
        if not isinstance(ebno, list) or not ebno:
            raise SpecError(f"ebno_db must be a non-empty list, got {ebno!r}")
        cfg = SimConfig(
            code=CodeParams(m=m, r=_integer(code["r"])),
            decoder=_decoder_from_spec(obj["decoder"]),
            ebno_points=tuple(_real(x) for x in ebno),
            min_frame_errors=_integer(obj.get("min_frame_errors", 100)),
            max_frames=_integer(obj.get("max_frames", 10 ** 7)),
            seed=_integer(obj.get("seed", 0)),
            workers=_integer(obj.get("workers",
                                     os.environ.get("RMPA_WORKERS", 1))),
            record_timing=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from exc
    return cfg, output


def cmd_encode(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    msg = _parse_bits(args.msg, params.k)
    code = encode(msg, build_generator(params))
    print("".join(str(int(b)) for b in code))
    return EXIT_OK


def cmd_decode(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    llr = np.array([float(x) for x in args.llr.split(",")])
    result = decode(llr, params, _decoder_from_args(args))
    print("".join(str(int(b)) for b in result.codeword))
    return EXIT_OK


def cmd_fods(args) -> int:
    params = CodeParams(m=args.m, r=args.r)
    cfg = _decoder_from_args(args)
    count = analytic_fod_count(params, cfg)
    print(count)
    ref = TABLE1_REFERENCE.get(("rpa_sch", args.m, args.r))
    if ref is not None and ref != count and vars(cfg) == vars(TABLE1_RPA_SCH):
        print(f"note: published table reports {ref}; the uniform "
              f"ceiling schedule gives {count}", file=sys.stderr)
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
    cfg = dataclasses.replace(cfg, record_timing=not args.no_timing, workers=(
        cfg.workers if args.workers is None else args.workers))

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
# the decoder that the rpa_sch cells count: d = 2, three iterations a level
TABLE1_RPA_SCH = preset("rpa_sch", d=2)


def cmd_table1(args) -> int:
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
    p.add_argument("--m", type=int, required=True, metavar="M",
                   choices=range(MAX_M + 1), help=f"at most {MAX_M}")
    p.add_argument("--r", type=int, required=True)


def _add_decoder_args(p):
    # a schedule is selected by --schedule alone
    p.add_argument("--preset",
                   choices=[name for name in DECODERS if name != "schedule"])
    p.add_argument("--q", help="srpa keep fraction, e.g. 1/8")
    p.add_argument("--d", help="rpa_sch decay factor")
    p.add_argument("--gamma", help="starting factor, e.g. 2/3")
    p.add_argument("--ditr", dest="delta_itr",
                   help="iteration factor, e.g. 1/4")
    p.add_argument("--drec", dest="delta_rec",
                   help="recursion factor, e.g. 1/2")
    p.add_argument("--schedule", help="explicit per-level counts, e.g. 4,8")
    p.add_argument("--nmax", dest="n_max", help="iterations per "
                   "level (default 1 with --schedule, else 3)")
    p.add_argument("--theta", dest="early_stop_theta",
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

    p = sub.add_parser("table1", help="print the Table-1 complexity counts")
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
