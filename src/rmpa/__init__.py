"""Reed-Muller codec toolkit: projection-aggregation decoding with
multi-factor pruning, first-order-decoding complexity accounting, and an
AWGN Monte Carlo harness."""

from .codes import CodeParams, build_generator, encode
from .geometry import LLR_CLAMP, CosetMap, aggregate, coset_table, project_llr
from .fod import FodCounter, fht_decode, form_bits
from .decoder import (DecodePlan, DecodeResult, PruningConfig,
                      analytic_fod_count, decode, decode_batch,
                      decode_plan, executed_fod_count,
                      explicit_schedule_config, preset,
                      select_projection_indices)
from .channel import (ChannelConfig, FerPoint, SimConfig, csv_string,
                      llr_from_channel, points_to_json, run_sweep, transmit)

__all__ = [
    "CodeParams", "build_generator", "encode",
    "LLR_CLAMP", "CosetMap", "aggregate", "coset_table", "project_llr",
    "FodCounter", "fht_decode", "form_bits",
    "DecodePlan", "DecodeResult", "PruningConfig", "analytic_fod_count",
    "decode", "decode_batch", "decode_plan",
    "executed_fod_count", "explicit_schedule_config", "preset",
    "select_projection_indices",
    "ChannelConfig", "FerPoint", "SimConfig", "csv_string",
    "llr_from_channel", "points_to_json", "run_sweep", "transmit",
]

__version__ = "0.1.0"
