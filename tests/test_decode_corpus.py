"""Decoded bits and per-level FOD counts on a fixed LLR corpus, bit for bit.

golden/decode_corpus.json holds, for each case below, the sha256 of the
decoded bits and the `FodCounter.per_level` counts that the decoder gave
before the decode walk was blocked and stacked.  rm83_mfp was restated
twice.  The first time, first-order decoding began to tie spectrum
magnitudes that agree to within TIE_RTOL; rm63_min_sum was restated then
too, before it was deleted with the min-sum projection.  The second time,
the walk began to run in float32, with the float32 tie band of 64 eps
(7.6e-6): one bit moved, bit 45 of row 1, the +-45 row clamped to +-30.  In
the top decoder's second iteration a 64-point first-order decoding below it
has two spectrum magnitudes 3.9e-6 apart, relative (68.95854 and 68.95827
in float64).  float64 takes the larger; in float32 they tie and the
smaller index wins, and the bit's final LLR goes from 0.424 to -0.032.
Any change to the arithmetic of projection, first-order decoding or
aggregation shows here.

Run this file as a script to rewrite the corpus with the current decoder:

    PYTHONPATH=src python3 tests/test_decode_corpus.py
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from oracles import fht_butterfly
from rmpa import (CodeParams, FodCounter, PruningConfig, build_generator,
                  decode, decode_batch, preset)

CORPUS = Path(__file__).parent / "golden" / "decode_corpus.json"

# name: (m, r, config, frames); decode_batch on seeded LLRs
BATCH_CASES = {
    "rm41_rpa": (4, 1, preset("rpa"), 40),
    "rm52_rpa": (5, 2, preset("rpa"), 40),
    "rm63_schedule": (6, 3, PruningConfig(explicit_schedule=(4, 8)), 40),
    # more frames than one block of the top level holds
    "rm72_rpa": (7, 2, preset("rpa"), 80),
    "rm72_mfp": (7, 2, preset("mfp", gamma=F(2, 3), delta_itr=F(1, 4),
                              delta_rec=F(1, 2)), 80),
    # one top-level block and several at level 2 (test_decoder's
    # test_block_size_changes_no_bit_of_the_headline_decode walks several
    # top-level blocks)
    "rm83_mfp": (8, 3, preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3),
                              delta_rec=F(3, 4)), 3),
}

# name: (m, r, config, frames); decode frame by frame with early stopping
EARLY_STOP_CASES = {
    "rm72_rpa_early_stop": (7, 2, PruningConfig(early_stop_theta=0.2), 60),
    "rm52_mfp_early_stop": (5, 2, PruningConfig(gamma=F(3, 4),
                                                delta_itr=F(1, 2),
                                                early_stop_theta=0.2), 60),
}


def corpus_llrs(params: CodeParams, frames: int, seed: int) -> np.ndarray:
    """Noisy codewords at a few noise scales, every other row pure noise,
    with saturated rows mixed in: row 0 is +-30, row 1 is +-45 (clamped to
    +-30 inside the decoder)."""
    rng = np.random.default_rng(seed)
    n = params.n
    msgs = rng.integers(0, 2, size=(frames, params.k))
    signs = 1.0 - 2.0 * (msgs @ build_generator(params) % 2)
    signs[1::2] = 0.0
    scale = rng.choice([0.5, 2.0, 6.0], size=(frames, 1))
    llrs = 4.0 * signs + rng.normal(size=(frames, n)) * scale
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    llrs[0] = 30.0 * signs[0]
    if frames > 1:
        llrs[1] = 45.0 * signs[1]
    return llrs


def _digest(bits) -> str:
    return hashlib.sha256(np.ascontiguousarray(bits, dtype=np.uint8)
                          .tobytes()).hexdigest()


def _levels(counter: FodCounter) -> dict:
    return {str(level): count
            for level, count in sorted(counter.per_level.items())}


def run_batch_case(name: str) -> dict:
    m, r, cfg, frames = BATCH_CASES[name]
    counter = FodCounter()
    params = CodeParams(m, r)
    bits = decode_batch(corpus_llrs(params, frames, seed=len(name)),
                        params, cfg, counter)
    return {"sha256": _digest(bits), "per_level": _levels(counter)}


def run_early_stop_case(name: str) -> dict:
    m, r, cfg, frames = EARLY_STOP_CASES[name]
    counter = FodCounter()
    params = CodeParams(m, r)
    results = [decode(llr, params, cfg, counter)
               for llr in corpus_llrs(params, frames, seed=len(name))]
    return {"sha256": _digest([res.codeword for res in results]),
            "per_level": _levels(counter),
            "iterations": [res.iterations_run for res in results],
            "converged": [res.converged_early for res in results]}


def run_case(name: str) -> dict:
    return (run_batch_case(name) if name in BATCH_CASES
            else run_early_stop_case(name))


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("name", sorted({**BATCH_CASES, **EARLY_STOP_CASES}))
def test_decoder_output_matches_the_corpus(corpus, name):
    assert run_case(name) == corpus[name]


@pytest.mark.parametrize("name", sorted({**BATCH_CASES, **EARLY_STOP_CASES}))
def test_the_butterfly_transform_decodes_the_same_bits(corpus, name,
                                                       monkeypatch):
    # the tie rule makes decoded bits independent of how the FHT sums
    monkeypatch.setattr("rmpa.fod._spectra",
                        lambda batch: fht_butterfly(batch.T))
    assert run_case(name) == corpus[name]


def test_corpus_covers_every_case(corpus):
    assert set(corpus) == set(BATCH_CASES) | set(EARLY_STOP_CASES)


if __name__ == "__main__":
    names = sorted({**BATCH_CASES, **EARLY_STOP_CASES})
    CORPUS.write_text(json.dumps({name: run_case(name) for name in names},
                                 indent=1, sort_keys=True) + "\n")
