"""Translation equivariance of the decoder at the paper's headline scale.

z -> z ^ b maps every subspace {0, i} onto itself and permutes its cosets,
so every projection the decoder keeps, whatever the pruning, commutes with
it, and so do the first-order decodings and the aggregation: decoding the
LLRs translated by b gives the decoded word translated by b.  No exhaustive
ML oracle reaches RM(8,3); this checks the whole walk there, including the
layout of its projections in memory.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from rmpa import CodeParams, decode_batch, preset

MFP_83 = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))


@pytest.mark.parametrize("params, cfg, frames", [
    (CodeParams(8, 3), MFP_83, 8),
    (CodeParams(7, 3), preset("rpa"), 2),
    (CodeParams(8, 3), preset("rpa"), 2),
], ids=["rm83-mfp", "rm73-rpa", "rm83-rpa"])
def test_decoding_commutes_with_translations(params, cfg, frames):
    rng = np.random.default_rng(params.m + frames)
    llrs = rng.normal(1.0, 1.0, (frames, params.n)) * 2
    z = np.arange(params.n)
    shifts = rng.choice(np.arange(1, params.n), 3, replace=False)
    stack = np.concatenate([llrs] + [llrs[:, z ^ b] for b in shifts])
    bits = decode_batch(stack, params, cfg).reshape(4, frames, params.n)
    for b, translated in zip(shifts, bits[1:]):
        assert np.array_equal(translated, bits[0][:, z ^ b])
