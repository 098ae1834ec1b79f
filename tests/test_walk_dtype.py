"""The decode walk runs in float32.

Every kernel computes in its input's float dtype, float32 or else float64;
decode and decode_batch cast the clamped LLRs to float32 once and feed that
dtype to every level; the float32 walk decodes the bits of the float64 walk
on Gaussian frames; and the float64 walk still decodes the corpus to the
bits it gave before the walk ran in float32."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import decode_float64, fht, fod_bits
from rmpa import (LLR_CLAMP, CodeParams, aggregate,
                  build_generator, coset_signs, decode, decode_batch, encode,
                  fht_decode, preset, project_llr, stack_coset_maps)
from rmpa import decoder, fod
from rmpa.channel import ChannelConfig, llr_from_channel, transmit
from rmpa.fod import TIE_RTOL_FLOAT32
from test_decode_corpus import (BATCH_CASES, CORPUS, EARLY_STOP_CASES,
                                _digest, corpus_llrs)

MFP_83 = preset("mfp", gamma=F(3, 4), delta_itr=F(1, 3), delta_rec=F(3, 4))
RPA_72_ES = preset("rpa", early_stop_theta=0.05)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_kernel_computes_in_its_input_dtype(dtype, monkeypatch):
    rng = np.random.default_rng(16)
    m, n = 6, 64
    l = (rng.normal(size=(3, n)) * 4).astype(dtype)
    cmap = stack_coset_maps(m, (1, 5, 63))
    assert project_llr(l, cmap).dtype == dtype
    assert fht(l).dtype == dtype
    chat = rng.integers(0, 2, size=(3, 3, n // 2), dtype=np.uint8)
    signs = coset_signs(cmap, chat, dtype)
    assert signs.dtype == dtype
    assert aggregate(l, cmap, signs).dtype == dtype
    forms = rng.integers(0, 2 * n, size=(3, 3))
    whole = fod._form_rows(forms, m, dtype)
    assert whole.dtype == dtype
    # past the whole form table the split tables keep the dtype too
    monkeypatch.setattr(fod, "FORM_TABLE_M", 2)
    split = fod._form_rows(forms, m, dtype)
    assert split.dtype == dtype
    assert np.array_equal(split, whole)
    spectra = []
    original = fod._spectra

    def spying(batch):
        spectra.append(original(batch).dtype)
        return original(batch)

    monkeypatch.setattr(fod, "_spectra", spying)
    fht_decode(l)
    assert spectra == [dtype]


def test_the_float32_kernels_agree_with_the_float64_ones():
    # within a tolerance set from float32 eps, relative to the values' scale
    rng = np.random.default_rng(17)
    m, n = 7, 128
    l64 = rng.normal(size=(4, n)) * 5
    l32 = l64.astype(np.float32)
    tol = 64 * np.finfo(np.float32).eps
    cmap = stack_coset_maps(m, (1, 6, 77, 127))
    for kernel, scale in [(lambda l: project_llr(l, cmap), LLR_CLAMP),
                          (fht, np.abs(fht(l64)).max())]:
        got, want = kernel(l32), kernel(l64)
        assert np.abs(got - want).max() <= tol * scale
    chat = rng.integers(0, 2, size=(4, 4, n // 2), dtype=np.uint8)
    got = aggregate(l32, cmap, coset_signs(cmap, chat, np.float32))
    want = aggregate(l64, cmap, coset_signs(cmap, chat))
    assert np.abs(got - want).max() <= tol * np.abs(l64).max()
    assert np.array_equal(fht_decode(l32), fht_decode(l64))


def test_aggregate_rejects_signs_of_another_dtype():
    cmap = stack_coset_maps(3, (1, 2))
    signs = coset_signs(cmap, np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="dtype"):
        aggregate(np.ones(8, dtype=np.float32), cmap, signs)


@pytest.mark.parametrize("dtype,ties", [(np.float32, True),
                                        (np.float64, False)])
def test_the_tie_band_is_per_dtype(dtype, ties):
    # |W| is 1 + d at a = 1 and 2 and 1 - d at a = 0 and 3: inside the
    # float32 band, outside the float64 one
    d = TIE_RTOL_FLOAT32 / 4
    llr = np.array([1.0, 0.0, 0.0, -d], dtype=dtype)
    assert np.argmax(np.abs(fht(llr))) == 1
    a_star = 0 if ties else 1
    want = [bin(a_star & z).count("1") % 2 for z in range(4)]
    assert fod_bits(llr).tolist() == want


@pytest.fixture
def fed_dtypes(monkeypatch):
    """The dtype and length of the LLRs that rmpa.decoder passes to
    project_llr, fht_decode and aggregate, recorded by wrapping the module
    attributes, as the bench wraps them."""
    seen = {name: [] for name in ("project_llr", "fht_decode", "aggregate")}
    for name, calls in seen.items():
        original = getattr(decoder, name)

        def recording(l, *args, _original=original, _calls=calls):
            _calls.append((l.dtype, l.shape[-1]))
            return _original(l, *args)

        monkeypatch.setattr(decoder, name, recording)
    return seen


@pytest.mark.parametrize("params,cfg", [
    (CodeParams(8, 3), MFP_83),
    (CodeParams(6, 3), preset(schedule=(4, 8))),
    (CodeParams(7, 2), RPA_72_ES),
], ids=["rm83-mfp", "rm63-schedule", "rm72-rpa-es"])
def test_every_level_of_the_walk_runs_in_float32(fed_dtypes, params, cfg):
    llrs = np.random.default_rng(params.m).normal(1.0, 2.0, (2, params.n))
    if cfg.early_stop_theta is None:
        decode_batch(llrs, params, cfg)
    decode(llrs[0], params, cfg)
    for name, calls in fed_dtypes.items():
        assert {dtype for dtype, _ in calls} == {np.dtype(np.float32)}, name
    # the top level projects length n, and level 2 below a level-3 decoder
    # length n/2 (the shared quotients project a stack of those)
    lengths = {length for _, length in fed_dtypes["project_llr"]}
    assert params.n in lengths
    assert (params.n // 2 in lengths) == (params.r > 2)
    assert {length for _, length in fed_dtypes["fht_decode"]} == {
        1 << (params.m - params.r + 1)}


def test_a_first_order_code_alone_is_decoded_in_float64(fed_dtypes):
    llrs = np.random.default_rng(1).normal(size=(3, 64))
    decode_batch(llrs, CodeParams(6, 1), preset("rpa"))
    decode(llrs[0], CodeParams(6, 1), preset("rpa"))
    assert fed_dtypes["fht_decode"] == [(np.dtype(np.float64), 64)] * 2
    assert fed_dtypes["project_llr"] == fed_dtypes["aggregate"] == []


def gaussian_frames(params, ebno_db, frames, seed):
    """The channel LLRs of random codewords of params at ebno_db."""
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(frames, params.k), dtype=np.uint8)
    ch = ChannelConfig(ebno_db=ebno_db, rate=params.rate)
    c = encode(msgs, build_generator(params))
    return llr_from_channel(transmit(c, ch, rng.normal(size=c.shape)), ch)


def test_the_float32_walk_equals_the_float64_walk_with_early_stopping():
    params = CodeParams(7, 2)
    llrs = gaussian_frames(params, 2.0, 300, seed=72)
    assert np.abs(llrs).max() < LLR_CLAMP
    for llr in llrs:
        got = decode(llr, params, RPA_72_ES)
        bits, iterations, converged = decode_float64(
            llr[None, :], params, RPA_72_ES, RPA_72_ES.early_stop_theta)
        assert np.array_equal(got.codeword, bits[0])
        assert (got.iterations_run, got.converged_early) == (iterations,
                                                              converged)


def test_the_float32_walk_equals_the_float64_walk_on_an_rm83_mfp_batch():
    params = CodeParams(8, 3)
    llrs = gaussian_frames(params, 1.0, 8, seed=83)
    assert np.abs(llrs).max() < LLR_CLAMP
    assert np.array_equal(decode_batch(llrs, params, MFP_83),
                          decode_float64(llrs, params, MFP_83)[0])


# the corpus digest of rm83_mfp before the walk ran in float32, where it was
# restated (see tests/test_decode_corpus.py)
FLOAT64_RM83_MFP = ("1a10af1a6e72fab912c563e1356d3a38"
                    "e07d146ecf085c253c1091e2883feef4")


@pytest.mark.parametrize("name", sorted({**BATCH_CASES, **EARLY_STOP_CASES}))
def test_the_float64_walk_decodes_the_corpus_as_before(name):
    expected = json.loads(CORPUS.read_text())[name]
    if name == "rm83_mfp":
        expected["sha256"] = FLOAT64_RM83_MFP
    if name in BATCH_CASES:
        m, r, cfg, frames = BATCH_CASES[name]
        params = CodeParams(m, r)
        bits = decode_float64(corpus_llrs(params, frames, seed=len(name)),
                              params, cfg)[0]
        assert _digest(bits) == expected["sha256"]
        return
    m, r, cfg, frames = EARLY_STOP_CASES[name]
    params = CodeParams(m, r)
    results = [decode_float64(llr[None, :], params, cfg,
                              cfg.early_stop_theta)
               for llr in corpus_llrs(params, frames, seed=len(name))]
    assert _digest([bits[0] for bits, _, _ in results]) == expected["sha256"]
    assert [it for _, it, _ in results] == expected["iterations"]
    assert [conv for _, _, conv in results] == expected["converged"]
