"""Reference implementations that the tests check rmpa against.

None of these is on a decoding path: an exhaustive ML decoder, the code's
membership test, single coset maps, hard projections, the logaddexp form
of the soft projection, the per-map loops of the projection, the coset
signs and the aggregation, the Walsh-Hadamard transform of any vectors
over rmpa's kernel and its butterfly form, the codeword bits of
first-order decodings, the per-path decode walk, the decode walk in
float64, the frame-by-frame channel, and a z-test for comparing two frame
error rates.
"""

from __future__ import annotations

from functools import lru_cache
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from rmpa.channel import ChannelConfig, llr_from_channel
from rmpa.codes import CodeParams, build_generator, encode
from rmpa.decoder import WALK_DTYPE, _walk, check_convergence, decode_plan
from rmpa.fod import _spectra, float_array, fht_decode, form_bits
from rmpa.geometry import LLR_CLAMP, clamp_llr

ML_ORACLE_CAP = 2 ** 20


def is_codeword(c: np.ndarray, params: CodeParams) -> bool:
    """Membership in RM(m, r)."""
    c = np.asarray(c, dtype=np.uint8)
    if c.shape != (params.n,):
        raise ValueError(f"vector length {c.shape} does not match n={params.n}")
    return bool(in_row_space_batch(c[None, :], params)[0])


def in_row_space_batch(vectors: np.ndarray, params: CodeParams) -> np.ndarray:
    """Vectorized membership test; vectors has shape (batch, n).

    The binary Moebius transform, the GF(2) twin of fht, turns each word
    into its coefficients over the monomials; a word is in RM(m, r) iff
    none of degree > r is present."""
    v = np.asarray(vectors, dtype=np.uint8) % 2
    n = params.n
    h = 1
    while h < n:
        w = v.reshape(v.shape[:-1] + (n // (2 * h), 2, h))
        w[..., 1, :] ^= w[..., 0, :]
        h *= 2
    degree = np.array([bin(a).count("1") for a in range(n)])
    return ~np.any(v[:, degree > params.r], axis=1)


def enumerate_codewords(params: CodeParams) -> np.ndarray:
    """All 2^k codewords (rows), message index order.  Small codes only."""
    if 2 ** params.k > ML_ORACLE_CAP:
        raise ValueError(f"2^k = 2^{params.k} exceeds exhaustive cap {ML_ORACLE_CAP}")
    gen = build_generator(params)
    k = params.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    return (msgs @ gen) % 2


def ml_decode_oracle(llr: np.ndarray, params: CodeParams) -> np.ndarray:
    """Exhaustive correlation-maximizing decoder; ties broken by the
    lexicographically smallest codeword."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (params.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={params.n}")
    words = enumerate_codewords(params)
    corr = (1.0 - 2.0 * words) @ llr
    best = np.max(corr)
    candidates = np.nonzero(corr == best)[0]
    if candidates.size == 1:
        return words[candidates[0]].copy()
    rows = words[candidates]
    order = np.lexsort(rows[:, ::-1].T)
    return rows[order[0]].copy()


@lru_cache(maxsize=None)
def build_coset_map(m: int, i: int) -> SimpleNamespace:
    """The coset map of the one subspace {0, i}, from the definition: the
    cosets {z, z ^ i}, each named by its smaller member, in ascending order.
    It has the index fields of a single rmpa.geometry.CosetMap, read-only,
    as each map is built once."""
    n = 1 << m
    if not 1 <= i <= n - 1:
        raise ValueError(f"subspace index must be in [1, {n - 1}], got {i}")
    reps = sorted({min(z, z ^ i) for z in range(n)})
    coset = {rep: t for t, rep in enumerate(reps)}
    fields = dict(
        reps=np.array(reps), partners=np.array([rep ^ i for rep in reps]),
        coset_of=np.array([coset[min(z, z ^ i)] for z in range(n)]),
        partner_of=np.array([z ^ i for z in range(n)]))
    for a in fields.values():
        a.setflags(write=False)
    return SimpleNamespace(m=m, i=i, **fields)


def mask_coset_maps(m: int, indices) -> SimpleNamespace:
    """The coset maps of the subspaces in indices, stacked along a first
    axis, from a mask: each row keeps its n/2 coordinates below their
    partner, ascending, and numbers its cosets from 0.  It has the fields
    of rmpa.geometry.CosetMap.

    The reference that rmpa's bit-rule build is checked against."""
    n = 1 << m
    i = np.array(indices, dtype=np.intp).reshape(-1, 1)
    z = np.arange(n)
    partner_of = z ^ i
    reps = np.broadcast_to(z, partner_of.shape)[z < partner_of].reshape(
        len(i), n // 2)
    partners = reps ^ i
    cosets = np.broadcast_to(np.arange(n // 2), reps.shape)
    coset_of = np.empty_like(partner_of)
    np.put_along_axis(coset_of, reps, cosets, axis=1)
    np.put_along_axis(coset_of, partners, cosets, axis=1)
    return SimpleNamespace(reps=reps, partners=partners, coset_of=coset_of,
                           partner_of=partner_of)


def project_hard(c: np.ndarray, cmap) -> np.ndarray:
    """XOR the two members of each coset; length n -> n/2."""
    c = np.asarray(c)
    return c[..., cmap.reps] ^ c[..., cmap.partners]


def boxplus(a, b):
    """Soft XOR of two LLRs, 2*atanh(tanh(a/2)*tanh(b/2)), evaluated in the
    stable log form ln((1 + e^(a+b)) / (e^a + e^b)).  Result clamped.

    The reference that rmpa.project_llr's exp-domain form is checked
    against."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.logaddexp(0.0, a + b) - np.logaddexp(a, b)
    return np.clip(out, -LLR_CLAMP, LLR_CLAMP)


def project_per_map(l: np.ndarray, m: int, indices) -> np.ndarray:
    """The soft projections of the LLRs l, shape (..., 2^m), onto the
    subspaces {0, i} of indices, shape (..., k, 2^(m-1)), one map at a time
    from its coset map, with rmpa's exp-domain arithmetic in l's float
    dtype: u = exp(-min(|l|, LLR_CLAMP)), then (log1p(u_a * u_b)
    - log(u_a + u_b)) * sign(a) * sign(b).

    The reference that rmpa.project_llr's gathers are checked against."""
    l = float_array(l)
    u = np.exp(-np.minimum(np.abs(l), LLR_CLAMP))
    sign = np.sign(l)
    out = np.empty(l.shape[:-1] + (len(indices), l.shape[-1] // 2), l.dtype)
    for t, i in enumerate(indices):
        cm = build_coset_map(m, i)
        ua, ub = u[..., cm.reps], u[..., cm.partners]
        out[..., t, :] = ((np.log1p(ua * ub) - np.log(ua + ub))
                          * sign[..., cm.reps] * sign[..., cm.partners])
    return out


def coset_signs_per_map(m: int, indices, chat: np.ndarray,
                        dtype) -> np.ndarray:
    """The signs (-1)^chat[t, coset_t(z)], shape (..., k, 2^m), of the
    decoded projection bits chat, shape (..., k, 2^(m-1)), of the
    subspaces {0, i} of indices, one map at a time from its coset map, in
    dtype.

    The reference that rmpa.coset_signs is checked against."""
    chat = np.asarray(chat)
    return np.stack([1 - 2 * chat[..., t, build_coset_map(m, i).coset_of]
                     .astype(dtype) for t, i in enumerate(indices)], axis=-2)


def aggregate_per_map(l: np.ndarray, m: int, indices,
                      chat: np.ndarray) -> np.ndarray:
    """The aggregation of the LLRs l, shape (..., 2^m), from the decoded
    projection bits chat, shape (..., k, 2^(m-1)), of the subspaces
    {0, i} of indices, one map at a time from its coset map: output
    coordinate z is (1/k) * sum_t (-1)^chat[t, coset_t(z)] * l[z ^ i_t],
    summed t = 0, 1, ... in l's float dtype.

    The reference that rmpa.aggregate is checked against."""
    l = float_array(l)
    signs = coset_signs_per_map(m, indices, chat, l.dtype)
    accu = np.zeros_like(l)
    for t, i in enumerate(indices):
        accu += signs[..., t, :] * l[..., build_coset_map(m, i).partner_of]
    return accu / len(indices)


def fht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, in values'
    float dtype: out[a] = sum_z (-1)^<a, z> values[z]; values is only read.

    rmpa's own transform, rmpa.fod._spectra, which fht_decode runs, for
    vectors of any leading shape: the form in which the tests check it."""
    x = float_array(values)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return _spectra(x.reshape(-1, n)).T.reshape(x.shape)


def fht_butterfly(x: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform along the first axis, where each
    butterfly stage is a few long contiguous passes.  Each stage reads one
    buffer and writes the other, so x is only read.  It sums in x's float
    dtype, as rmpa's transform does.

    The reference that rmpa's Hadamard-product form of the transform (fht
    above) is checked against."""
    x = float_array(x)
    n = x.shape[0]
    buffers = (np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype))
    h = 1
    while h < n:
        src = x.reshape((n // (2 * h), 2, h) + x.shape[1:])
        x = buffers[h.bit_length() % 2]
        dst = x.reshape(src.shape)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        h *= 2
    return x


def fod_bits(l: np.ndarray) -> np.ndarray:
    """The codewords that rmpa.fht_decode decodes from the vectors along
    the last axis of l, as bits: form_bits of its forms."""
    n = np.shape(l)[-1]
    return form_bits(fht_decode(l), n.bit_length() - 1)


def walk_per_path(node, llr: np.ndarray, theta: float | None = None):
    """Decode a (batch, 2^m) stack along the plan node, every path on its
    own: each inner decoder projects and decodes its own inputs, and every
    projection and aggregation is a per-map loop, project_per_map and
    aggregate_per_map.  Returns (bits, iterations, converged), as rmpa's
    walk does.  It decodes the whole stack at once, where rmpa's walk goes
    through it in blocks of rows: blocks change no bit, so the reference
    does not depend on how they are sized.

    The reference that rmpa's walk, which decodes each repeated quotient
    once and builds first-order signs from the decoded form, is checked
    against."""
    if not node.steps:
        return fod_bits(llr), 0, False
    iterations, converged = 0, False
    half = llr.shape[-1] // 2
    for iterations, (indices, inner) in enumerate(node.steps, 1):
        chat, _, _ = walk_per_path(
            inner, project_per_map(llr, node.m, indices).reshape(-1, half))
        llr_new = aggregate_per_map(
            llr, node.m, indices, chat.reshape(len(llr), len(indices), half))
        converged = (theta is not None
                     and check_convergence(llr[0], llr_new[0], theta))
        llr = llr_new
        if converged:
            break
    return (llr < 0).astype(np.uint8), iterations, converged


def decode_per_path(llr: np.ndarray, params: CodeParams, cfg,
                    theta: float | None = None):
    """walk_per_path of a (batch, n) stack of LLRs under cfg, clamped and
    cast to the walk's dtype as rmpa does on entry."""
    plan = decode_plan(params, cfg)
    llr = np.asarray(llr, dtype=np.float64)
    return walk_per_path(
        plan, clamp_llr(llr).astype(WALK_DTYPE) if plan.steps else llr, theta)


def decode_float64(llr: np.ndarray, params: CodeParams, cfg,
                   theta: float | None = None):
    """rmpa's decode walk of a (batch, n) stack of LLRs under cfg, clamped
    as rmpa clamps them on entry but kept in float64, where rmpa casts them
    to float32.  Returns (bits, iterations, converged).

    The reference that the float32 walk is checked against."""
    plan = decode_plan(params, cfg)
    llr = np.asarray(llr, dtype=np.float64)
    return _walk(plan, clamp_llr(llr) if plan.steps else llr, None, theta)


def per_frame_channel(cfg, point: int, frames) -> tuple:
    """The sent words and channel LLRs of a sweep's frames at SNR point
    index point, made one frame at a time from the frame's own RNG: the
    message, encode, rng.normal noise, then the LLRs.

    The reference that the sweep's chunk-level channel is checked against."""
    gen = build_generator(cfg.code)
    ch = ChannelConfig(ebno_db=cfg.ebno_points[point], rate=cfg.code.rate)
    sent, llrs = [], []
    for frame in frames:
        rng = np.random.default_rng((cfg.seed, point, frame))
        msg = rng.integers(0, 2, size=cfg.code.k, dtype=np.uint8)
        c = encode(msg, gen)
        y = (1.0 - 2.0 * c) + rng.normal(0.0, ch.sigma, size=c.shape)
        sent.append(c)
        llrs.append(llr_from_channel(y, ch))
    return np.array(sent), np.array(llrs)


def two_proportion_pvalue(err1: int, n1: int, err2: int, n2: int) -> float:
    """One-sided z-test p-value for H1: p1 < p2 (pooled variance)."""
    p1, p2 = err1 / n1, err2 / n2
    pooled = (err1 + err2) / (n1 + n2)
    se = (pooled * (1 - pooled) * (1 / n1 + 1 / n2)) ** 0.5
    if se == 0:
        return 1.0
    z = (p2 - p1) / se
    return NormalDist().cdf(-z)
