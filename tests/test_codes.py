import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (enumerate_codewords, fod_bits, in_row_space_batch,
                     is_codeword, ml_decode_oracle)
from rmpa import CodeParams, build_generator, encode


def build_generator_recursive(params: CodeParams) -> np.ndarray:
    """Same matrix via the recursive block construction
    G(m,r) = [[G(m-1,r), G(m-1,r)], [0, G(m-1,r-1)]], rows re-sorted into
    the canonical order.  Cross-check for build_generator."""

    def rec(m, r):
        # returns (rows, kron indices) in recursion order
        if m == 0:
            return np.array([[1]], dtype=np.uint8), [0]
        top, top_idx = rec(m - 1, min(r, m - 1))
        if r == 0:
            # repetition code: single all-ones row
            row = np.ones((1, 1 << m), dtype=np.uint8)
            return row, [0]
        bot, bot_idx = rec(m - 1, r - 1)
        upper = np.hstack([top, top])
        lower = np.hstack([np.zeros_like(bot), bot])
        rows = np.vstack([upper, lower])
        idx = top_idx + [a | (1 << (m - 1)) for a in bot_idx]
        return rows, idx

    rows, idx = rec(params.m, params.r)
    perm = sorted(range(len(idx)), key=lambda t: (bin(idx[t]).count("1"), idx[t]))
    return rows[perm]


def test_params_basic():
    p = CodeParams(7, 2)
    assert (p.n, p.k) == (128, 29)
    assert 0 < p.rate <= 1


@pytest.mark.parametrize("m,r", [(-1, 0), (2, 3), (3, -1), (True, True),
                                 (6.0, 3), (6, 3.0), ("6", 3)])
def test_params_invalid(m, r):
    with pytest.raises(ValueError):
        CodeParams(m, r)


def test_generator_rm11():
    assert build_generator(CodeParams(1, 1)).tolist() == [[1, 1], [0, 1]]


def test_generator_rm21_rows():
    rows = {tuple(r) for r in build_generator(CodeParams(2, 1))}
    assert rows == {(1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1)}


@pytest.mark.parametrize("m", [1, 3, 5])
def test_generator_rm_m0_repetition(m):
    gen = build_generator(CodeParams(m, 0))
    assert gen.shape == (1, 2 ** m)
    assert np.all(gen == 1)


def test_row_weights_at_least_min_distance():
    for m in range(1, 8):
        for r in range(0, m + 1):
            gen = build_generator(CodeParams(m, r))
            assert np.all(gen.sum(axis=1) >= 2 ** (m - r))


def test_recursive_construction_matches_kronecker():
    for m in range(1, 9):
        for r in range(1, m + 1):
            p = CodeParams(m, r)
            assert np.array_equal(build_generator(p),
                                  build_generator_recursive(p))


def test_encode_examples():
    p = CodeParams(2, 1)
    gen = build_generator(p)
    assert encode(np.zeros(3, dtype=np.uint8), gen).tolist() == [0, 0, 0, 0]
    assert encode([1, 1, 0], gen).tolist() == [1, 0, 1, 0]
    g11 = build_generator(CodeParams(1, 1))
    assert encode([1, 0], g11).tolist() == [1, 1]


def test_encode_length_mismatch():
    gen = build_generator(CodeParams(2, 1))
    for msg in ([1, 0], [[1, 0], [0, 1]], 1):
        with pytest.raises(ValueError):
            encode(msg, gen)


def test_encode_takes_a_stack_of_messages():
    # k = 256 at RM(9,4): a sum of the product can pass 255
    rng = np.random.default_rng(4)
    for m, r in [(4, 2), (9, 4)]:
        p = CodeParams(m, r)
        gen = build_generator(p)
        msgs = rng.integers(0, 2, (5, p.k), dtype=np.uint8)
        words = encode(msgs, gen)
        assert words.shape == (5, p.n)
        for msg, word in zip(msgs, words):
            assert np.array_equal(word, encode(msg, gen))
            assert is_codeword(word, p)


def test_encode_is_the_xor_of_the_rows_the_message_selects():
    # encode's float64 product and integer parity against the F_2
    # definition, row by row.  The all-ones message sums k rows at z = n - 1:
    # 256 at RM(9,4) and 638 at RM(10,5), past what a uint8 holds
    rng = np.random.default_rng(11)
    for m, r in [(6, 3), (8, 3), (9, 4), (10, 5)]:
        p = CodeParams(m, r)
        gen = build_generator(p)
        msgs = rng.integers(0, 2, (64, p.k), dtype=np.uint8)
        msgs[0], msgs[1] = 0, 1
        words = encode(msgs, gen)
        assert words.dtype == np.uint8
        for msg, word in zip(msgs, words):
            want = np.bitwise_xor.reduce(gen[msg == 1], axis=0,
                                         initial=np.uint8(0))
            assert np.array_equal(word, want)


def test_encode_output_is_codeword():
    rng = np.random.default_rng(3)
    for m, r in [(3, 1), (4, 2), (5, 3)]:
        p = CodeParams(m, r)
        gen = build_generator(p)
        for _ in range(20):
            c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
            assert is_codeword(c, p)


def test_is_codeword_examples():
    p = CodeParams(2, 1)
    assert is_codeword(np.zeros(4, dtype=np.uint8), p)
    for row in build_generator(p):
        assert is_codeword(row, p)
    assert not is_codeword(np.array([1, 0, 0, 0], dtype=np.uint8), p)
    # cross-check against the full enumeration of the 8 codewords
    words = {tuple(w) for w in enumerate_codewords(p)}
    assert len(words) == 8
    for bits in itertools.product([0, 1], repeat=4):
        assert is_codeword(np.array(bits, dtype=np.uint8), p) == (bits in words)


def test_build_generator_memory_stays_linear_in_n():
    # k x n output: 14 x 8192 bytes; an n x n intermediate would be 64 MiB
    tracemalloc.start()
    try:
        build_generator(CodeParams(13, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_membership_agrees_with_the_enumerated_code(m):
    words = ((np.arange(1 << (1 << m))[:, None] >> np.arange(1 << m)) & 1)
    for r in range(m + 1):
        p = CodeParams(m, r)
        code = {tuple(w) for w in enumerate_codewords(p)}
        expected = [tuple(w) in code for w in words]
        assert in_row_space_batch(words, p).tolist() == expected


@pytest.mark.parametrize("m", [2, 3, 4])
def test_codeword_count_and_min_distance(m):
    for r in range(1, m + 1):
        p = CodeParams(m, r)
        words = enumerate_codewords(p)
        assert len({tuple(w) for w in words}) == 2 ** p.k
        weights = words.sum(axis=1)
        assert weights[weights > 0].min() == 2 ** (m - r)


def test_ml_oracle_all_positive_llr():
    p = CodeParams(3, 2)
    out = ml_decode_oracle(np.full(8, 9.0), p)
    assert np.all(out == 0)


def test_ml_oracle_noiseless_codeword():
    p = CodeParams(3, 2)
    gen = build_generator(p)
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = encode(rng.integers(0, 2, p.k, dtype=np.uint8), gen)
        llr = 20.0 * (1.0 - 2.0 * c)
        assert np.array_equal(ml_decode_oracle(llr, p), c)


def test_ml_oracle_matches_fht_on_first_order():
    p = CodeParams(3, 1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        llr = rng.normal(size=8)
        assert np.array_equal(ml_decode_oracle(llr, p), fod_bits(llr))


def test_ml_oracle_cap():
    with pytest.raises(ValueError):
        ml_decode_oracle(np.ones(2 ** 6), CodeParams(6, 6))
