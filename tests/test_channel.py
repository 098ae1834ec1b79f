import numpy as np
import pytest

from oracles import per_frame_channel, two_proportion_pvalue
from rmpa import (ChannelConfig, CodeParams, SimConfig, binomial_ci,
                  csv_string, decode, llr_from_channel, points_to_json,
                  preset, run_sweep, transmit)
from rmpa.channel import (CSV_COLUMNS, MAX_WORKERS, _draw_frames,
                          _frame_states)
import json


def test_sigma_convention():
    ch = ChannelConfig(ebno_db=2.0, rate=29 / 128)
    assert ch.sigma ** 2 == pytest.approx(1.3925, abs=2e-4)


def test_channel_rejects_bad_rate():
    with pytest.raises(ValueError):
        ChannelConfig(ebno_db=0.0, rate=0.0)


def test_transmit_noiseless_limit():
    c = np.array([0, 1, 1, 0], dtype=np.uint8)
    ch = ChannelConfig(ebno_db=100.0, rate=0.5)
    y = transmit(c, ch, np.random.default_rng(0).standard_normal(c.shape))
    assert np.allclose(y, [1.0, -1.0, -1.0, 1.0], atol=1e-3)


def test_transmit_reproducible_and_unbiased():
    ch = ChannelConfig(ebno_db=2.0, rate=0.5)
    c = np.zeros(10 ** 5, dtype=np.uint8)
    y1 = transmit(c, ch, np.random.default_rng(123).standard_normal(c.shape))
    y2 = transmit(c, ch, np.random.default_rng(123).standard_normal(c.shape))
    assert np.array_equal(y1, y2)
    # sample mean within 3 sigma / sqrt(N) of +1
    assert abs(y1.mean() - 1.0) < 3 * ch.sigma / np.sqrt(c.size)


def test_llr_examples():
    ch = ChannelConfig(ebno_db=2.0, rate=0.5)
    assert llr_from_channel(np.array([0.0]), ch)[0] == 0.0
    y = ch.sigma ** 2 / 2
    assert llr_from_channel(np.array([y]), ch)[0] == pytest.approx(1.0)


def test_llr_clamped():
    ch = ChannelConfig(ebno_db=20.0, rate=0.5)
    out = llr_from_channel(np.array([50.0, -50.0]), ch)
    assert out.tolist() == [30.0, -30.0]


def test_llr_empirical_mean():
    ch = ChannelConfig(ebno_db=0.0, rate=0.5)
    rng = np.random.default_rng(17)
    c = np.zeros(10 ** 5, dtype=np.uint8)
    y = transmit(c, ch, rng.standard_normal(c.shape))
    l = llr_from_channel(y, ch)
    expected = 2.0 / ch.sigma ** 2
    assert l.mean() == pytest.approx(expected, rel=0.02)


def _small_sim(**overrides):
    base = dict(code=CodeParams(4, 2), decoder=preset("rpa"),
                ebno_points=(3.0,), min_frame_errors=20, max_frames=5000,
                seed=5, record_timing=False)
    base.update(overrides)
    return SimConfig(**base)


def test_sweep_noise_free_snr_has_no_errors():
    cfg = _small_sim(ebno_points=(60.0,), min_frame_errors=1, max_frames=100)
    pts = run_sweep(cfg)
    assert pts[0].frames == 100
    assert pts[0].fer == 0.0 and pts[0].frame_errors == 0


def test_sweep_fods_per_frame_constant():
    cfg = SimConfig(code=CodeParams(7, 2), decoder=preset("rpa"),
                    ebno_points=(2.0, 4.0), min_frame_errors=1,
                    max_frames=30, seed=1, record_timing=False)
    for pt in run_sweep(cfg):
        assert pt.fods_per_frame == 381.0


def test_sweep_rejects_a_decoder_that_miscounts(monkeypatch):
    import rmpa.channel as channel
    real = channel.decode_batch

    def uncounted(llrs, code, cfg, counter):
        return real(llrs, code, cfg)

    monkeypatch.setattr(channel, "decode_batch", uncounted)
    with pytest.raises(RuntimeError, match="FODs"):
        run_sweep(_small_sim(max_frames=64))


def test_sweep_reproducible_across_workers_and_chunks(monkeypatch):
    for overrides in [
            {},
            # the target is reached inside the first chunk, and max_frames
            # is not a multiple of any chunk
            dict(ebno_points=(0.0,), min_frame_errors=3, max_frames=1001),
            # early stopping: per-frame FODs count up to the stopping frame
            dict(ebno_points=(1.0, 2.0),
                 decoder=preset("rpa", early_stop_theta=0.2))]:
        outs = set()
        for workers, chunk in [(1, 64), (4, 64), (1, 7), (2, 5), (1, 1)]:
            monkeypatch.setattr("rmpa.channel.CHUNK_FRAMES", chunk)
            outs.add(csv_string(run_sweep(_small_sim(workers=workers,
                                                     **overrides))))
        assert len(outs) == 1


@pytest.mark.parametrize("overrides", [
    dict(ebno_points=(1.0,), min_frame_errors=7, max_frames=1001),
    dict(ebno_points=(2.0,), min_frame_errors=7, max_frames=1001,
         decoder=preset("rpa", early_stop_theta=0.2)),
    dict(ebno_points=(30.0,), min_frame_errors=5, max_frames=101)])
def test_sweep_stops_at_the_frame_that_reaches_the_target(overrides):
    cfg = _small_sim(**overrides)
    pt = run_sweep(cfg)[0]
    # the reference decodes frame by frame and stops after the frame that
    # brings the frame errors to min_frame_errors, or at max_frames
    frames = errors = bits = fods = 0
    while errors < cfg.min_frame_errors and frames < cfg.max_frames:
        sent, llrs = per_frame_channel(cfg, 0, [frames])
        res = decode(llrs[0], cfg.code, cfg.decoder)
        wrong = int(np.sum(res.codeword != sent[0]))
        frames, errors = frames + 1, errors + (wrong > 0)
        bits, fods = bits + wrong, fods + res.fods.total
    assert (pt.frames, pt.frame_errors, pt.bit_errors, pt.fods_total) == (
        frames, errors, bits, fods)


def capture(monkeypatch, names) -> dict:
    """Wrap the named functions of rmpa.channel; each wrapper appends the
    (arguments, result) of every call to its list in the returned dict."""
    import rmpa.channel as channel
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(channel, name), _calls=calls[name]):
            result = _fn(*args)
            _calls.append((args, result))
            return result
        monkeypatch.setattr(channel, name, wrapper)
    return calls


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("chunk,theta", [(1, None), (7, None), (64, None),
                                         (7, 0.2)])
def test_chunked_channel_matches_the_per_frame_channel(monkeypatch, chunk,
                                                       theta):
    # min_frame_errors == max_frames: every frame of both points is sent
    monkeypatch.setattr("rmpa.channel.CHUNK_FRAMES", chunk)
    cfg = _small_sim(ebno_points=(1.0, 4.0), min_frame_errors=150,
                     max_frames=150,
                     decoder=preset("rpa", early_stop_theta=theta))
    calls = capture(monkeypatch, ("encode", "decode", "decode_batch"))
    run_sweep(cfg)
    sent = np.concatenate([word for _, word in calls["encode"]])
    llrs = np.concatenate([np.atleast_2d(args[0]) for args, _ in
                           calls["decode"] + calls["decode_batch"]])
    for point in (0, 1):
        want_sent, want_llrs = per_frame_channel(cfg, point, range(150))
        rows = slice(150 * point, 150 * (point + 1))
        assert same_bits(sent[rows], want_sent)
        assert same_bits(llrs[rows], want_llrs)


@pytest.mark.parametrize("point", [0, 5])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3])
def test_frame_states_are_the_default_rng_streams(seed, point):
    # entropy words: seed 2^64 + 3 has three, so every frame has five; seed
    # 2^32 has two, so the chunk across frame 2^32 mixes four and five.
    # Five reach SeedSequence's mixing past its pool of four
    rng = np.random.Generator(np.random.PCG64(0))
    for frames in (range(64), range(2047, 2048),
                   range(2 ** 32 - 2, 2 ** 32 + 2),
                   range(2 ** 40, 2 ** 40 + 1)):
        for frame, state in zip(frames, _frame_states(seed, point, frames),
                                strict=True):
            want = np.random.default_rng((seed, point, frame))
            assert state == want.bit_generator.state
            rng.bit_generator.state = state
            # a message, then noise, as a sweep draws them
            got, expected = [(gen.integers(0, 2, size=42, dtype=np.uint8),
                              gen.standard_normal(64)) for gen in (rng, want)]
            assert all(map(same_bits, got, expected))


@pytest.mark.parametrize("seed", [0, 2 ** 64 + 3])
@pytest.mark.parametrize("k", [1, 3, 11, 42, 64, 256, 638])
def test_frame_draws_are_the_default_rng_draws(seed, k):
    # the messages are read off raw words, a byte per bit: k = 1, 3, 11
    # and 42 take an odd number of 32-bit halves, so integers buffers the
    # other half and the noise must skip it; 64 and 256 fill whole words,
    # and 638 (RM(10,5)) ends two bytes short of its last word
    n = 16
    for frames in (range(3), range(2 ** 32 - 2, 2 ** 32 + 2)):
        msgs, noise = _draw_frames(seed, 1, frames, k, n)
        assert msgs.shape == (len(frames), k) and noise.shape == (
            len(frames), n)
        for t, frame in enumerate(frames):
            want = np.random.default_rng((seed, 1, frame))
            assert same_bits(msgs[t], want.integers(0, 2, size=k,
                                                    dtype=np.uint8))
            assert same_bits(noise[t], want.standard_normal(n))


def test_sweep_builds_one_generator_per_chunk(monkeypatch):
    # a generator built per frame is the cost the chunk's seeding pass
    # removed; the sweep's streams must not come from these again
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a generator per frame")

    built = []

    def pcg64(*args, _real=np.random.PCG64):
        built.append(args)
        return _real(*args)

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "PCG64", pcg64)
    for theta in (None, 0.2):
        cfg = _small_sim(min_frame_errors=300, max_frames=300,
                         decoder=preset("rpa", early_stop_theta=theta))
        assert run_sweep(cfg)[0].frames == 300
    # five chunks of at most 64 frames per sweep
    assert len(built) == 2 * 5


def test_sweep_calls_the_channel_through_the_channel_module(monkeypatch):
    # the benchmark rebuilds the sent words from the rows encode returns,
    # and its traced mode times these names
    calls = capture(monkeypatch, ("encode", "transmit", "llr_from_channel",
                                  "decode", "decode_batch"))
    monkeypatch.setattr("rmpa.channel.CHUNK_FRAMES", 7)
    for theta, decoder in [(None, "decode_batch"), (0.2, "decode")]:
        for seen in calls.values():
            seen.clear()
        cfg = _small_sim(ebno_points=(2.0, 30.0), min_frame_errors=100,
                         max_frames=100,
                         decoder=preset("rpa", early_stop_theta=theta))
        run_sweep(cfg)
        for name in ("transmit", "llr_from_channel", decoder):
            assert calls[name], name
        # one call per chunk of 7, whose rows cover every frame once
        assert [len(word) for _, word in calls["encode"]] == (
            [7] * 14 + [2]) * 2


def test_sweep_stops_at_min_frame_errors():
    cfg = _small_sim(ebno_points=(0.0,), min_frame_errors=10)
    pt = run_sweep(cfg)[0]
    assert pt.frame_errors == 10
    assert pt.fer == 10 / pt.frames
    assert pt.frame_errors <= pt.bit_errors


def test_sweep_respects_max_frames():
    cfg = _small_sim(ebno_points=(30.0,), min_frame_errors=5, max_frames=50)
    pt = run_sweep(cfg)[0]
    assert pt.frames == 50


def test_csv_schema():
    cfg = _small_sim(ebno_points=(30.0,), min_frame_errors=1, max_frames=10)
    text = csv_string(run_sweep(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_json_schema():
    cfg = _small_sim(ebno_points=(30.0,), min_frame_errors=1, max_frames=10)
    obj = json.loads(points_to_json(run_sweep(cfg)))
    assert obj["schema_version"] == 1
    assert set(obj["points"][0]) == set(CSV_COLUMNS)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _small_sim(min_frame_errors=0)
    with pytest.raises(ValueError):
        _small_sim(min_frame_errors=10, max_frames=5)
    # counts are integers: a float or a bool is never truncated or coerced
    for name in ("min_frame_errors", "max_frames", "workers"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                _small_sim(**{name: value})


def test_sim_config_rejects_a_seed_that_is_no_natural_number():
    for seed in (-3, True, 1.0, 2.5, "1", None):
        with pytest.raises(ValueError, match="seed must be a non-negative "
                                             "integer"):
            _small_sim(seed=seed)
    # numpy integers are seeds too, with the same frames
    runs = [csv_string(run_sweep(_small_sim(seed=seed, max_frames=70)))
            for seed in (5, np.int64(5), np.uint64(5))]
    assert runs[0] == runs[1] == runs[2]


def test_sim_config_bounds_workers():
    # only built, never run: a sweep starts one thread per worker
    assert _small_sim(workers=MAX_WORKERS).workers == MAX_WORKERS
    for workers in (0, MAX_WORKERS + 1, 100000):
        with pytest.raises(ValueError, match="workers must be in"):
            _small_sim(workers=workers)


def test_binomial_ci_contains_point_estimate():
    lo, hi = binomial_ci(100, 1000)
    assert lo < 0.1 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo, hi = binomial_ci(np.int64(0), np.int64(3))
    assert abs(lo) < 1e-12 < hi
    for args, name in [((0, 0), "trials"), ((1, 2.0), "trials"),
                       ((5, 3), "errors"), ((-1, 3), "errors"),
                       ((True, 3), "errors"), ((1.0, 3), "errors"),
                       ((1, 3, 0), "confidence"), ((1, 3, 1), "confidence"),
                       ((1, 3, float("nan")), "confidence")]:
        with pytest.raises(ValueError, match=name):
            binomial_ci(*args)


def test_two_proportion_pvalue_directional():
    assert two_proportion_pvalue(50, 1000, 120, 1000) < 0.01
    assert two_proportion_pvalue(120, 1000, 50, 1000) > 0.5
