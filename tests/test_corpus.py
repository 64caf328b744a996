"""Synthetic corpus generator: determinism, SNR mixing, regions, labels."""

import math
import tracemalloc

import numpy as np
import pytest

from tunescout.corpus import (
    CorpusConfig,
    MusicRegion,
    ambient_audio,
    detector_clips,
    make_queries,
    mix_at_snr,
    noise_audio,
    query_audio,
    song_audio,
    to_pcm,
)
from tunescout.frontend import CANONICAL_RATE

CFG = CorpusConfig(n_songs=10, duration_s=10.0, seed=7)


def test_song_audio_deterministic_and_bounded():
    a = song_audio(CFG, 3)
    b = song_audio(CFG, 3)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.7 + 1e-6
    assert len(a) == int(CFG.duration_s * CFG.sample_rate)


def test_sample_rate_is_fixed_at_the_canonical_rate():
    assert CFG.sample_rate == CANONICAL_RATE
    with pytest.raises(TypeError):
        CorpusConfig(n_songs=2, duration_s=20.0, sample_rate=8000)


def test_songs_differ_across_ids_and_seeds():
    assert not np.array_equal(song_audio(CFG, 0), song_audio(CFG, 1))
    other = CorpusConfig(n_songs=10, duration_s=10.0, seed=8)
    assert not np.array_equal(song_audio(CFG, 0), song_audio(other, 0))


def test_noise_kinds():
    rng = np.random.default_rng(0)
    for kind in ("white", "lowpass", "mix"):
        w = noise_audio(2.0, rng, kind=kind)
        assert len(w) == 32000 and np.isfinite(w).all()


def _noise_reference(duration_s, rng, kind="mix"):
    """noise_audio on whole arrays: the white noise is kept to the end, the
    modulation is one full-length expression and the peak an |out| copy."""
    n = int(duration_s * CANONICAL_RATE)
    white = rng.normal(0, 1, n)

    def one_pole(x, a, b):
        k = min(len(x), max(8, int(math.log(1e-4) / math.log(a))))
        return np.convolve(x, b * a ** np.arange(k))[: len(x)]

    if kind == "white":
        out = white
    elif kind == "lowpass":
        a = rng.uniform(0.9, 0.99)
        out = one_pole(white, a, 1 - a)
    else:
        a = rng.uniform(0.85, 0.98)
        out = one_pole(white, a, 1 - a)
        mod_hz = rng.uniform(0.5, 4.0)
        t = np.arange(n) / CANONICAL_RATE
        out *= 0.4 + 0.6 * (0.5 + 0.5 * np.sin(2 * math.pi * mod_hz * t + rng.uniform(0, 6.28)))
    peak = np.abs(out).max()
    if peak > 0:
        out = out / peak * 0.7
    return out.astype(np.float32)


@pytest.mark.parametrize("kind", ["white", "lowpass", "mix"])
def test_noise_audio_equals_whole_array_formula(kind):
    # 0.5 s is inside one modulation block, 4.096 s is exactly one, the
    # others end in a partial block
    for seed, duration_s in enumerate((0.5, 4.096, 4.0961875, 9.7, 37.3)):
        got = noise_audio(duration_s, np.random.default_rng(seed), kind=kind)
        ref = _noise_reference(duration_s, np.random.default_rng(seed), kind=kind)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noise_audio_peak_memory_is_one_and_a_half_float64_copies():
    duration_s = 60.0
    full = int(duration_s * CANONICAL_RATE) * 8  # bytes of one float64 copy
    # the noise, filtered in place, and its float32 output, plus blocks
    bound = 1.75 * full
    peak = _traced_peak(lambda: noise_audio(duration_s, np.random.default_rng(0)))
    assert peak < bound
    # the whole-array formula holds about five copies at once
    assert _traced_peak(lambda: _noise_reference(duration_s, np.random.default_rng(0))) > bound


def test_lowpass_noise_has_less_high_frequency_energy():
    w = noise_audio(2.0, np.random.default_rng(1), kind="white")
    lp = noise_audio(2.0, np.random.default_rng(1), kind="lowpass")
    def hf_ratio(x):
        spec = np.abs(np.fft.rfft(x)) ** 2
        return spec[len(spec) // 2 :].sum() / spec.sum()
    assert hf_ratio(lp) < hf_ratio(w) / 4


def test_mix_at_snr_hits_requested_ratio():
    rng = np.random.default_rng(2)
    sig = song_audio(CFG, 0)[:16000] * 0.1  # headroom so no peak rescale
    noise = noise_audio(1.0, rng)
    for snr in (20.0, 10.0, 5.0):
        mixed = mix_at_snr(sig, noise, snr)
        added = mixed.astype(np.float64) - sig
        got = 10 * np.log10((sig.astype(np.float64) ** 2).mean() / (added**2).mean())
        assert got == pytest.approx(snr, abs=0.5)


def test_query_plan_deterministic_and_kinds():
    h = CorpusConfig(n_songs=3, duration_s=10.0, seed=9)
    a = make_queries(CFG, 10, n_noise=4, n_holdout=3, holdout_cfg=h)
    b = make_queries(CFG, 10, n_noise=4, n_holdout=3, holdout_cfg=h)
    assert a == b
    kinds = [s.kind for s in a]
    assert kinds.count("music") == 10 and kinds.count("noise") == 4 and kinds.count("holdout") == 3
    assert all(s.song_id == -1 for s in a if s.kind == "noise")
    assert all(0.5 <= s.gain <= 1.5 for s in a)


def test_query_audio_deterministic():
    h = CorpusConfig(n_songs=3, duration_s=10.0, seed=9)
    spec = make_queries(CFG, 2, n_noise=1, n_holdout=1, holdout_cfg=h)[0]
    assert np.array_equal(query_audio(CFG, spec, h), query_audio(CFG, spec, h))


def test_music_query_contains_the_song_excerpt():
    spec = make_queries(CFG, 1)[0]
    clean = song_audio(CFG, spec.song_id)
    s = int(spec.start_s * CFG.sample_rate)
    seg = clean[s : s + int(spec.length_s * CFG.sample_rate)]
    q = query_audio(CFG, spec)
    # the mixed query correlates strongly with the clean excerpt
    corr = np.corrcoef(seg, q[: len(seg)])[0, 1]
    assert corr > 0.5


def test_detector_clips_balanced_and_deterministic():
    clips = detector_clips(40, seed=5, clip_s=2.0)
    labels = [lab for _, lab in clips]
    assert labels.count(1) == 20 and labels.count(0) == 20
    again = detector_clips(40, seed=5, clip_s=2.0)
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1] for a, b in zip(clips, again))


def test_ambient_audio_regions_add_energy():
    regions = [MusicRegion(start_s=5.0, duration_s=5.0, song_id=0, snr_db=20.0)]
    wave = ambient_audio(20.0, regions, CFG, seed=1)
    sr = CFG.sample_rate
    inside = float((wave[5 * sr : 10 * sr] ** 2).mean())
    outside = float((wave[12 * sr : 17 * sr] ** 2).mean())
    assert inside > outside * 5


def test_ambient_silence_bed_is_silent_outside_regions():
    regions = [MusicRegion(start_s=2.0, duration_s=2.0, song_id=1, snr_db=20.0)]
    wave = ambient_audio(10.0, regions, CFG, seed=2, silence_outside=True)
    sr = CFG.sample_rate
    assert np.all(wave[: 2 * sr] == 0)
    assert np.all(wave[4 * sr :] == 0)
    assert (wave[2 * sr : 4 * sr] ** 2).sum() > 0


def test_to_pcm_clips_and_converts():
    pcm = to_pcm(np.array([2.0, -2.0, 0.5], dtype=np.float32))
    assert pcm.samples.dtype == np.int16
    assert pcm.samples[0] == 32767 and pcm.samples[1] == -32768
