"""Frontend: WAV decode, resampling and log-Mel extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunescout.errors import WavCodecError, WavHeaderError, WavTruncatedError
from tunescout.frontend import (
    FrontendConfig,
    PcmStream,
    decode_wav,
    encode_wav,
    log_mel_frames,
    mel_center_frequencies,
    mel_filterbank,
    resample,
)

CFG = FrontendConfig()


def _pcm(samples, rate=16000):
    return PcmStream(samples=np.asarray(samples, dtype=np.int16), sample_rate=rate, channels=1)


def _tone(freq, duration_s=1.0, rate=16000, amp=10000):
    t = np.arange(int(duration_s * rate)) / rate
    return _pcm(np.round(amp * np.sin(2 * np.pi * freq * t)), rate)


# ----------------------------------------------------------------- decode

def test_decode_mono_16k_one_second():
    pcm = _pcm(np.zeros(16000))
    out = decode_wav(encode_wav(pcm))
    assert out.sample_rate == 16000
    assert len(out.samples) == 16000


def test_decode_round_trip_preserves_samples():
    rng = np.random.default_rng(0)
    pcm = _pcm(rng.integers(-32768, 32768, size=5000))
    out = decode_wav(encode_wav(pcm))
    assert np.array_equal(out.samples, pcm.samples)


def test_decode_stereo_averages_to_mono():
    import struct

    frames = np.empty(2000, dtype="<i2")
    frames[0::2] = 1000  # left
    frames[1::2] = -1000  # right
    payload = frames.tobytes()
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                      b"fmt ", 16, 1, 2, 16000, 16000 * 4, 4, 16, b"data", len(payload))
    out = decode_wav(hdr + payload)
    assert out.channels == 1
    assert np.all(out.samples == 0)


def test_decode_bad_magic_is_header_error():
    with pytest.raises(WavHeaderError):
        decode_wav(b"JUNKJUNKJUNKJUNK")


def test_decode_unsupported_codec_is_codec_error():
    good = bytearray(encode_wav(_pcm(np.zeros(100))))
    good[20] = 3  # IEEE float format tag
    with pytest.raises(WavCodecError):
        decode_wav(bytes(good))


def test_decode_truncated_payload_is_truncation_error():
    blob = encode_wav(_pcm(np.zeros(1000)))
    with pytest.raises(WavTruncatedError):
        decode_wav(blob[: len(blob) - 500])


def test_decode_rate_out_of_range_rejected():
    with pytest.raises(WavCodecError):
        decode_wav(encode_wav(_pcm(np.zeros(100), rate=96000)))


# --------------------------------------------------------------- resample

def test_resample_identity_is_bit_identical():
    pcm = _tone(440)
    out = resample(pcm, 16000)
    assert out is pcm


def test_resample_length_ratio():
    pcm = _pcm(np.zeros(3200), rate=32000)
    out = resample(pcm, 16000)
    assert len(out.samples) == 1600
    assert out.sample_rate == 16000


def test_resample_dc_preserved():
    pcm = _pcm(np.full(800, 1000), rate=8000)
    out = resample(pcm, 16000)
    assert np.all(out.samples == 1000)


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(_pcm(np.zeros(100)), 0)


# ---------------------------------------------------------------- log-mel

def test_frame_count_one_second():
    frames = log_mel_frames(_pcm(np.zeros(16000)), CFG)
    assert frames.shape == (98, 32)  # floor((16000-400)/160)+1


def test_silence_hits_log_floor_everywhere():
    frames = log_mel_frames(_pcm(np.zeros(16000)), CFG)
    assert np.allclose(frames, np.log(CFG.log_floor))


def test_pure_tone_peaks_at_nearest_mel_bin():
    # oracle: expected bin from filter center frequencies, computed without
    # running the mel pipeline on the audio
    centers = mel_center_frequencies(CFG)
    expected = int(np.argmin(np.abs(centers - 1000.0)))
    frames = log_mel_frames(_tone(1000.0), CFG)
    got = np.bincount(frames.argmax(axis=1), minlength=32).argmax()
    assert abs(int(got) - expected) <= 1

    # independent DFT oracle: the tone's spectral energy concentrates at 1 kHz
    x = _tone(1000.0).samples.astype(np.float64)[:4096]
    spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    peak_hz = np.argmax(spec) * 16000 / len(x)
    assert abs(peak_hz - 1000.0) < 16000 / len(x) * 2


def test_too_short_stream_raises():
    with pytest.raises(ValueError):
        log_mel_frames(_pcm(np.zeros(CFG.window - 1)), CFG)


def test_wrong_rate_raises():
    with pytest.raises(ValueError):
        log_mel_frames(_pcm(np.zeros(8000), rate=8000), CFG)


def test_full_scale_input_is_finite():
    pcm = _pcm(np.tile([32767, -32768], 8000))
    assert np.isfinite(log_mel_frames(pcm, CFG)).all()


def test_coefficients_bounded_below_by_floor():
    frames = log_mel_frames(_tone(500), CFG)
    assert (frames >= np.log(CFG.log_floor) - 1e-5).all()  # float32 rounding slack


@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=400, max_value=20000))
def test_frame_count_formula_property(n):
    frames = log_mel_frames(_pcm(np.zeros(n)), CFG)
    assert frames.shape[0] == (n - CFG.window) // CFG.hop + 1


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_determinism_property(seed):
    rng = np.random.default_rng(seed)
    pcm = _pcm(rng.integers(-2000, 2000, size=4000))
    a = log_mel_frames(pcm, CFG)
    b = log_mel_frames(_pcm(pcm.samples.copy()), CFG)
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gain_monotonicity_property(seed):
    # doubling amplitude (no clipping) never decreases any coefficient
    rng = np.random.default_rng(seed)
    base = rng.integers(-1000, 1000, size=4000)
    lo = log_mel_frames(_pcm(base), CFG)
    hi = log_mel_frames(_pcm(base * 2), CFG)
    assert (hi >= lo - 1e-9).all()


def _whole_array_log_mel(samples, cfg=CFG):
    """The unblocked formula: every frame's float64 spectrum at once."""
    x = np.asarray(samples, dtype=np.float64) / 32768.0
    n_frames = (len(x) - cfg.window) // cfg.hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window)[::cfg.hop][:n_frames]
    spec = np.fft.rfft(frames * np.hanning(cfg.window), n=cfg.fft_size)
    power = spec.real**2 + spec.imag**2
    energy = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(energy, cfg.log_floor)).astype(np.float32)


@pytest.mark.parametrize("n_frames", [1, 1023, 1024, 1025, 2051, 2064])
def test_blocked_log_mel_equals_whole_array(n_frames):
    # blocks of 1024 frames, the last one taking the remainder; the extra
    # 100 samples fall short of a frame
    rng = np.random.default_rng(n_frames)
    n = CFG.window + (n_frames - 1) * CFG.hop + 100
    pcm = _pcm(rng.integers(-32768, 32768, size=n))
    got = log_mel_frames(pcm, CFG)
    assert got.shape == (n_frames, CFG.mel_bins)
    assert np.array_equal(got, _whole_array_log_mel(pcm.samples))


def test_blocked_log_mel_equals_whole_array_on_song():
    from tunescout.corpus import CorpusConfig, song_audio, to_pcm

    pcm = to_pcm(song_audio(CorpusConfig(n_songs=1, duration_s=240.0), 0))
    assert np.array_equal(log_mel_frames(pcm, CFG), _whole_array_log_mel(pcm.samples))


def test_log_mel_working_memory_is_bounded():
    # 600 s: 59,998 frames; the float32 output alone is 7.7 MB, while the
    # whole-array formula traces about 544 MB
    pcm = _pcm(np.random.default_rng(0).integers(-3000, 3000, size=600 * 16000))
    tracemalloc.start()
    try:
        log_mel_frames(pcm, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
