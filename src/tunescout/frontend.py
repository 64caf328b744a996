"""Audio frontend: WAV decoding, resampling and log-Mel feature extraction.

The frontend feeds both the music detector (446-frame windows) and the
fingerprinter (96-frame windows), so both consume the same 32-coefficient
log-Mel frames at a 10 ms hop.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import WavCodecError, WavHeaderError, WavTruncatedError

CANONICAL_RATE = 16000
_BLOCK_FRAMES = 1024  # log-Mel frames per FFT block


@dataclass
class PcmStream:
    samples: np.ndarray  # int16, mono after canonicalization
    sample_rate: int
    channels: int = 1

    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = CANONICAL_RATE
    window_ms: int = 25
    hop_ms: int = 10
    mel_bins: int = 32
    fft_size: int = 512
    fmin_hz: float = 125.0
    fmax_hz: float = 7500.0
    log_floor: float = 1e-6

    @property
    def window(self) -> int:
        return self.sample_rate * self.window_ms // 1000

    @property
    def hop(self) -> int:
        return self.sample_rate * self.hop_ms // 1000

    @property
    def frames_per_second(self) -> int:
        return 1000 // self.hop_ms


def decode_wav(data: bytes) -> PcmStream:
    """Parse a RIFF/WAVE file into a mono PcmStream.

    Accepts PCM 16-bit, 1-2 channels, 8-48 kHz. Stereo is averaged to mono.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavHeaderError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavHeaderError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise WavTruncatedError(
                    f"data chunk promises {size} bytes, file holds {len(body)}"
                )
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise WavHeaderError("missing fmt chunk")
    if payload is None:
        raise WavTruncatedError("missing data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise WavCodecError(f"unsupported codec: format={audio_format} bits={bits}")
    if channels not in (1, 2):
        raise WavCodecError(f"unsupported channel count {channels}")
    if not 8000 <= rate <= 48000:
        raise WavCodecError(f"sample rate {rate} outside 8-48 kHz")
    if len(payload) % (2 * channels) != 0:
        raise WavTruncatedError("data chunk is not a whole number of frames")
    samples = np.frombuffer(payload, dtype="<i2")
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
        samples = np.round(samples).astype(np.int16)
    return PcmStream(samples=samples.copy(), sample_rate=rate, channels=1)


def encode_wav(stream: PcmStream) -> bytes:
    """Serialize a mono PcmStream back to a minimal PCM16 WAV file."""
    samples = np.asarray(stream.samples, dtype="<i2")
    payload = samples.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        stream.sample_rate,
        stream.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    return hdr + payload


def resample(stream: PcmStream, target_hz: int) -> PcmStream:
    """Linear-interpolation resampling to target_hz."""
    if target_hz <= 0:
        raise ValueError(f"target rate must be positive, got {target_hz}")
    if stream.sample_rate == target_hz:
        return stream
    n_in = len(stream.samples)
    n_out = n_in * target_hz // stream.sample_rate
    ratio = stream.sample_rate / target_hz
    pos = np.arange(n_out) * ratio
    out = np.interp(pos, np.arange(n_in), stream.samples.astype(np.float64))
    out = np.clip(np.round(out), -32768, 32767).astype(np.int16)
    return PcmStream(samples=out, sample_rate=target_hz, channels=1)


def canonicalize(stream: PcmStream) -> PcmStream:
    return resample(stream, CANONICAL_RATE)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_center_frequencies(cfg: FrontendConfig) -> np.ndarray:
    """Center frequency in Hz of each triangular Mel filter."""
    pts = np.linspace(_hz_to_mel(cfg.fmin_hz), _hz_to_mel(cfg.fmax_hz), cfg.mel_bins + 2)
    return _mel_to_hz(pts)[1:-1]


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """(mel_bins, fft_size//2 + 1) triangular filterbank on the Mel scale."""
    n_freqs = cfg.fft_size // 2 + 1
    freqs = np.linspace(0.0, cfg.sample_rate / 2.0, n_freqs)
    pts = _mel_to_hz(
        np.linspace(_hz_to_mel(cfg.fmin_hz), _hz_to_mel(cfg.fmax_hz), cfg.mel_bins + 2)
    )
    fb = np.zeros((cfg.mel_bins, n_freqs))
    for m in range(cfg.mel_bins):
        lo, ctr, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (ctr - lo)
        down = (hi - freqs) / (hi - ctr)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def log_mel_frames(stream: PcmStream, cfg: FrontendConfig | None = None) -> np.ndarray:
    """Compute (n_frames, mel_bins) log-Mel features from canonical 16 kHz mono.

    Per frame: Hann window -> power spectrum -> triangular Mel bank ->
    log(max(energy, log_floor)). Frame count is floor((n - window)/hop) + 1.
    Frames are processed in blocks of 1024 (the last block takes the
    remainder), so the working memory does not depend on the input length;
    only the float32 output grows with it.
    """
    cfg = cfg or FrontendConfig()
    if stream.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"expected {cfg.sample_rate} Hz input, got {stream.sample_rate} (canonicalize first)"
        )
    x = np.asarray(stream.samples)
    win, hop = cfg.window, cfg.hop
    if len(x) < win:
        raise ValueError(f"stream of {len(x)} samples is shorter than one {win}-sample window")
    n_frames = (len(x) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop][:n_frames]
    window = np.hanning(win)
    fb_t = mel_filterbank(cfg).T
    out = np.empty((n_frames, cfg.mel_bins), dtype=np.float32)
    # The last block takes the remainder (up to 2047 frames): BLAS rounds a
    # product of a few dozen rows differently from the same rows inside a
    # large product, so no block may be short unless it is the whole input.
    starts = list(range(0, n_frames - _BLOCK_FRAMES + 1, _BLOCK_FRAMES)) or [0]
    for s, e in zip(starts, starts[1:] + [n_frames]):
        block = frames[s:e].astype(np.float64)
        block *= 1.0 / 32768.0
        block *= window
        spec = np.fft.rfft(block, n=cfg.fft_size)
        power = np.square(spec.real)
        power += np.square(spec.imag)
        out[s:e] = np.log(np.maximum(power @ fb_t, cfg.log_floor))
    return out
