"""Audio frontend: WAV decoding, resampling and log-Mel feature extraction.

The frontend feeds both the music detector (446-frame windows) and the
fingerprinter (96-frame windows), so both consume the same 32-coefficient
log-Mel frames at a 10 ms hop. Its parameters are fixed: the model weights
and the on-device DB are built for exactly this frontend.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import WavCodecError, WavHeaderError, WavTruncatedError
from .kernels import row_blocks

CANONICAL_RATE = 16000  # Hz
HOP_MS = 10
WINDOW = CANONICAL_RATE * 25 // 1000  # 25 ms, in samples
HOP = CANONICAL_RATE * HOP_MS // 1000
HOP_S = HOP_MS / 1000.0
FFT_SIZE = 512
MEL_BINS = 32
FMIN_HZ = 125.0
FMAX_HZ = 7500.0
LOG_FLOOR = 1e-6
_BLOCK_FRAMES = 128  # log-Mel frames per FFT block


@dataclass
class PcmStream:
    samples: np.ndarray  # int16, mono after canonicalization
    sample_rate: int

    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


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
    return PcmStream(samples=samples.copy(), sample_rate=rate)


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
    return PcmStream(samples=out, sample_rate=target_hz)


def canonicalize(stream: PcmStream) -> PcmStream:
    return resample(stream, CANONICAL_RATE)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges_hz() -> np.ndarray:
    """MEL_BINS + 2 filter edges in Hz, evenly spaced on the Mel scale."""
    return _mel_to_hz(np.linspace(_hz_to_mel(FMIN_HZ), _hz_to_mel(FMAX_HZ), MEL_BINS + 2))


def mel_center_frequencies() -> np.ndarray:
    """Center frequency in Hz of each triangular Mel filter."""
    return _mel_edges_hz()[1:-1]


@functools.cache
def mel_filterbank() -> np.ndarray:
    """(MEL_BINS, FFT_SIZE//2 + 1) triangular filterbank on the Mel scale.

    Built once per process on first use; the array is read-only.
    """
    n_freqs = FFT_SIZE // 2 + 1
    freqs = np.linspace(0.0, CANONICAL_RATE / 2.0, n_freqs)
    pts = _mel_edges_hz()
    fb = np.zeros((MEL_BINS, n_freqs))
    for m in range(MEL_BINS):
        lo, ctr, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (ctr - lo)
        down = (hi - freqs) / (hi - ctr)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def log_mel_frames(stream: PcmStream) -> np.ndarray:
    """Compute (n_frames, MEL_BINS) log-Mel features from canonical 16 kHz mono.

    Per frame: Hann window -> power spectrum -> triangular Mel bank ->
    log(max(energy, LOG_FLOOR)). Frame count is floor((n - WINDOW)/HOP) + 1.
    Frames are processed in row_blocks of 128 through buffers allocated once
    per call, so the working memory stays in cache and does not depend on
    the input length; only the float32 output grows with it.
    """
    if stream.sample_rate != CANONICAL_RATE:
        raise ValueError(
            f"expected {CANONICAL_RATE} Hz input, got {stream.sample_rate} (canonicalize first)"
        )
    x = np.asarray(stream.samples)
    if len(x) < WINDOW:
        raise ValueError(f"stream of {len(x)} samples is shorter than one {WINDOW}-sample window")
    n_frames = (len(x) - WINDOW) // HOP + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP][:n_frames]
    # 2**-15 scales exactly, so x * (w / 32768) rounds as (x / 32768) * w
    window = np.hanning(WINDOW) / 32768.0
    fb_t = mel_filterbank().T
    out = np.empty((n_frames, MEL_BINS), dtype=np.float32)
    blocks = row_blocks(n_frames, _BLOCK_FRAMES)
    rows = blocks[-1][1] - blocks[-1][0]  # the largest block
    padded = np.zeros((rows, FFT_SIZE))  # columns past WINDOW stay zero
    spec = np.empty((rows, FFT_SIZE // 2 + 1), dtype=np.complex128)
    power = np.empty(spec.shape)
    imag2 = np.empty(spec.shape)
    energy = np.empty((rows, MEL_BINS))
    for s, e in blocks:
        r = e - s
        np.multiply(frames[s:e], window, out=padded[:r, :WINDOW])
        np.fft.rfft(padded[:r], out=spec[:r])
        np.square(spec[:r].real, out=power[:r])
        np.square(spec[:r].imag, out=imag2[:r])
        power[:r] += imag2[:r]
        np.matmul(power[:r], fb_t, out=energy[:r])
        np.maximum(energy[:r], LOG_FLOOR, out=energy[:r])
        out[s:e] = np.log(energy[:r], out=energy[:r])
    return out
