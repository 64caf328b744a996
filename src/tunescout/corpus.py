"""Deterministic synthetic audio corpus.

Pseudo-songs are sequences of enveloped harmonic notes with per-song
timbre, scale and tempo drawn from a seeded RNG. Queries are excerpts
mixed with synthetic noise at a chosen SNR; negatives are pure noise or
excerpts of held-out songs. Everything is reproducible from (seed, id).
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .frontend import CANONICAL_RATE, PcmStream

# the SNRs (dB) that music is mixed with noise at: queries, the embedder's
# noisy training copies, detector clips and the ambient regions of eval-detector
SNRS_DB = (20.0, 10.0, 5.0)
_MOD_BLOCK = 1 << 16  # samples per block of noise_audio's filter and amplitude modulation


@dataclass(frozen=True)
class CorpusConfig:
    n_songs: int = 100
    duration_s: float = 60.0
    seed: int = 7
    # not a field: song_audio, to_pcm and the frontend all work at this rate
    sample_rate: ClassVar[int] = CANONICAL_RATE


def _song_rng(cfg: CorpusConfig, song_id: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 1000003, song_id])


def song_title(song_id: int) -> str:
    return f"synthetic song {song_id:04d}"


def song_audio(cfg: CorpusConfig, song_id: int) -> np.ndarray:
    """Float32 waveform in [-1, 1] for one pseudo-song."""
    rng = _song_rng(cfg, song_id)
    sr = cfg.sample_rate
    n = int(cfg.duration_s * sr)
    root = float(rng.uniform(110.0, 440.0))
    scale = rng.choice([0, 2, 4, 7, 9, 12, 14, 16], size=24)
    n_harm = int(rng.integers(3, 7))
    timbre = rng.uniform(0.2, 1.0, size=n_harm) / np.arange(1, n_harm + 1)
    note_len = float(rng.uniform(0.2, 0.5))
    out = np.zeros(n, dtype=np.float64)
    pos = 0
    step = 0
    while pos < n:
        length = min(int(note_len * sr * rng.uniform(0.8, 1.25)), n - pos)
        if length < 16:
            break
        semis = scale[step % len(scale)] + 12 * int(rng.integers(-1, 2))
        freq = root * 2.0 ** (semis / 12.0)
        t = np.arange(length) / sr
        env = np.minimum(t / 0.02, 1.0) * np.exp(-t / (0.6 * note_len))
        note = np.zeros(length)
        for h, amp in enumerate(timbre, start=1):
            if freq * h < sr / 2 * 0.95:
                note += amp * np.sin(2 * math.pi * freq * h * t + rng.uniform(0, 2 * math.pi))
        out[pos : pos + length] += env * note
        pos += length
        step += 1
    peak = np.abs(out).max()
    if peak > 0:
        out *= 0.7 / peak
    return out.astype(np.float32)


def noise_audio(duration_s: float, rng: np.random.Generator, kind: str = "mix") -> np.ndarray:
    """Synthetic ambient noise at CANONICAL_RATE: white, low-passed, or
    amplitude-modulated."""
    n = int(duration_s * CANONICAL_RATE)
    out = rng.normal(0, 1, n)  # white, then filtered in place
    if kind == "lowpass":
        a = rng.uniform(0.9, 0.99)
        _one_pole(out, a, 1 - a)
    elif kind != "white":  # "mix": low-passed noise with slow amplitude modulation
        a = rng.uniform(0.85, 0.98)
        _one_pole(out, a, 1 - a)
        mod_hz = rng.uniform(0.5, 4.0)
        phase = rng.uniform(0, 6.28)
        for s in range(0, n, _MOD_BLOCK):
            t = np.arange(s, min(s + _MOD_BLOCK, n)) / CANONICAL_RATE
            out[s : s + len(t)] *= 0.4 + 0.6 * (0.5 + 0.5 * np.sin(2 * math.pi * mod_hz * t + phase))
    peak = max(out.max(), -out.min())  # the largest |sample|, without an |out| copy
    if peak > 0:
        out /= peak
        out *= 0.7
    return out.astype(np.float32)


def _one_pole(x, a, b):
    # in place, y[t] = a*y[t-1] + b*x[t] via a k-tap FIR truncation of the IIR,
    # in blocks that carry the last k - 1 inputs: the whole-array convolution's sums
    k = min(len(x), max(8, int(math.log(1e-4) / math.log(a))))
    kernel = b * a ** np.arange(k)
    carry = x[:0].copy()
    for s in range(0, len(x), _MOD_BLOCK):
        block = np.concatenate([carry, x[s : s + _MOD_BLOCK]])
        x[s : s + _MOD_BLOCK] = np.convolve(block, kernel)[len(carry) : len(block)]
        carry = block[len(block) - (k - 1) :]


def mix_at_snr(signal: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """signal + noise scaled so 10*log10(Ps/Pn) = snr_db."""
    ps = float((signal.astype(np.float64) ** 2).mean())
    pn = float((noise.astype(np.float64) ** 2).mean())
    if pn <= 0 or ps <= 0:
        return signal.copy()
    scale = math.sqrt(ps / (pn * 10 ** (snr_db / 10.0)))
    out = signal + scale * noise[: len(signal)]
    peak = np.abs(out).max()
    if peak > 0.99:
        out = out / peak * 0.99
    return out.astype(np.float32)


def to_pcm(wave: np.ndarray) -> PcmStream:
    samples = np.clip(np.round(wave * 32767.0), -32768, 32767).astype(np.int16)
    return PcmStream(samples=samples, sample_rate=CANONICAL_RATE)


# ------------------------------------------------------------------ queries

@dataclass(frozen=True)
class QuerySpec:
    query_id: int
    kind: str  # "music" | "noise" | "holdout"
    song_id: int  # -1 for noise
    start_s: float
    length_s: float
    snr_db: float
    gain: float


def make_queries(cfg: CorpusConfig, n_queries: int, query_len_s: float = 8.0,
                 n_noise: int = 0, n_holdout: int = 0,
                 holdout_cfg: CorpusConfig | None = None) -> list[QuerySpec]:
    """Deterministic query plan over the corpus.

    Music queries come from indexed songs; holdout queries from a disjoint
    corpus config; noise queries have song_id -1.
    """
    rng = np.random.default_rng([cfg.seed, 77])
    specs = []
    qid = 0
    for _ in range(n_queries):
        song = int(rng.integers(0, cfg.n_songs))
        start = float(rng.uniform(0, max(0.0, cfg.duration_s - query_len_s - 1.0)))
        specs.append(QuerySpec(qid, "music", song, start, query_len_s,
                               float(rng.choice(SNRS_DB)), float(rng.uniform(0.5, 1.5))))
        qid += 1
    for _ in range(n_noise):
        specs.append(QuerySpec(qid, "noise", -1, 0.0, query_len_s, 0.0,
                               float(rng.uniform(0.5, 1.5))))
        qid += 1
    if n_holdout and holdout_cfg is not None:
        for _ in range(n_holdout):
            song = int(rng.integers(0, holdout_cfg.n_songs))
            start = float(rng.uniform(0, max(0.0, holdout_cfg.duration_s - query_len_s - 1.0)))
            specs.append(QuerySpec(qid, "holdout", song, start, query_len_s,
                                   float(rng.choice(SNRS_DB)), float(rng.uniform(0.5, 1.5))))
            qid += 1
    return specs


def query_audio(cfg: CorpusConfig, spec: QuerySpec,
                holdout_cfg: CorpusConfig | None = None) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, 31337, spec.query_id])
    if spec.kind == "noise":
        wave = noise_audio(spec.length_s, rng)
    else:
        src_cfg = holdout_cfg if spec.kind == "holdout" else cfg
        song = song_audio(src_cfg, spec.song_id)
        s = int(spec.start_s * cfg.sample_rate)
        wave = song[s : s + int(spec.length_s * cfg.sample_rate)].copy()
        noise = noise_audio(spec.length_s, rng)
        wave = mix_at_snr(wave, noise, spec.snr_db)
    out = np.clip(wave * spec.gain, -1.0, 1.0)
    return out.astype(np.float32)


def spec_to_dict(spec: QuerySpec) -> dict:
    return {
        "query_id": spec.query_id, "kind": spec.kind, "song_id": spec.song_id,
        "start_s": round(spec.start_s, 3), "length_s": spec.length_s,
        "snr_db": spec.snr_db, "gain": round(spec.gain, 4),
    }


# ------------------------------------------------------- detector material

def detector_clips(n_clips: int, seed: int, clip_s: float = 5.0):
    """(waveform, label) pairs at CANONICAL_RATE: harmonic music (label 1,
    possibly noisy) vs. noise/silence (label 0)."""
    sr = CANONICAL_RATE
    rng = np.random.default_rng([seed, 4242])
    cfg = CorpusConfig(n_songs=max(8, n_clips // 4), duration_s=clip_s + 2.0, seed=seed + 1)
    clips = []
    for i in range(n_clips):
        if i % 2 == 0:
            song = song_audio(cfg, int(rng.integers(0, cfg.n_songs)))
            s = int(rng.uniform(0, 1.5) * sr)
            wave = song[s : s + int(clip_s * sr)].copy()
            if rng.random() < 0.7:
                wave = mix_at_snr(wave, noise_audio(clip_s, rng), float(rng.choice(SNRS_DB)))
            label = 1
        else:
            roll = rng.random()
            if roll < 0.15:
                wave = np.zeros(int(clip_s * sr), dtype=np.float32)
            else:
                kind = "white" if roll < 0.5 else "mix"
                wave = noise_audio(clip_s, rng, kind=kind)
            wave = wave * float(rng.uniform(0.2, 1.0))
            label = 0
        clips.append((wave.astype(np.float32), label))
    return clips


# ------------------------------------------------------------ ambient file

@dataclass(frozen=True)
class MusicRegion:
    start_s: float
    duration_s: float
    song_id: int
    snr_db: float


def ambient_audio(length_s: float, regions: list[MusicRegion], cfg: CorpusConfig,
                  seed: int = 0, silence_outside: bool = False) -> np.ndarray:
    """Long noise (or silence) bed with music regions mixed in at their SNR."""
    rng = np.random.default_rng([cfg.seed, 999, seed])
    sr = cfg.sample_rate
    n = int(length_s * sr)
    if silence_outside:
        bed = np.zeros(n, dtype=np.float32)
    else:
        bed = noise_audio(length_s, rng) * 0.3
    for reg in regions:
        song = song_audio(cfg, reg.song_id)
        seg = song[: int(reg.duration_s * sr)]
        s = int(reg.start_s * sr)
        e = min(s + len(seg), n)
        seg = seg[: e - s]
        noise_ref = bed[s:e]
        if silence_outside or float((noise_ref**2).mean()) <= 0:
            bed[s:e] = bed[s:e] + seg
        else:
            ps = float((seg.astype(np.float64) ** 2).mean())
            pn = float((noise_ref.astype(np.float64) ** 2).mean())
            scale = math.sqrt(pn * 10 ** (reg.snr_db / 10.0) / max(ps, 1e-12))
            bed[s:e] = bed[s:e] + scale * seg
    peak = np.abs(bed).max()
    if peak > 0.99:
        bed = bed / peak * 0.99
    return bed.astype(np.float32)
