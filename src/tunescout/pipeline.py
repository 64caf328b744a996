"""End-to-end glue: configuration, fingerprinting whole songs, building the
database from a synthetic corpus, one-shot recognition and the simulated
continuous-listening loop."""

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import corpus as corpus_mod
from . import embedder as emb_mod
from . import index as index_mod
from . import match as match_mod
from . import store as store_mod
from .corpus import SNRS_DB, CorpusConfig, to_pcm
from .detector import DetectorWeights, GateConfig, smooth_and_gate, streaming_predictions
from .embedder import EmbedderTopology, EmbedderWeights, fingerprint_stream
from .errors import ConfigError
from .frontend import HOP, HOP_MS, WINDOW, PcmStream, canonicalize, log_mel_frames
from .match import QUERY_PHASES, MatchResult


EMBEDDER_PRESETS = {
    "default": {"conv_channels": (32, 64, 64, 128), "branch_hidden": 32},
    "tiny": {"conv_channels": (8, 16, 16, 32), "branch_hidden": 16},
}


@dataclass(frozen=True)
class IndexConfig:
    partitions: int | None = None  # None -> ceil(sqrt(N))
    # not a field: every search probes this share of the DB; M is dim // 8
    coverage: ClassVar[float] = index_mod.COVERAGE

    def __post_init__(self):
        if self.partitions is not None and self.partitions < 1:
            raise ValueError("partitions must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 7
    dim: int = 96
    embedder_preset: str = "default"
    gate: GateConfig = field(default_factory=GateConfig)
    index: IndexConfig = field(default_factory=IndexConfig)

    def __post_init__(self):
        if self.dim % 8 != 0:
            raise ValueError("dim must be divisible by 8 (the branch count)")
        if self.embedder_preset not in EMBEDDER_PRESETS:
            raise ValueError(f"unknown embedder preset {self.embedder_preset!r}")

    def embedder_topology(self) -> EmbedderTopology:
        preset = EMBEDDER_PRESETS[self.embedder_preset]
        return EmbedderTopology(dim=self.dim, **preset)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        """Parse a serialized config; TUNESCOUT_SEED, when set, overrides the seed.

        Invalid JSON, unknown keys, a value or section of the wrong type and
        a TUNESCOUT_SEED that is not an integer raise ConfigError.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        cfg = _config_section(cls, raw, "config")
        if "TUNESCOUT_SEED" in os.environ:
            seed = os.environ["TUNESCOUT_SEED"]
            try:
                cfg = dataclasses.replace(cfg, seed=int(seed))
            except ValueError as e:
                raise ConfigError(f"TUNESCOUT_SEED={seed!r} is not an integer") from e
        return cfg


def _config_section(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {}
    for key, value in raw.items():
        kind = fields[key]
        if dataclasses.is_dataclass(kind):
            value = _config_section(kind, value, key)
        elif not _json_fits(kind, value):
            raise ConfigError(f"{where}.{key}: {value!r} is not of type "
                              f"{getattr(kind, '__name__', kind)}")
        kwargs[key] = value
    return cls(**kwargs)


def _json_fits(kind, value) -> bool:
    """Whether a parsed JSON value fits a scalar field annotation (int,
    float, str, or a union such as int | None); an int fits a float."""
    allowed = typing.get_args(kind) or (kind,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def fingerprint_pcm(pcm: PcmStream, weights: EmbedderWeights) -> np.ndarray:
    frames = log_mel_frames(canonicalize(pcm))
    return fingerprint_stream(frames, weights)


def fingerprint_phases(frames: np.ndarray, weights: EmbedderWeights,
                       n_phases: int = QUERY_PHASES) -> list[np.ndarray]:
    """Fingerprint the same audio under several sub-hop window phases.

    A query recorded at an arbitrary moment is misaligned with the database's
    one-per-second fingerprint grid by up to half a hop, which moves the
    embedding far from its stored neighbour. Shifting the query windowing by
    hop/n_phases increments guarantees one hypothesis lands within
    hop/(2*n_phases) of the grid; the matcher keeps the best-scoring one.
    Phases too short for one window are dropped; the windows of all others
    go through the embedder together.
    """
    topo = weights.topology
    n = max(1, n_phases)
    starts = [i * topo.hop_frames // n for i in range(n)]
    starts = [s for s in starts if frames.shape[0] - s >= topo.frames]
    if not starts:
        return []
    fps = fingerprint_stream(frames, weights, starts=tuple(starts))
    counts = [(frames.shape[0] - s - topo.frames) // topo.hop_frames + 1 for s in starts]
    return np.split(fps, np.cumsum(counts)[:-1])


def fingerprint_wave(wave: np.ndarray, weights: EmbedderWeights) -> np.ndarray:
    return fingerprint_pcm(to_pcm(wave), weights)


# ------------------------------------------------------- embedder training

def embedder_training_set(cfg: CorpusConfig, n_songs: int | None = None,
                          offsets_per_song: int = 8, noisy_copies: int = 2,
                          seed: int = 0, topo: EmbedderTopology | None = None):
    """Aligned clean/noisy training windows from the synthetic corpus.

    Returns (windows (N, frames, mels), song_ids, offsets_ms). Alignment is
    known by construction: noisy copies are the same song mixed with noise,
    so a window at the same frame offset is a positive pair. n_songs None
    takes every song of the corpus.
    """
    topo = topo or EmbedderTopology()
    if n_songs is not None and n_songs < 1:
        raise ValueError(f"n_songs must be >= 1, got {n_songs}")
    n_songs = cfg.n_songs if n_songs is None else min(n_songs, cfg.n_songs)
    rng = np.random.default_rng([cfg.seed, 555, seed])
    windows, song_ids, offsets_ms = [], [], []
    for song in range(n_songs):
        wave = corpus_mod.song_audio(cfg, song)
        versions = [wave]
        for _ in range(noisy_copies):
            noise = corpus_mod.noise_audio(len(wave) / cfg.sample_rate, rng)
            versions.append(corpus_mod.mix_at_snr(wave, noise, float(rng.choice(SNRS_DB))))
        feats = [log_mel_frames(to_pcm(v)) for v in versions]
        max_start = feats[0].shape[0] - topo.frames - topo.hop_frames
        if max_start <= 0:
            continue
        starts = rng.choice(max_start, size=min(offsets_per_song, max_start), replace=False)
        for start in starts:
            for f in feats:
                jitter = int(rng.integers(-20, 21))  # +-200 ms, inside pos tolerance
                s = int(np.clip(start + jitter, 0, f.shape[0] - topo.frames))
                windows.append(f[s : s + topo.frames])
                offsets_ms.append(s * HOP_MS)
                song_ids.append(song)
    return np.stack(windows), np.array(song_ids), np.array(offsets_ms)


def train_pipeline_embedder(corpus_cfg: CorpusConfig, cfg: PipelineConfig,
                            steps: int = 300, n_songs: int | None = None) -> EmbedderWeights:
    topo = cfg.embedder_topology()
    windows, song_ids, offsets_ms = embedder_training_set(
        corpus_cfg, n_songs=n_songs, seed=cfg.seed, topo=topo)
    hyper = emb_mod.EmbedderTrainConfig(steps=steps, seed=cfg.seed)
    return emb_mod.train_embedder(windows, song_ids, offsets_ms, topo, hyper)


# ------------------------------------------------------------- DB building

def build_database_from_fingerprints(song_entries, cfg: PipelineConfig) -> store_mod.Database:
    """Train index models on the pooled fingerprints and assemble the DB."""
    all_fps = np.concatenate([f for _, f in song_entries]).astype(np.float32)
    partitioner, codebook = index_mod.train_index_models(
        all_fps, cfg.index.partitions, seed=cfg.seed)
    return store_mod.build_database(song_entries, partitioner, codebook)


def build_database_from_corpus(corpus_cfg: CorpusConfig, weights: EmbedderWeights,
                               cfg: PipelineConfig) -> store_mod.Database:
    entries = []
    for song in range(corpus_cfg.n_songs):
        wave = corpus_mod.song_audio(corpus_cfg, song)
        fps = fingerprint_wave(wave, weights)
        rec = store_mod.SongRecord(song_id=song, title=corpus_mod.song_title(song),
                                   artist="tunescout corpus", duration_s=corpus_cfg.duration_s)
        entries.append((rec, fps))
    return build_database_from_fingerprints(entries, cfg)


# ------------------------------------------------------------- recognition

def recognize_frames(db: store_mod.Database, frames: np.ndarray,
                     weights: EmbedderWeights) -> MatchResult:
    """Match all phase hypotheses of these log-Mel frames in one pooled
    search; keep the highest-scoring phase (first on ties)."""
    phases = fingerprint_phases(frames, weights)
    if not phases:
        raise ValueError("audio shorter than one fingerprint window")
    best = match_mod.recognize_phases(phases, db.index, db.spans, db.radii, db.scale)
    best.title = db.title_of(best.song_id)
    return best


def recognize_pcm(db: store_mod.Database, pcm: PcmStream, weights: EmbedderWeights,
                  cfg: PipelineConfig | None = None) -> MatchResult:
    """recognize_frames on the audio's log-Mel frames. No setting of cfg
    affects recognition: the matcher's values are match-module constants."""
    return recognize_frames(db, log_mel_frames(canonicalize(pcm)), weights)


# ------------------------------------------------- continuous listening sim

def _wakeup_buffer(end: int, buffer_len: int) -> tuple[int, slice]:
    """The first sample of the buffer that ends at sample end, a point on the
    hop grid, and the frames whose windows lie inside [start, end)."""
    start = max(0, end - buffer_len)
    return start, slice(-(-start // HOP), (end - WINDOW) // HOP + 1)


def stream_file(db: store_mod.Database, pcm: PcmStream, emb_weights: EmbedderWeights,
                det_weights: DetectorWeights, cfg: PipelineConfig) -> dict:
    """Frontend -> streaming detector -> gate; recognition on each wake-up.

    Returns an event log plus wakeup count and the fraction of audio the
    fingerprinter processed (duty-cycle proxy for the main-processor cost).
    """
    topo = det_weights.topology
    pcm = canonicalize(pcm)
    buffer_len = int(cfg.gate.buffer_len_s * pcm.sample_rate)
    # the first wake-up's buffer is the shortest one
    _, first = _wakeup_buffer(topo.emission_frame(0) * HOP, buffer_len)
    if first.stop - first.start < emb_weights.topology.frames:
        raise ConfigError(f"gate.buffer_len_s {cfg.gate.buffer_len_s} holds fewer than the "
                          f"{emb_weights.topology.frames} frames of one fingerprint window")
    frames = log_mel_frames(pcm)
    preds = [p for _, p in streaming_predictions(frames, det_weights)]
    events = []
    fingerprinted_s = 0.0
    total_s = pcm.duration_s()
    for ev in smooth_and_gate(preds, cfg.gate, topo):
        # the buffer ends at the sample at which the firing prediction was emitted
        end = topo.emission_frame(ev.index) * HOP
        start, buf = _wakeup_buffer(end, buffer_len)
        fingerprinted_s += (end - start) / pcm.sample_rate
        record = {"time_s": round(ev.time_s, 2),
                  "mean_confidence": round(ev.mean_confidence, 4)}
        try:
            record["match"] = recognize_frames(db, frames[buf], emb_weights).to_dict()
        except ValueError as e:
            record["match"] = {"error": str(e)}
        events.append(record)
    return {
        "events": events,
        "wakeups": len(events),
        "duty_cycle": fingerprinted_s / total_s if total_s else 0.0,
        "predictions": len(preds),
        "duration_s": total_s,
    }
