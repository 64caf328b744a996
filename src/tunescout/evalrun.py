"""Evaluation harness: precision/recall sweeps for the recognizer (per
embedding dimension, adaptive vs. naive scoring) and recall vs.
false-positives-per-hour sweeps for the detector gate."""

from dataclasses import dataclass, replace

import numpy as np

from . import corpus as corpus_mod
from .corpus import CorpusConfig, MusicRegion, QuerySpec
from .detector import DetectorTopology, DetectorWeights, GateConfig, smooth_and_gate, streaming_predictions
from .embedder import EmbedderWeights
from .frontend import log_mel_frames
from .pipeline import recognize_frames
from .store import Database

PR_THRESHOLDS = np.round(np.linspace(0.0, 1.0, 51), 3)  # score thresholds of pr_rows
GATE_THRESHOLDS = np.round(np.linspace(0.02, 0.98, 25), 3)  # gate thresholds of detector_sweep
REGION_SLACK_S = 8.0  # a wake-up this long after a region's end still counts as a hit


@dataclass
class QueryOutcome:
    spec: QuerySpec
    adaptive_song: int
    adaptive_score: float
    adaptive_offset: int
    naive_song: int
    naive_score: float

    @property
    def is_music(self) -> bool:
        return self.spec.kind == "music"


def run_queries(db: Database, specs: list[QuerySpec], corpus_cfg: CorpusConfig,
                weights: EmbedderWeights,
                holdout_cfg: CorpusConfig | None = None) -> list[QueryOutcome]:
    """Match every query with the product recognizer on db (adaptive) and on
    a copy of db whose radii are all 1 (the naive fixed-radius kernel
    exp(-||q - x~||^2)). A best score of 0 counts as no answer (song -1).
    """
    naive = Database(db.songs, db.index, np.ones(db.index.n_points))
    outcomes = []
    for spec in specs:
        wave = corpus_mod.query_audio(corpus_cfg, spec, holdout_cfg)
        frames = log_mel_frames(corpus_mod.to_pcm(wave))
        a = recognize_frames(db, frames, weights)
        n = recognize_frames(naive, frames, weights)
        outcomes.append(QueryOutcome(
            spec,
            a.song_id if a.score > 0 else -1, a.score, a.offset_s if a.score > 0 else -1,
            n.song_id if n.score > 0 else -1, n.score))
    return outcomes


def pr_rows(outcomes: list[QueryOutcome], scorer: str = "adaptive") -> list[dict]:
    """Threshold sweep: a query is accepted when its best score clears the
    threshold; precision counts wrong-song and non-music acceptances against
    it, recall is over the music queries."""
    n_music = sum(1 for o in outcomes if o.is_music)
    rows = []
    for th in PR_THRESHOLDS:
        tp = fp = 0
        for o in outcomes:
            song = o.adaptive_song if scorer == "adaptive" else o.naive_song
            score = o.adaptive_score if scorer == "adaptive" else o.naive_score
            if song < 0 or score < th:
                continue
            if o.is_music and song == o.spec.song_id:
                tp += 1
            else:
                fp += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / n_music if n_music else 0.0
        rows.append({"threshold": float(th), "precision": precision, "recall": recall,
                     "scorer": scorer})
    return rows


def precision_at_recall(rows: list[dict], target_recall: float) -> float:
    """Best precision among operating points reaching the target recall."""
    feasible = [r["precision"] for r in rows if r["recall"] >= target_recall]
    return max(feasible) if feasible else 0.0


# --------------------------------------------------------- detector sweeps

def detector_prediction_stream(wave: np.ndarray, det: DetectorWeights) -> np.ndarray:
    """The streaming detector's probabilities over a waveform, in emission order."""
    preds = streaming_predictions(log_mel_frames(corpus_mod.to_pcm(wave)), det)
    return np.array([p for _, p in preds])


def gate_region_metrics(probs: np.ndarray, topo: DetectorTopology, regions: list[MusicRegion],
                        gate: GateConfig, total_s: float) -> dict:
    """Recall over music regions and false positives per hour outside them;
    topo is the topology of the detector behind probs."""
    events = smooth_and_gate(probs, gate, topo)
    hit = [False] * len(regions)
    fp = 0
    for ev in events:
        inside = False
        for i, reg in enumerate(regions):
            if reg.start_s <= ev.time_s <= reg.start_s + reg.duration_s + REGION_SLACK_S:
                hit[i] = True
                inside = True
        if not inside:
            fp += 1
    music_s = sum(r.duration_s for r in regions)
    nonmusic_h = max((total_s - music_s) / 3600.0, 1e-9)
    return {
        "recall": sum(hit) / len(regions) if regions else 0.0,
        "fp_per_hour": fp / nonmusic_h,
        "events": len(events),
        "region_hits": hit,
    }


def detector_sweep(probs: np.ndarray, topo: DetectorTopology, regions: list[MusicRegion],
                   gate: GateConfig, total_s: float) -> list[dict]:
    rows = []
    for th in GATE_THRESHOLDS:
        g = replace(gate, threshold=float(th))
        m = gate_region_metrics(probs, topo, regions, g, total_s)
        rows.append({"threshold": float(th), "consecutive": gate.consecutive,
                     "recall": m["recall"], "fp_per_hour": m["fp_per_hour"]})
    return rows
