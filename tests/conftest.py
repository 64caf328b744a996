"""Session-scoped fixtures: trained models and the desk-scale benchmark run.

The expensive artifacts (trained detector, trained embedders, the 100-song /
1000-query benchmark) are built once per session and shared between the
module tests and the acceptance suite.
"""

import time

import tunescout  # noqa: F401  (before numpy: the tests run the product's BLAS thread count)
import numpy as np
import pytest
from blas_threads import blas_threads


def pytest_configure(config):
    # populated by tests/test_acceptance.py; printed after the test run
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(lines)):
            terminalreporter.write_line(line)
    terminalreporter.write_line(f"BLAS threads: {blas_threads()}")

from tunescout import evalrun
from tunescout.corpus import CorpusConfig, MusicRegion, ambient_audio, detector_clips, make_queries, to_pcm
from tunescout.detector import DetectorTrainConfig, train_detector
from tunescout.frontend import log_mel_frames
from tunescout.pipeline import (
    PipelineConfig,
    build_database_from_corpus,
    train_pipeline_embedder,
)


@pytest.fixture(scope="session")
def trained_detector():
    """(weights, features, labels, train_n): trained on the first train_n clips."""
    clips = detector_clips(600, seed=3)
    feats = [log_mel_frames(to_pcm(w)) for w, _ in clips]
    labels = [lab for _, lab in clips]
    train_n = 500
    w = train_detector(feats[:train_n], labels[:train_n],
                       hyper=DetectorTrainConfig(steps=300, seed=0))
    return w, feats, labels, train_n


@pytest.fixture(scope="session")
def desk():
    """Desk-scale benchmark: 100 songs, 1000 queries, default configuration."""
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    corpus_cfg = CorpusConfig(n_songs=100, duration_s=60.0, seed=7)
    holdout_cfg = CorpusConfig(n_songs=10, duration_s=60.0, seed=8)
    weights = train_pipeline_embedder(corpus_cfg, cfg, steps=300)
    db = build_database_from_corpus(corpus_cfg, weights, cfg)
    specs = make_queries(corpus_cfg, 800, n_noise=100, n_holdout=100,
                         holdout_cfg=holdout_cfg)
    outcomes = evalrun.run_queries(db, specs, corpus_cfg, weights, holdout_cfg=holdout_cfg)
    return {
        "cfg": cfg, "corpus_cfg": corpus_cfg, "holdout_cfg": holdout_cfg,
        "weights": weights, "db": db, "specs": specs,
        "outcomes": outcomes,
        "elapsed_s": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def dim_sweep():
    """Tiny-preset embedders at d = 64 / 96 / 128 on a shared benchmark."""
    t0 = time.perf_counter()
    corpus_cfg = CorpusConfig(n_songs=50, duration_s=30.0, seed=7)
    holdout_cfg = CorpusConfig(n_songs=5, duration_s=30.0, seed=8)
    specs = make_queries(corpus_cfg, 200, n_noise=25, n_holdout=25,
                         holdout_cfg=holdout_cfg)
    results = {}
    for d in (64, 96, 128):
        cfg = PipelineConfig(dim=d, embedder_preset="tiny")
        weights = train_pipeline_embedder(corpus_cfg, cfg, steps=300)
        db = build_database_from_corpus(corpus_cfg, weights, cfg)
        results[d] = evalrun.run_queries(db, specs, corpus_cfg, weights,
                                         holdout_cfg=holdout_cfg)
    return {"results": results, "elapsed_s": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def ambient_hour(trained_detector):
    """One hour of noise with 12 music regions, plus detector predictions."""
    t0 = time.perf_counter()
    det, _, _, _ = trained_detector
    corpus_cfg = CorpusConfig(n_songs=20, duration_s=90.0, seed=13)
    rng = np.random.default_rng(99)
    snrs = [20.0, 20.0, 10.0, 10.0, 20.0, 5.0, 10.0, 20.0, 5.0, 10.0, 20.0, 10.0]
    regions = []
    pos = 120.0
    for i, snr in enumerate(snrs):
        dur = float(rng.uniform(40.0, 70.0))
        regions.append(MusicRegion(start_s=pos, duration_s=dur, song_id=i, snr_db=snr))
        pos += dur + float(rng.uniform(180.0, 230.0))
    length_s = 3600.0
    wave = ambient_audio(length_s, regions, corpus_cfg, seed=1)
    probs, times = evalrun.detector_prediction_stream(wave, det)
    return {"regions": regions, "probs": probs, "times": times,
            "length_s": length_s, "wave": wave, "corpus_cfg": corpus_cfg,
            "detector": det, "elapsed_s": time.perf_counter() - t0}
