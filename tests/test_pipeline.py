"""Pipeline glue: configuration (de)serialization, fingerprint windowing,
phase hypotheses and the training-set builder."""

import json

import numpy as np
import pytest

from tunescout.corpus import CorpusConfig, song_audio, to_pcm
from tunescout.detector import GateConfig
from tunescout.embedder import fingerprint_stream
from tunescout.embedder import init_weights as emb_init
from tunescout.frontend import HOP_MS, log_mel_frames
from tunescout.index import COVERAGE
from tunescout.pipeline import (
    IndexConfig,
    PipelineConfig,
    embedder_training_set,
    fingerprint_phases,
    fingerprint_wave,
    recognize_pcm,
)

TINY = PipelineConfig(embedder_preset="tiny").embedder_topology()
WEIGHTS = emb_init(TINY, seed=0)


def test_config_json_round_trip():
    cfg = PipelineConfig(seed=11, dim=64, embedder_preset="tiny")
    assert PipelineConfig.from_json(cfg.to_json()) == cfg


def test_config_round_trip_preserves_nested_sections():
    cfg = PipelineConfig(gate=GateConfig(threshold=0.7, buffer_len_s=6.0),
                         index=IndexConfig(partitions=40))
    out = PipelineConfig.from_json(cfg.to_json())
    assert out.gate == cfg.gate
    assert out.index == cfg.index
    assert out.index.coverage == COVERAGE


def test_config_json_has_nine_settable_values():
    raw = json.loads(PipelineConfig().to_json())
    assert raw == {
        "seed": 7, "dim": 96, "embedder_preset": "default",
        "gate": {"threshold": 0.5, "consecutive": 3, "smoothing_window_s": 4.0,
                 "refractory_s": 60.0, "buffer_len_s": 8.0},
        "index": {"partitions": None},
    }


def test_env_seed_overrides_json(monkeypatch):
    monkeypatch.setenv("TUNESCOUT_SEED", "123")
    cfg = PipelineConfig.from_json(PipelineConfig(seed=7).to_json())
    assert cfg.seed == 123


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(dim=100)  # not divisible by the branch count
    with pytest.raises(ValueError):
        PipelineConfig(embedder_preset="huge")


def test_fingerprint_count_matches_window_arithmetic():
    wave = song_audio(CorpusConfig(n_songs=1, duration_s=10.0, seed=1), 0)
    fps = fingerprint_wave(wave, WEIGHTS)
    frames = log_mel_frames(to_pcm(wave)).shape[0]
    expected = (frames - TINY.frames) // 100 + 1
    assert fps.shape == (expected, TINY.dim)
    assert np.allclose(np.linalg.norm(fps, axis=1), 1.0, atol=1e-5)


def test_phase_starts_cover_the_hop():
    wave = song_audio(CorpusConfig(n_songs=1, duration_s=10.0, seed=1), 0)
    frames = log_mel_frames(to_pcm(wave))
    phased = fingerprint_phases(frames, WEIGHTS, n_phases=4)
    assert len(phased) == 4
    for i, fps in enumerate(phased):
        start = i * 25
        direct = fingerprint_wave(wave, WEIGHTS)
        if start == 0:
            assert np.array_equal(fps, direct)
        else:
            # a shifted phase is a different windowing, not a shuffled copy
            assert fps.shape[1] == TINY.dim
            assert not np.allclose(fps[0], direct[0])


@pytest.mark.parametrize("n_frames", [96, 120, 170, 998])
def test_one_embedder_batch_equals_per_phase_calls(n_frames):
    frames = np.random.default_rng(n_frames).standard_normal((n_frames, 32)).astype(np.float32)
    # the previous per-phase loop: one embedder call per phase
    expected = []
    for i in range(4):
        start = i * TINY.hop_frames // 4
        if n_frames - start < TINY.frames:
            break
        expected.append(fingerprint_stream(frames[start:], WEIGHTS))
    got = fingerprint_phases(frames, WEIGHTS, n_phases=4)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_short_audio_keeps_only_feasible_phases():
    frames = np.zeros((100, 32), dtype=np.float32)  # one window at phase 0 only
    phased = fingerprint_phases(frames, WEIGHTS, n_phases=4)
    assert len(phased) == 1 and phased[0].shape[0] == 1


def test_recognize_rejects_audio_shorter_than_a_window():
    pcm = to_pcm(np.zeros(8000, dtype=np.float32))  # 0.5 s -> 48 frames < 96

    class _Db:  # never reached; the length check fires first
        pass

    with pytest.raises(ValueError, match="shorter than one fingerprint window"):
        recognize_pcm(_Db(), pcm, WEIGHTS, PipelineConfig())


def test_training_set_shapes_and_labels():
    cfg = CorpusConfig(n_songs=3, duration_s=12.0, seed=5)
    windows, song_ids, offsets_ms = embedder_training_set(
        cfg, offsets_per_song=4, noisy_copies=1, topo=TINY)
    assert windows.ndim == 3 and windows.shape[1:] == (TINY.frames, 32)
    assert len(song_ids) == len(offsets_ms) == windows.shape[0]
    assert set(song_ids) == {0, 1, 2}
    assert np.all(offsets_ms % HOP_MS == 0)
