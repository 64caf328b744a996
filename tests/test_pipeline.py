"""Pipeline glue: configuration (de)serialization, fingerprint windowing,
phase hypotheses, the training-set builder and the stream loop's wake-up
buffers."""

import json

import numpy as np
import pytest

from tunescout import pipeline
from tunescout.corpus import CorpusConfig, MusicRegion, ambient_audio, song_audio, to_pcm
from tunescout.detector import DetectorTopology, GateConfig, GateEvent
from tunescout.detector import init_weights as det_init
from tunescout.embedder import fingerprint_stream
from tunescout.embedder import init_weights as emb_init
from tunescout.errors import ConfigError
from tunescout.frontend import HOP_MS, HOP_S, PcmStream, log_mel_frames
from tunescout.index import COVERAGE
from tunescout.match import recognize_phases
from tunescout.pipeline import (
    IndexConfig,
    PipelineConfig,
    build_database_from_corpus,
    embedder_training_set,
    fingerprint_phases,
    fingerprint_wave,
    recognize_frames,
    recognize_pcm,
    stream_file,
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


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
def test_env_seed_that_is_not_an_integer_is_a_config_error(monkeypatch, seed):
    monkeypatch.setenv("TUNESCOUT_SEED", seed)
    with pytest.raises(ConfigError, match="TUNESCOUT_SEED"):
        PipelineConfig.from_json("{}")


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(dim=100)  # not divisible by the branch count
    with pytest.raises(ValueError):
        PipelineConfig(embedder_preset="huge")
    for partitions in (0, -3):  # None, not 0, asks for the default count
        with pytest.raises(ValueError, match="partitions"):
            IndexConfig(partitions=partitions)


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


# ------------------------------------------------------------ stream loop

DET_TOPO = DetectorTopology()
STREAM_CORPUS = CorpusConfig(n_songs=5, duration_s=60.0, seed=3)
FIRE_INDICES = [0, 40, 98]  # 0: the buffer is cut at the recording's start


@pytest.fixture(scope="module")
def stream_run():
    """A 70 s recording streamed with the gate firing at FIRE_INDICES, plus
    the frames each wake-up recognized and the log-Mel call count."""
    cfg = PipelineConfig(embedder_preset="tiny")
    db = build_database_from_corpus(STREAM_CORPUS, WEIGHTS, cfg)
    regions = [MusicRegion(start_s=5.0, duration_s=60.0, song_id=1, snr_db=20.0)]
    pcm = to_pcm(ambient_audio(70.0, regions, STREAM_CORPUS, seed=2))
    buffers, mel_calls = [], []

    def gate(preds, gate_cfg, topo):
        return [GateEvent(i, topo.input_frames * HOP_S + i * topo.cadence_s, preds[i])
                for i in FIRE_INDICES]

    def recognize(db, frames, weights):
        buffers.append(frames)
        return real_recognize(db, frames, weights)

    def counted_log_mel(stream):
        mel_calls.append(len(stream.samples))
        return real_log_mel(stream)

    real_recognize, real_log_mel = pipeline.recognize_frames, pipeline.log_mel_frames
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "smooth_and_gate", gate)
        mp.setattr(pipeline, "recognize_frames", recognize)
        mp.setattr(pipeline, "log_mel_frames", counted_log_mel)
        report = stream_file(db, pcm, WEIGHTS, det_init(DET_TOPO), cfg)
    return {"db": db, "pcm": pcm, "report": report, "buffers": buffers,
            "mel_calls": mel_calls, "cfg": cfg}


def _wakeup_samples(pcm: PcmStream, index: int, buffer_len_s: float) -> np.ndarray:
    """The hop-aligned samples [end - buffer, end) of a wake-up at prediction
    index, end being the sample at which that prediction was emitted."""
    end = (DET_TOPO.input_frames + index * DET_TOPO.cadence_frames) * 160
    return pcm.samples[max(0, end - int(buffer_len_s * 16000)) : end]


def test_stream_runs_log_mel_once_per_recording(stream_run):
    assert stream_run["mel_calls"] == [len(stream_run["pcm"].samples)]
    assert stream_run["report"]["wakeups"] == len(FIRE_INDICES)


def test_wakeup_match_equals_recognize_pcm_on_aligned_samples(stream_run):
    pcm, db, buffer_len_s = stream_run["pcm"], stream_run["db"], stream_run["cfg"].gate.buffer_len_s
    for index, event, frames in zip(FIRE_INDICES, stream_run["report"]["events"],
                                    stream_run["buffers"]):
        samples = _wakeup_samples(pcm, index, buffer_len_s)
        assert np.array_equal(frames, log_mel_frames(PcmStream(samples, 16000)))
        assert event["match"] == recognize_pcm(db, PcmStream(samples, 16000), WEIGHTS).to_dict()
    assert stream_run["report"]["duty_cycle"] == pytest.approx(
        sum(len(_wakeup_samples(pcm, i, buffer_len_s)) for i in FIRE_INDICES) / len(pcm.samples))


def test_recognition_scores_with_the_db_scaled_radii(stream_run):
    db, frames = stream_run["db"], stream_run["buffers"][0]
    assert db.scale != 1.0
    phases = fingerprint_phases(frames, WEIGHTS)
    got = recognize_frames(db, frames, WEIGHTS)
    assert got.score == recognize_phases(phases, db.index, db.spans, db.radii * db.scale).score
    assert got.score != recognize_phases(phases, db.index, db.spans, db.radii).score


def test_fire_index_98_gets_the_on_grid_buffer(stream_run):
    # the gate's fire time, 67.18 s in float64, truncates to one sample
    # before the hop grid: a buffer cut from it would start off the grid
    time_s = DET_TOPO.input_frames * HOP_S + 98 * DET_TOPO.cadence_s
    assert stream_run["report"]["events"][2]["time_s"] == 67.18
    assert int(time_s * 16000) == 1_074_879
    on_grid = stream_run["pcm"].samples[1_074_880 - 128_000 : 1_074_880]
    assert np.array_equal(stream_run["buffers"][2], log_mel_frames(PcmStream(on_grid, 16000)))
