"""The benchmark's own tests: inputs are reproducible, every check rejects a
wrong answer, and the tracer sees calls made through by-name imports.

    python3 -m pytest scoutbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------- inputs

def test_same_seed_gives_byte_identical_inputs():
    for seed in (1, 2):
        a = inputs.render_queries(inputs.recognize_plan(seed, 1))
        b = inputs.render_queries(inputs.recognize_plan(seed, 1))
        assert a == b
    assert inputs.recording_wav(5, 0) == inputs.recording_wav(5, 0)
    assert inputs.build_corpus(3) == inputs.build_corpus(3)
    assert inputs.build_excerpts(3) == inputs.build_excerpts(3)


def test_seeds_differ_but_extensible_queries_do_not():
    a, b = inputs.recognize_round(1, 0), inputs.recognize_round(2, 0)
    assert [q for q in a if q.kind != "extensible"] != [q for q in b if q.kind != "extensible"]
    assert [q for q in a if q.kind == "extensible"] == [q for q in b if q.kind == "extensible"]
    assert inputs.build_corpus(1) != inputs.build_corpus(2)


def test_round_make_up_is_fixed():
    for seed in (1, 9):
        kinds = [q.kind for q in inputs.recognize_round(seed, 3)]
        assert len(kinds) == inputs.ROUND_SIZE
        assert kinds.count("extensible") == inputs.ROUND_EXTENSIBLE
        assert kinds.count("resampled") == inputs.ROUND_RESAMPLED
        assert kinds.count("noise") == inputs.ROUND_NOISE


def test_wav_headers():
    from tunescout.errors import WavCodecError
    from tunescout.frontend import decode_wav
    x = np.arange(-50, 50, dtype=np.int16)
    pcm = decode_wav(inputs.wav_bytes(x, 48000))
    assert pcm.sample_rate == 48000 and np.array_equal(pcm.samples, x)
    with pytest.raises(WavCodecError):
        decode_wav(inputs.wav_bytes(x, 16000, extensible=True))


def test_upsample_is_band_limited():
    t = np.arange(16000) / 16000
    tone = np.sin(2 * np.pi * 1000 * t)
    hi = inputs.upsample(tone, 48000)
    spec = np.abs(np.fft.rfft(hi))
    freqs = np.fft.rfftfreq(len(hi), 1 / 48000)
    assert freqs[np.argmax(spec)] == 1000
    assert spec[freqs > 8000].max() < 1e-6 * spec.max()


def test_counts():
    assert inputs.n_frames(960000) == 5998
    assert inputs.n_fingerprints(inputs.n_frames(240 * 16000)) == 240
    assert inputs.n_predictions(5998) == (5998 - 446) // 64 + 1
    assert inputs.n_predictions(445) == 0


# ------------------------------------------------------- recognize checks

def _q(kind, song, start):
    return inputs.Query(kind, song, start, 20.0, 16000, (0,))


def _ok(song, offset, accepted=True):
    return {"result": {"song_id": song, "offset_s": offset, "accepted": accepted}}


PLAN = [_q("music", 5, 10.6), _q("music", 7, 3.2), _q("resampled", 9, 40.0),
        _q("noise", -1, 0.0), _q("holdout", 2, 5.0), _q("extensible", 1, 2.0)]
EXT_FAIL = {"error": "WavCodecError", "typed": True, "message": "unsupported codec"}
GOOD = [_ok(5, 11), _ok(7, 3), _ok(9, 40), _ok(4, 0, False), _ok(2, 5, False), EXT_FAIL]


def test_recognize_check_accepts_right_answers():
    fails, stats = checks.recognize(PLAN, GOOD)
    assert fails == [] and stats["identified"] == 3


@pytest.mark.parametrize("i,bad", [
    (0, _ok(6, 11)),                      # swapped song id
    (0, _ok(5, 12)),                      # off by one past the slack
    (3, _ok(4, 0, True)),                 # noise accepted
    (4, _ok(2, 5, True)),                 # holdout accepted
    (1, {"error": "ValueError", "typed": False, "message": "boom"}),
    (5, _ok(1, 2)),                       # extensible header decoded
    (5, {"error": "TypeError", "typed": False, "message": "untyped"}),
])
def test_recognize_check_rejects_wrong_answers(i, bad):
    rows = list(GOOD)
    rows[i] = bad
    fails, _ = checks.recognize(PLAN, rows)
    assert fails


def test_same_results():
    assert checks.same_results(GOOD, list(GOOD)) == []
    assert checks.same_results(GOOD, GOOD[:-1] + [_ok(1, 2)])
    assert checks.same_results(GOOD, GOOD[:-1])


# ----------------------------------------------------------- build checks

@pytest.fixture(scope="module")
def small_db():
    from tunescout.index import train_partitioner, train_pq
    from tunescout.store import SongRecord, build_database, load_db, serialize
    rng = np.random.default_rng(12)
    entries = []
    for s in range(8):
        f = rng.standard_normal((40, 16)).astype(np.float32)
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        entries.append((SongRecord(s, f"song {s}", "a", 40.0), f))
    fps = np.concatenate([f for _, f in entries])
    part = train_partitioner(fps, 6, seed=0)
    cb, _ = train_pq(fps - part.centroids[part.assign(fps)], m=2, seed=0)
    return load_db(serialize(build_database(entries, part, cb))), fps


def test_build_checks_accept_the_program(small_db):
    db, fps = small_db
    assert checks.build_layout(db, 8, 40) == []
    assert checks.build_oracles(db, fps, np.arange(0, 320, 7)) == []


def test_build_checks_reject_corruption(small_db):
    db, fps = small_db
    sample = np.arange(0, 320, 7)
    assert checks.build_layout(db, 8, 41)
    assert checks.build_layout(db, 9, 40)
    for corrupt in ("pids", "codes", "radii"):
        pids, codes, radii = (db.index.partition_ids.copy(), db.index.codes.copy(),
                              db.radii.copy())
        try:
            if corrupt == "pids":
                db.index.partition_ids[sample] = (pids[sample] + 1) % 6
            elif corrupt == "codes":
                db.index.codes[sample, 1] = codes[sample, 1] ^ 1
            else:
                db.radii[sample] = radii[sample] * 1.01
            assert checks.build_oracles(db, fps, sample), corrupt
        finally:
            db.index.partition_ids[:], db.index.codes[:], db.radii[:] = pids, codes, radii


def test_excerpt_check():
    plan = [(0, 10), (1, 20)]
    right = [{"accepted": True, "song_id": 0, "offset_s": 10},
             {"accepted": True, "song_id": 1, "offset_s": 20}]
    assert checks.excerpts(plan, right) == ([], 2)
    for bad in ({"accepted": True, "song_id": 1, "offset_s": 10},   # swapped song
                {"accepted": True, "song_id": 0, "offset_s": 11},   # off by one
                {"accepted": False, "song_id": 0, "offset_s": 10}):
        assert checks.excerpts(plan, [bad, right[1]])[0]


# ---------------------------------------------------------- stream checks

REGIONS = [{"start_s": 50.0, "duration_s": 40.0, "song_id": 3, "snr_db": 20.0},
           {"start_s": 200.0, "duration_s": 40.0, "song_id": 8, "snr_db": 5.0},
           {"start_s": 350.0, "duration_s": 40.0, "song_id": 4, "snr_db": 20.0},
           {"start_s": 500.0, "duration_s": 40.0, "song_id": 6, "snr_db": 10.0}]
EVENTS = [{"time_s": 60.0, "match": {"accepted": True, "song_id": 3}},
          {"time_s": 360.0, "match": {"accepted": False, "song_id": 9}}]
PREDS = [0.1, 0.9, 0.8]


def _stream(events=EVENTS, preds=PREDS, expected=3, batch=PREDS, summary=None):
    summary = summary if summary is not None else {"wakeups": len(events)}
    return checks.stream(REGIONS, events, summary, preds, expected, batch)


def test_stream_check_accepts_right_behaviour():
    assert _stream() == ([], {"identified": 1, "silent_10db": 1})


def test_stream_check_rejects_wrong_behaviour():
    assert _stream(events=EVENTS[:1])[0]                          # dropped wake-up
    wrong = [{"time_s": 60.0, "match": {"accepted": True, "song_id": 4}}, EVENTS[1]]
    assert _stream(events=wrong)[0]                               # wrong song
    outside = EVENTS + [{"time_s": 150.0, "match": {"accepted": True, "song_id": 3}}]
    assert _stream(events=outside)[0]                             # match in silence
    assert _stream(preds=PREDS[:2])[0]                            # dropped prediction
    assert _stream(batch=[0.1, 0.9, 0.8001])[0]                   # streaming != batch
    assert _stream(summary={"wakeups": 3})[0]


# ----------------------------------------------------------------- spans

def test_tracer_patches_by_name_imports_and_restores():
    from tunescout import frontend, pipeline
    from tunescout.corpus import to_pcm
    orig = frontend.log_mel_frames
    tracer = spans.Tracer().install()
    try:
        assert pipeline.log_mel_frames is not orig
        wave = np.random.default_rng(0).normal(0, 0.1, 16000).astype(np.float32)
        with tracer.span("run.test"):
            pipeline.fingerprint_pcm(to_pcm(wave), _tiny_weights())
    finally:
        tracer.uninstall()
    assert pipeline.log_mel_frames is orig and frontend.log_mel_frames is orig
    st = tracer.export()["spans"]
    assert st["frontend.log_mel_frames"]["calls"] == 1
    assert st["frontend.log_mel_frames"]["parents"] == {"run.test": 1}
    assert st["embedder.fingerprint_stream"]["items"]["windows"] == 1
    conv = st["nnops.conv2d"]
    assert conv["calls"] == 4 and conv["parents"] == {"embedder.fingerprint_stream": 4}
    root = st["run.test"]
    assert root["self_s"] < root["incl_s"]


def _tiny_weights():
    from tunescout import embedder
    from tunescout.pipeline import PipelineConfig
    return embedder.init_weights(PipelineConfig(embedder_preset="tiny").embedder_topology())
