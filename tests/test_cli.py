"""Exercise every CLI subcommand end to end on a small corpus."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tunescout
from tunescout import cli, weights_io
from tunescout.corpus import CorpusConfig, MusicRegion, ambient_audio, song_audio, to_pcm
from tunescout.embedder import init_weights as emb_init
from tunescout.frontend import encode_wav
from tunescout.pipeline import PipelineConfig

SR = 16000


def _wav(path: Path, wave: np.ndarray):
    path.write_bytes(encode_wav(to_pcm(wave)))
    return str(path)


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + trained tiny embedder + database, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(PipelineConfig(dim=16, embedder_preset="tiny").to_json())
    assert cli.main(["gen-corpus", "--songs", "5", "--duration-s", "60",
                     "--seed", "7", "--queries", "6", "--noise-queries", "2",
                     "--holdout-queries", "2", "--out", str(root / "corpus")]) == 0
    assert cli.main(["train", "--corpus", str(root / "corpus"),
                     "--what", "embedder", "--steps", "30",
                     "--config", str(cfg_path), "--out", str(root / "models")]) == 0
    assert cli.main(["build", "--corpus", str(root / "corpus"),
                     "--config", str(cfg_path),
                     "--weights", str(root / "models" / "embedder.npfw"),
                     "--out", str(root / "db.npdb")]) == 0
    return {"root": root, "cfg": str(cfg_path), "corpus": str(root / "corpus"),
            "weights": str(root / "models" / "embedder.npfw"),
            "db": str(root / "db.npdb"),
            "corpus_cfg": CorpusConfig(n_songs=5, duration_s=60.0, seed=7)}


def test_gen_corpus_layout_and_manifest(workdir):
    corpus = Path(workdir["corpus"])
    assert len(list((corpus / "songs").glob("*.wav"))) == 5
    assert len(list((corpus / "queries").glob("*.wav"))) == 10
    lines = (corpus / "manifest.jsonl").read_text().splitlines()
    entries = [json.loads(ln) for ln in lines]
    assert sum(e["type"] == "song" for e in entries) == 5
    assert sum(e["type"] == "query" for e in entries) == 10
    meta = json.loads((corpus / "corpus.json").read_text())
    assert meta["n_songs"] == 5 and meta["seed"] == 7


def test_gen_corpus_deterministic(workdir, tmp_path):
    assert cli.main(["gen-corpus", "--songs", "5", "--duration-s", "60",
                     "--seed", "7", "--queries", "6", "--noise-queries", "2",
                     "--holdout-queries", "2", "--out", str(tmp_path / "again")]) == 0
    first = Path(workdir["corpus"])
    again = tmp_path / "again"
    assert (first / "manifest.jsonl").read_text() == (again / "manifest.jsonl").read_text()
    assert ((first / "songs" / "song_0000.wav").read_bytes()
            == (again / "songs" / "song_0000.wav").read_bytes())


def test_build_reports_storage(workdir, capsys):
    assert cli.main(["build", "--corpus", workdir["corpus"],
                     "--config", workdir["cfg"], "--weights", workdir["weights"],
                     "--out", str(Path(workdir["root"]) / "db2.npdb")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_fingerprints"] > 0 and report["total_bytes_per_song"] > 0


def test_build_rejects_dim_mismatch(workdir, tmp_path, capsys):
    assert cli.main(["build", "--corpus", workdir["corpus"],
                     "--weights", workdir["weights"],  # d=16 weights, default d=96
                     "--out", str(tmp_path / "bad.npdb")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config dim 96 does not match weights dim 16"]


def test_recognize_known_excerpt_exits_zero(workdir, tmp_path, capsys):
    wave = song_audio(workdir["corpus_cfg"], 0)[2 * SR : 10 * SR]
    rc = cli.main(["recognize", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--wav", _wav(tmp_path / "q.wav", wave), "--config", workdir["cfg"]])
    result, _ = _last_json(capsys)
    assert rc == 0
    assert result["accepted"] and result["song_id"] == 0
    assert result["title"] == "synthetic song 0000"


def test_recognize_raw_pcm_input(workdir, tmp_path, capsys):
    wave = song_audio(workdir["corpus_cfg"], 1)[0 : 8 * SR]
    raw = tmp_path / "q.pcm"
    raw.write_bytes(to_pcm(wave).samples.astype("<i2").tobytes())
    rc = cli.main(["recognize", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--wav", str(raw), "--raw-pcm", "--config", workdir["cfg"]])
    result, _ = _last_json(capsys)
    assert rc == 0 and result["song_id"] == 1


def test_recognize_noise_exits_one(workdir, tmp_path, capsys):
    rng = np.random.default_rng(0)
    noise = rng.normal(0, 0.1, 8 * SR).astype(np.float32)
    rc = cli.main(["recognize", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--wav", _wav(tmp_path / "n.wav", noise), "--config", workdir["cfg"]])
    result, _ = _last_json(capsys)
    assert rc == 1 and not result["accepted"]


def test_recognize_missing_file_exits_two(workdir, tmp_path):
    rc = cli.main(["recognize", "--db", str(tmp_path / "nope.npdb"),
                   "--weights", workdir["weights"],
                   "--wav", str(tmp_path / "nope.wav"), "--config", workdir["cfg"]])
    assert rc == 2


def test_recognize_corrupt_db_exits_two(workdir, tmp_path):
    bad = tmp_path / "bad.npdb"
    bad.write_bytes(b"not a database at all")
    wave = song_audio(workdir["corpus_cfg"], 0)[: 8 * SR]
    rc = cli.main(["recognize", "--db", str(bad), "--weights", workdir["weights"],
                   "--wav", _wav(tmp_path / "q.wav", wave), "--config", workdir["cfg"]])
    assert rc == 2


def test_gen_corpus_rejects_zero_songs(tmp_path):
    assert cli.main(["gen-corpus", "--songs", "0", "--out", str(tmp_path / "x")]) == 2


def test_stream_silence_and_music(workdir, trained_detector, tmp_path, capsys):
    det, _, _, _ = trained_detector
    det_path = tmp_path / "det.npmd"
    det_path.write_bytes(weights_io.save_detector(det))

    silence = np.zeros(60 * SR, dtype=np.float32)
    rc = cli.main(["stream", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--detector-weights", str(det_path),
                   "--wav", _wav(tmp_path / "sil.wav", silence),
                   "--config", workdir["cfg"]])
    summary, _ = _last_json(capsys)
    assert rc == 0 and summary["wakeups"] == 0 and summary["duty_cycle"] == 0.0

    regions = [MusicRegion(start_s=5.0, duration_s=45.0, song_id=0, snr_db=20.0)]
    music = ambient_audio(60.0, regions, workdir["corpus_cfg"], seed=4)
    rc = cli.main(["stream", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--detector-weights", str(det_path),
                   "--wav", _wav(tmp_path / "mus.wav", music),
                   "--config", workdir["cfg"]])
    summary, lines = _last_json(capsys)
    assert rc == 0 and summary["wakeups"] >= 1
    assert 0.0 < summary["duty_cycle"] < 1.0
    event = json.loads(lines[0])
    assert "time_s" in event and "match" in event


def test_eval_pr_csv(workdir, capsys):
    rc = cli.main(["eval-pr", "--corpus", workdir["corpus"], "--dims", "16",
                   "--queries", "6", "--steps", "10", "--config", workdir["cfg"]])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "dimension,threshold,precision,recall,scorer"
    assert len(out) > 1
    for line in out[1:]:
        d, th, p, r, scorer = line.split(",")
        assert int(d) == 16 and scorer in ("adaptive", "naive")
        assert 0.0 <= float(p) <= 1.0 and 0.0 <= float(r) <= 1.0
        assert 0.0 <= float(th) <= 1.0


def test_eval_detector_csv(workdir, trained_detector, tmp_path, capsys):
    det, _, _, _ = trained_detector
    det_path = tmp_path / "det.npmd"
    det_path.write_bytes(weights_io.save_detector(det))
    rc = cli.main(["eval-detector", "--weights", str(det_path),
                   "--corpus", workdir["corpus"], "--length-s", "600",
                   "--refractory-s", "10"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "threshold,consecutive,recall,fp_per_hour"
    rows = [line.split(",") for line in out[1:]]
    ths = [float(r[0]) for r in rows]
    recalls = [float(r[2]) for r in rows]
    fps = [float(r[3]) for r in rows]
    assert ths == sorted(ths) and len(ths) > 5
    assert all(0.0 <= r <= 1.0 for r in recalls) and all(f >= 0.0 for f in fps)
    # a permissive gate catches at least as much as a strict one
    assert recalls[0] >= recalls[-1] and fps[0] >= fps[-1]


@pytest.mark.parametrize("config", [
    {"index": {"partitions": 4, "no_such_key": 1}},  # unknown nested key
    {"no_such_section": {}},                         # unknown top-level key
    {"gate": 5},                                     # section of the wrong type
    {"gate": {"consecutive": "3"}},                  # value of the wrong type
    {"frontend": {"hop_ms": 20}},                    # the frontend is fixed
    "{not json",
    {"matcher": {"top_k": 20}},                      # the matcher is fixed
    {"index": {"coverage": 0.02}},                   # so is the probed share
    {"index": {"subspaces": 12}},                    # and M = dim // 8
    {"index": {"partitions": 0}},                    # fewer than one partition
])
def test_recognize_bad_config_exits_two(workdir, tmp_path, capsys, config):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    wave = song_audio(workdir["corpus_cfg"], 0)[: 8 * SR]
    rc = cli.main(["recognize", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--wav", _wav(tmp_path / "q.wav", wave), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("key, value, message", [
    ("no_such_key", 1, "gate: unknown keys ['no_such_key']"),
    ("cadence_s", 1.28, "gate: unknown keys ['cadence_s']"),  # derived from the detector
    ("buffer_len_s", -8, "buffer_len_s must be > 0"),
    ("smoothing_window_s", 0, "smoothing_window_s must be > 0"),
    ("refractory_s", -1, "refractory_s must be >= 0"),
], ids=["no_such_key", "cadence_s", "buffer_len_s", "smoothing_window_s", "refractory_s"])
def test_stream_bad_gate_config_exits_two(workdir, tmp_path, capsys, key, value, message):
    cfg = json.loads(Path(workdir["cfg"]).read_text())
    cfg["gate"].update({"threshold": 0.5, key: value})
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["stream", "--db", workdir["db"], "--weights", workdir["weights"],
                   "--detector-weights", str(tmp_path / "unused.npmd"),
                   "--wav", str(tmp_path / "unused.wav"), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == [f"error: {message}"]


# ------------------------------------------------- the process's exit code

def _weights_file(path: Path, meta=None, drop: str | None = None) -> str:
    """A tiny embedder file, optionally with other meta or without a tensor."""
    w = emb_init(PipelineConfig(embedder_preset="tiny").embedder_topology())
    tensors = {k: v for k, v in w.tensors.items() if k != drop}
    meta = {"topology": asdict(w.topology)} if meta is None else meta
    path.write_bytes(weights_io.save_tensors(weights_io.EMBEDDER_MAGIC, tensors, meta))
    return str(path)


def _bad_input_argv(case: str, tmp: Path) -> list[str]:
    corpus_meta = {"n_songs": 1, "duration_s": 1.0, "seed": 7, "holdout_seed": 8}
    if case == "corpus_missing_key":
        del corpus_meta["seed"]
    (tmp / "corpus").mkdir()
    (tmp / "corpus" / "corpus.json").write_text(json.dumps(corpus_meta))
    junk = tmp / "junk.bin"
    junk.write_bytes(b"not a database at all")
    build = ["build", "--corpus", str(tmp / "corpus"), "--out", str(tmp / "db.npdb"), "--weights"]
    if case == "corrupt_db":
        return ["recognize", "--db", str(junk), "--weights", str(junk), "--wav", str(junk)]
    if case == "corrupt_weights_meta":
        return build + [_weights_file(tmp / "w.npfw", meta=["not", "an", "object"])]
    if case == "missing_tensor":
        return build + [_weights_file(tmp / "w.npfw", drop="br0_b2")]
    if case == "bad_config":
        (tmp / "bad.json").write_text(json.dumps({"no_such_key": 1}))
        return ["recognize", "--db", str(junk), "--weights", str(junk), "--wav", str(junk),
                "--config", str(tmp / "bad.json")]
    if case == "zero_songs":
        return ["gen-corpus", "--songs", "0", "--out", str(tmp / "out")]
    if case == "missing_weights_file":
        return build + [str(tmp / "no_such.npfw")]
    return build + [str(junk)]  # corpus_missing_key: the corpus is read first


@pytest.mark.parametrize("case", [
    "corrupt_db", "corrupt_weights_meta", "missing_tensor", "bad_config",
    "zero_songs", "missing_weights_file", "corpus_missing_key",
])
def test_cli_process_exits_two_with_one_error_line(tmp_path, case):
    """Run as a process: only there does an escaped SystemExit or exception
    show its exit status (1) and traceback."""
    src = str(Path(tunescout.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "tunescout.cli", *_bad_input_argv(case, tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
