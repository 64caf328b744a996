"""scoutbench's worker contract, run the way the benchmark runs it: one
child process per call, importing the program from this checkout's src/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tunescout import weights_io
from tunescout.corpus import CorpusConfig, MusicRegion, ambient_audio, to_pcm
from tunescout.detector import streaming_predictions
from tunescout.frontend import canonicalize, decode_wav, encode_wav, log_mel_frames

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "scoutbench" / "worker.py"
DB_CORPUS = CorpusConfig(n_songs=1700, duration_s=60.0, seed=7)  # the checked-in DB's songs


def _worker(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["recognize", "build", "stream"])
def test_worker_setup(workload):
    proc = _worker("setup", ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert list(out) == ["setup_s"] and out["setup_s"] > 0


def test_worker_stream_reports_the_gate_input_and_the_cli_output(tmp_path):
    regions = [MusicRegion(start_s=6.0, duration_s=20.0, song_id=11, snr_db=20.0)]
    wav = tmp_path / "recording.wav"
    wav.write_bytes(encode_wav(to_pcm(ambient_audio(30.0, regions, DB_CORPUS, seed=1))))
    proc = _worker("stream", ROOT, tmp_path, wav, "t", 0)
    assert proc.returncode == 0, proc.stderr
    timing = json.loads((tmp_path / "stream_t.json").read_text())
    assert set(timing) == {"wall_s", "cpu_s", "duty_cycle", "predictions", "exit_code"}
    assert timing["exit_code"] == 0
    # the probabilities the gate was called with are the streaming detector's
    det = weights_io.load_detector((ROOT / "scoutbench" / "data" / "detector.npmd").read_bytes())
    frames = log_mel_frames(canonicalize(decode_wav(wav.read_bytes())))
    assert timing["predictions"] == [p for _, p in streaming_predictions(frames, det)]
    *events, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    assert summary["wakeups"] == len(events) >= 1
    assert summary["predictions"] == len(timing["predictions"])
    assert all(set(ev) == {"time_s", "mean_confidence", "match"} for ev in events)
