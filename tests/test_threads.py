"""tunescout runs OpenBLAS on one thread, a user's setting wins, and the
thread count does not change any output.

Each check runs in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy first loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

PROBE = """
import json
import tunescout
import numpy
from blas_threads import blas_threads
print(json.dumps({"threads": blas_threads()}))
"""

OUTPUTS = """
import hashlib, json
import tunescout
import numpy as np
from blas_threads import blas_threads
from tunescout import detector, embedder, index, kernels
from tunescout.corpus import CorpusConfig, song_audio, to_pcm
from tunescout.frontend import log_mel_frames
from tunescout.pipeline import PipelineConfig

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(str((a.dtype, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

cfg = PipelineConfig()
weights = embedder.init_weights(cfg.embedder_topology(), seed=cfg.seed)
clip = song_audio(CorpusConfig(n_songs=1, duration_s=20.0, seed=7), 0)
fps = embedder.fingerprint_stream(log_mel_frames(to_pcm(clip)), weights)
rng = np.random.default_rng(5)
# one full 256-window batch: the largest im2col products the embedder runs
frames = rng.standard_normal((96 + 255 * 100, 32)).astype(np.float32)
batch = embedder.fingerprint_stream(frames, weights)
assert batch.shape == (256, 96)
data = rng.standard_normal((3000, 8))
cents, assign, history, sq = index.kmeans(data, 64, seed=0)
pts = rng.standard_normal((2500, 16))
radii = kernels.knn_radius(pts, rng.integers(0, 10, 2500), rng.integers(0, 250, 2500), 16, 2)
# the detector's per-layer products over a 60 s clip, pushed as one block
det_weights = detector.init_weights(detector.DetectorTopology(), seed=0)
minute = log_mel_frames(to_pcm(song_audio(CorpusConfig(n_songs=1, duration_s=60.0, seed=7), 0)))
probs = np.array([p for _, p in detector.streaming_predictions(minute, det_weights)])
print(json.dumps({"threads": blas_threads(),
                  "fingerprint_stream": digest(fps),
                  "fingerprint_batch": digest(batch),
                  "kmeans": digest(cents, assign, np.asarray(history), sq),
                  "knn_radius": digest(radii),
                  "streaming_predictions": digest(probs)}))
"""


def _child(code: str, threads: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    got = json.loads(out.strip().splitlines()[-1])
    if got["threads"] is None:
        pytest.skip("no OpenBLAS thread-count getter in this numpy build")
    return got


def _need_two_cores():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its threads at the usable cores, fewer than 2 here")


def test_importing_tunescout_first_runs_one_blas_thread():
    assert _child(PROBE, None)["threads"] == 1


def test_user_setting_wins():
    _need_two_cores()
    assert _child(PROBE, "2")["threads"] == 2


def test_one_and_two_threads_give_byte_equal_outputs():
    _need_two_cores()
    one, two = _child(OUTPUTS, None), _child(OUTPUTS, "2")
    assert (one.pop("threads"), two.pop("threads")) == (1, 2)
    assert one == two
