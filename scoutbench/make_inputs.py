"""Make the benchmark's checked-in inputs: trained weights and the 102k DB.

    PYTHONPATH=src python3 scoutbench/make_inputs.py

Writes, under scoutbench/data/:
  embedder.npfw  default-preset fingerprinter, trained like the test suite's
                 `desk` fixture: 100 songs x 60 s, corpus seed 7, 300 steps,
                 pipeline seed 7.
  detector.npmd  music detector, trained like the `trained_detector`
                 fixture: detector_clips(600, seed=3), first 500 clips,
                 300 steps, seed 0.
  db102k.npdb    1700 songs x 60 s of corpus seed 7 fingerprinted with that
                 embedder: 102,000 fingerprints, P = 320 partitions, M = 12.

Benchmark runs load these files and never retrain. Every step is
deterministic, so a rerun on the same numpy reproduces the files.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DB_SONGS = 1700
DB_PARTITIONS = 320


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from tunescout import store, weights_io
    from tunescout.corpus import CorpusConfig, detector_clips, to_pcm
    from tunescout.detector import DetectorTrainConfig, train_detector
    from tunescout.frontend import log_mel_frames
    from tunescout.pipeline import (IndexConfig, PipelineConfig,
                                    build_database_from_corpus, train_pipeline_embedder)

    DATA.mkdir(exist_ok=True)
    cfg = PipelineConfig()

    t0 = time.perf_counter()
    weights = train_pipeline_embedder(CorpusConfig(n_songs=100, duration_s=60.0, seed=7),
                                      cfg, steps=300)
    (DATA / "embedder.npfw").write_bytes(weights_io.save_embedder(weights))
    print(f"embedder trained in {time.perf_counter() - t0:.0f} s", flush=True)

    t0 = time.perf_counter()
    clips = detector_clips(600, seed=3)
    feats = [log_mel_frames(to_pcm(w)) for w, _ in clips]
    labels = [lab for _, lab in clips]
    det = train_detector(feats[:500], labels[:500],
                         hyper=DetectorTrainConfig(steps=300, seed=0))
    (DATA / "detector.npmd").write_bytes(weights_io.save_detector(det))
    print(f"detector trained in {time.perf_counter() - t0:.0f} s", flush=True)

    t0 = time.perf_counter()
    db_cfg = PipelineConfig(index=IndexConfig(partitions=DB_PARTITIONS))
    db = build_database_from_corpus(CorpusConfig(n_songs=DB_SONGS, duration_s=60.0, seed=7),
                                    weights, db_cfg)
    blob = store.serialize(db)
    (DATA / "db102k.npdb").write_bytes(blob)
    print(f"DB of {db.index.n_points} fingerprints ({len(blob)} bytes) built in "
          f"{time.perf_counter() - t0:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
