"""Command-line interface.

Machine-readable output (JSON / CSV) goes to stdout, diagnostics to stderr.
Exit codes for `recognize`: 0 accepted match, 1 no match, 2 error. Every
command exits 2 on bad input, with one `error:` line and no traceback.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import detector as det_mod
from . import evalrun
from . import pipeline as pipe_mod
from . import store as store_mod
from . import weights_io
from .corpus import CorpusConfig, MusicRegion
from .errors import ConfigError, TunescoutError
from .frontend import CANONICAL_RATE, PcmStream, decode_wav, encode_wav, log_mel_frames
from .pipeline import PipelineConfig


def _log(msg: str):
    print(msg, file=sys.stderr)


def _load_config(path: str | None) -> PipelineConfig:
    return PipelineConfig.from_json(Path(path).read_text() if path else "{}")


def _read_audio(path: str, raw_pcm: bool) -> PcmStream:
    data = Path(path).read_bytes()
    if raw_pcm:
        return PcmStream(samples=np.frombuffer(data, dtype="<i2").copy(),
                         sample_rate=CANONICAL_RATE)
    return decode_wav(data)


# ------------------------------------------------------------- subcommands

def cmd_gen_corpus(args) -> int:
    if args.songs < 1:
        raise ValueError("--songs must be >= 1")
    out = Path(args.out)
    (out / "songs").mkdir(parents=True, exist_ok=True)
    (out / "queries").mkdir(parents=True, exist_ok=True)
    cfg = CorpusConfig(n_songs=args.songs, duration_s=args.duration_s, seed=args.seed)
    holdout_cfg = CorpusConfig(n_songs=max(1, args.songs // 10), duration_s=args.duration_s,
                               seed=args.seed + 1)
    manifest = []
    for song in range(cfg.n_songs):
        wave = corpus_mod.song_audio(cfg, song)
        path = out / "songs" / f"song_{song:04d}.wav"
        path.write_bytes(encode_wav(corpus_mod.to_pcm(wave)))
        manifest.append({"type": "song", "song_id": song, "file": str(path.relative_to(out)),
                         "title": corpus_mod.song_title(song), "duration_s": cfg.duration_s})
    specs = corpus_mod.make_queries(cfg, args.queries, query_len_s=args.query_len_s,
                                    n_noise=args.noise_queries,
                                    n_holdout=args.holdout_queries, holdout_cfg=holdout_cfg)
    for spec in specs:
        wave = corpus_mod.query_audio(cfg, spec, holdout_cfg)
        path = out / "queries" / f"query_{spec.query_id:04d}.wav"
        path.write_bytes(encode_wav(corpus_mod.to_pcm(wave)))
        entry = corpus_mod.spec_to_dict(spec)
        entry["type"] = "query"
        entry["file"] = str(path.relative_to(out))
        manifest.append(entry)
    (out / "corpus.json").write_text(json.dumps(
        {"n_songs": cfg.n_songs, "duration_s": cfg.duration_s, "seed": cfg.seed,
         "holdout_seed": holdout_cfg.seed, "holdout_songs": holdout_cfg.n_songs}, sort_keys=True))
    with open(out / "manifest.jsonl", "w") as fh:
        for entry in manifest:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _log(f"wrote {cfg.n_songs} songs and {len(specs)} queries to {out}")
    return 0


def _corpus_from_dir(path: str) -> tuple[CorpusConfig, CorpusConfig]:
    meta = json.loads((Path(path) / "corpus.json").read_text())
    try:
        cfg = CorpusConfig(n_songs=meta["n_songs"], duration_s=meta["duration_s"], seed=meta["seed"])
        holdout = CorpusConfig(n_songs=meta.get("holdout_songs", 1),
                               duration_s=meta["duration_s"], seed=meta["holdout_seed"])
    except KeyError as e:
        raise ConfigError(f"{Path(path) / 'corpus.json'}: missing key {e}") from e
    return cfg, holdout


def cmd_train(args) -> int:
    if args.train_songs is not None and args.train_songs < 1:
        raise ValueError("--train-songs must be >= 1")
    cfg = _load_config(args.config)
    corpus_cfg, _ = _corpus_from_dir(args.corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.what in ("embedder", "both"):
        _log(f"training embedder (d={cfg.dim}, preset={cfg.embedder_preset})")
        w = pipe_mod.train_pipeline_embedder(corpus_cfg, cfg, steps=args.steps,
                                             n_songs=args.train_songs)
        (out / "embedder.npfw").write_bytes(weights_io.save_embedder(w))
        _log(f"wrote {out / 'embedder.npfw'}")
    if args.what in ("detector", "both"):
        _log("training detector")
        clips = corpus_mod.detector_clips(args.detector_clips, seed=cfg.seed)
        feats = [log_mel_frames(corpus_mod.to_pcm(w_)) for w_, _ in clips]
        labels = [lab for _, lab in clips]
        dw = det_mod.train_detector(feats, labels,
                                    hyper=det_mod.DetectorTrainConfig(steps=args.steps, seed=cfg.seed))
        (out / "detector.npmd").write_bytes(weights_io.save_detector(dw))
        (out / "detector_q8.npmd").write_bytes(
            weights_io.save_detector(det_mod.fold_batchnorm(dw), quantize=True))
        _log(f"wrote {out / 'detector.npmd'} and quantized form")
    return 0


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    corpus_cfg, _ = _corpus_from_dir(args.corpus)
    weights = weights_io.load_embedder(Path(args.weights).read_bytes())
    if weights.topology.dim != cfg.dim:
        raise ConfigError(
            f"config dim {cfg.dim} does not match weights dim {weights.topology.dim}")
    _log(f"fingerprinting {corpus_cfg.n_songs} songs")
    db = pipe_mod.build_database_from_corpus(corpus_cfg, weights, cfg)
    blob = store_mod.serialize(db)
    Path(args.out).write_bytes(blob)
    report = db.storage_report()
    print(json.dumps(report, sort_keys=True, indent=2))
    _log(f"wrote {args.out} ({len(blob)} bytes)")
    return 0


def cmd_recognize(args) -> int:
    cfg = _load_config(args.config)
    db = store_mod.load_db(Path(args.db).read_bytes())
    weights = weights_io.load_embedder(Path(args.weights).read_bytes())
    pcm = _read_audio(args.wav, args.raw_pcm)
    result = pipe_mod.recognize_pcm(db, pcm, weights, cfg)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return 0 if result.accepted else 1


def cmd_stream(args) -> int:
    cfg = _load_config(args.config)
    db = store_mod.load_db(Path(args.db).read_bytes())
    emb = weights_io.load_embedder(Path(args.weights).read_bytes())
    det = weights_io.load_detector(Path(args.detector_weights).read_bytes())
    pcm = _read_audio(args.wav, args.raw_pcm)
    report = pipe_mod.stream_file(db, pcm, emb, det, cfg)
    for ev in report["events"]:
        print(json.dumps(ev, sort_keys=True))
    print(json.dumps({"wakeups": report["wakeups"],
                      "duty_cycle": round(report["duty_cycle"], 4),
                      "predictions": report["predictions"],
                      "duration_s": report["duration_s"]}, sort_keys=True))
    return 0


def cmd_eval_pr(args) -> int:
    if args.train_songs is not None and args.train_songs < 1:
        raise ValueError("--train-songs must be >= 1")
    cfg = _load_config(args.config)
    corpus_cfg, holdout_cfg = _corpus_from_dir(args.corpus)
    dims = [int(d) for d in args.dims.split(",")]
    specs = corpus_mod.make_queries(corpus_cfg, args.queries, n_noise=args.queries // 10,
                                    n_holdout=args.queries // 10, holdout_cfg=holdout_cfg)
    print("dimension,threshold,precision,recall,scorer")
    for d in dims:
        dcfg = replace(cfg, dim=d)
        _log(f"d={d}: training embedder")
        weights = pipe_mod.train_pipeline_embedder(corpus_cfg, dcfg, steps=args.steps,
                                                   n_songs=args.train_songs)
        _log(f"d={d}: building DB")
        db = pipe_mod.build_database_from_corpus(corpus_cfg, weights, dcfg)
        _log(f"d={d}: running {len(specs)} queries")
        outcomes = evalrun.run_queries(db, specs, corpus_cfg, weights, holdout_cfg)
        for scorer in ("adaptive", "naive"):
            for row in evalrun.pr_rows(outcomes, scorer):
                print(f"{d},{row['threshold']},{row['precision']:.4f},"
                      f"{row['recall']:.4f},{row['scorer']}")
    return 0


def cmd_eval_detector(args) -> int:
    cfg = _load_config(args.config)
    det = weights_io.load_detector(Path(args.weights).read_bytes())
    corpus_cfg, _ = _corpus_from_dir(args.corpus) if args.corpus else (CorpusConfig(seed=cfg.seed), None)
    rng = np.random.default_rng(cfg.seed)
    length_s = args.length_s
    regions = []
    pos = 60.0
    while pos + 40.0 < length_s:
        dur = float(rng.uniform(16.0, 40.0))
        regions.append(MusicRegion(start_s=pos, duration_s=dur,
                                   song_id=len(regions) % corpus_cfg.n_songs,
                                   snr_db=float(rng.choice(corpus_mod.SNRS_DB))))
        pos += dur + float(rng.uniform(120.0, 200.0))
    wave = corpus_mod.ambient_audio(length_s, regions, corpus_cfg, seed=cfg.seed)
    probs = evalrun.detector_prediction_stream(wave, det)
    gate = replace(cfg.gate, refractory_s=args.refractory_s)
    print("threshold,consecutive,recall,fp_per_hour")
    for row in evalrun.detector_sweep(probs, det.topology, regions, gate, length_s):
        print(f"{row['threshold']},{row['consecutive']},{row['recall']:.4f},"
              f"{row['fp_per_hour']:.4f}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tunescout",
                                 description="On-device music recognition toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--songs", type=int, required=True)
    p.add_argument("--duration-s", dest="duration_s", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--query-len-s", dest="query_len_s", type=float, default=8.0)
    p.add_argument("--noise-queries", type=int, default=10)
    p.add_argument("--holdout-queries", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train embedder and/or detector")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--what", choices=["embedder", "detector", "both"], default="both")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--train-songs", type=int, default=None)
    p.add_argument("--detector-clips", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("build", help="fingerprint a corpus and build the DB")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--weights", required=True, help="embedder .npfw file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("recognize", help="match one audio file against the DB")
    p.add_argument("--db", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--raw-pcm", action="store_true",
                   help="input is headerless s16le mono 16 kHz")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("stream", help="simulated continuous listening")
    p.add_argument("--db", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--detector-weights", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--raw-pcm", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("eval-pr", help="precision/recall sweep per embedding dim")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dims", default="64,96,128")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--train-songs", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval_pr)

    p = sub.add_parser("eval-detector", help="gate recall vs. false positives per hour")
    p.add_argument("--weights", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--length-s", dest="length_s", type=float, default=3600.0)
    p.add_argument("--refractory-s", dest="refractory_s", type=float, default=10.0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval_detector)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TunescoutError, FileNotFoundError, ValueError) as e:
        _log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
