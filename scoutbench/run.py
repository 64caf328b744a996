"""tunescout benchmark: one workload, one seed, one JSON result line.

    python3 scoutbench/run.py --workload recognize|build|stream --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout that has `src/tunescout`. The
program's work runs in child processes (scoutbench/worker.py); this process
makes the inputs from the seed, starts the children, reads their peak RSS
from os.wait4, checks every output, and prints two JSON lines on stdout: a
detail record (machine, counts, tail latency), then the result
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
pass over the same inputs. Scratch files go to .scoutbench_out/ at the root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".scoutbench_out"
SETUP_PROBES = 4
QUERY_WINDOW = 15  # recognize latency is the median over windows of this many queries
CHILD_TIMEOUT_S = 170.0
STAGE_PREFIXES = ("frontend.", "embedder.", "nnops.", "index.", "kernels.", "match.",
                  "detector.", "store.", "weights_io.")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- children

def run_child(args, stdout_path=None, timeout=CHILD_TIMEOUT_S):
    """Run worker.py to the end; return its peak RSS in MB (from os.wait4)."""
    with open(stdout_path or os.devnull, "wb") as fh:
        proc = subprocess.Popen([sys.executable, str(WORKER), *map(str, args)], stdout=fh)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def setup_probes(workload, out):
    """Set-up time of fresh processes: import tunescout and load (or init) models."""
    times = []
    for i in range(SETUP_PROBES):
        path = out / f"setup_{i}.json"
        run_child(["setup", ROOT, workload], stdout_path=path)
        times.append(json.loads(path.read_text())["setup_s"])
    return times


# ---------------------------------------------------------------- machine

def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "numba": has_numba}


# --------------------------------------------------------------- metrics

def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _pct(xs, q):
    xs = sorted(xs)
    return float(xs[min(len(xs) - 1, int(q * len(xs)))]) if xs else 0.0


def fastest(samples, window=1):
    """Lowest median over consecutive windows of `window` samples.

    The host this was built on swings between a fast and a slow state
    (1.6x apart for single-threaded numpy) for tens of seconds at a time,
    so a whole-run median mostly measures which state the run fell in. The
    fastest window of a run measures the program; a regression slows every
    window and still shows.
    """
    windows = [samples[i : i + window] for i in range(0, len(samples) - window + 1, window)]
    return min(_median(w) for w in windows) if windows else _median(samples)


def end_to_end(setup_s, wall_ms, cpu_ms, peak_rss_mb, window=1) -> dict:
    return {
        "setup_s": {"value": _median(setup_s), "unit": "s"},
        "wall_ms_per_item": {"value": fastest(wall_ms, window), "unit": "ms"},
        "cpu_ms_per_item": {"value": fastest(cpu_ms, window), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "frontend.decode_wav_ms": "ms", "frontend.canonicalize_ms": "ms",
    "frontend.log_mel_ms": "ms", "frontend.log_mel_s": "s",
    "embedder.fingerprint_ms": "ms", "embedder.calls": "count",
    "embedder.windows": "count", "nnops.conv2d_ms": "ms",
    "embedder.fingerprint_s": "s", "embedder.windows_per_s": "1/s",
    "pipeline.phases": "count", "pipeline.recognize_ms": "ms",
    "pipeline.duty_cycle": "ratio",
    "index.search_us": "us", "index.searches": "count",
    "index.partitions_probed": "count", "index.scanned_fraction": "ratio",
    "index.train_partitioner_s": "s", "index.train_pq_s": "s", "index.pq_encode_s": "s",
    "kernels.pq_scan_ms": "ms", "kernels.pq_scan_calls": "count",
    "kernels.pq_scan_codes": "count", "kernels.pq_scan_mb": "MB",
    "kernels.assign_nearest_s": "s", "kernels.assign_nearest_calls": "count",
    "kernels.assign_nearest_gflop": "GFLOP", "kernels.knn_radius_s": "s",
    "match.collect_candidates_ms": "ms", "match.candidates": "count",
    "match.score_sequence_ms": "ms", "match.scored": "count",
    "match.local_density_s": "s",
    "detector.push_s": "s", "detector.push_us": "us", "detector.predictions": "count",
    "detector.gate_ms": "ms", "detector.wakeups": "count",
    "store.load_db_ms": "ms", "store.serialize_ms": "ms", "store.db_bytes_per_song": "bytes",
    "weights_io.load_ms": "ms",
    "quality.identified": "count",
    "trace.overhead_pct": "%", "trace.coverage_pct": "%",
}


def per_layer(trace, root, queries, resampled, processes, overhead_pct, extra) -> dict:
    """Per-layer numbers from a merged trace. Times are self times (the span
    minus its child spans) except pipeline.recognize_ms, the whole
    recognition per call, and embedder.fingerprint_s, which includes the
    conv layers. `queries` normalizes the per-query figures."""
    sp = trace["spans"]

    def get(name, field="self_s"):
        return sp.get(name, {}).get(field, 0.0)

    def item(name, key):
        return sp.get(name, {}).get("items", {}).get(key, 0)

    def per(x, n):
        return x / n if n else 0.0

    searches = get("index.search_topk", "calls")
    root_s = get(root, "incl_s") - get("run.load_song", "incl_s")
    staged = sum(v["self_s"] for k, v in sp.items() if k.startswith(STAGE_PREFIXES)
                 and k not in ("store.load_db", "weights_io.load_embedder",
                               "weights_io.load_detector"))
    search = trace["search"]
    fp_incl = get("embedder.fingerprint_stream", "incl_s")
    m = {
        "frontend.decode_wav_ms": per(1e3 * get("frontend.decode_wav"), queries),
        "frontend.canonicalize_ms": per(1e3 * get("frontend.canonicalize"), resampled),
        "frontend.log_mel_ms": per(1e3 * get("frontend.log_mel_frames"), queries),
        "frontend.log_mel_s": get("frontend.log_mel_frames"),
        "embedder.fingerprint_ms": per(1e3 * get("embedder.fingerprint_stream"), queries),
        "embedder.calls": per(get("embedder.fingerprint_stream", "calls"), queries),
        "embedder.windows": per(item("embedder.fingerprint_stream", "windows"), queries),
        "nnops.conv2d_ms": per(1e3 * get("nnops.conv2d"), queries),
        "embedder.fingerprint_s": fp_incl,
        "embedder.windows_per_s": per(item("embedder.fingerprint_stream", "windows"), fp_incl),
        "pipeline.phases": per(item("pipeline.fingerprint_phases", "phases"), queries),
        "pipeline.recognize_ms": per(1e3 * get("pipeline.recognize_pcm", "incl_s"),
                                     get("pipeline.recognize_pcm", "calls")),
        "index.search_us": per(1e6 * get("index.search_topk"), searches),
        "index.searches": per(searches, queries),
        "index.partitions_probed": per(get("kernels.pq_scan", "calls"), searches),
        "index.scanned_fraction": per(search["scanned"], search["total"]),
        "index.train_partitioner_s": get("index.train_partitioner"),
        "index.train_pq_s": get("index.train_pq"),
        "index.pq_encode_s": get("index.pq_encode"),
        "kernels.pq_scan_ms": per(1e3 * get("kernels.pq_scan"), queries),
        "kernels.pq_scan_calls": per(get("kernels.pq_scan", "calls"), queries),
        "kernels.pq_scan_codes": per(item("kernels.pq_scan", "codes"), queries),
        "kernels.pq_scan_mb": per(item("kernels.pq_scan", "bytes") / 1e6, queries),
        "kernels.assign_nearest_s": get("kernels.assign_nearest"),
        "kernels.assign_nearest_calls": get("kernels.assign_nearest", "calls"),
        "kernels.assign_nearest_gflop": item("kernels.assign_nearest", "flop") / 1e9,
        "kernels.knn_radius_s": get("kernels.knn_radius"),
        "match.collect_candidates_ms": per(1e3 * get("match.collect_candidates"), queries),
        "match.candidates": per(item("match.collect_candidates", "candidates"), queries),
        "match.score_sequence_ms": per(1e3 * get("match.score_sequence"), queries),
        "match.scored": per(get("match.score_sequence", "calls"), queries),
        "match.local_density_s": get("match.local_density"),
        "detector.push_s": get("detector.push"),
        "detector.push_us": per(1e6 * get("detector.push"), get("detector.push", "calls")),
        "detector.predictions": item("detector.push", "predictions"),
        "detector.gate_ms": 1e3 * get("detector.smooth_and_gate"),
        "detector.wakeups": item("detector.smooth_and_gate", "events"),
        "store.load_db_ms": per(1e3 * get("store.load_db"), get("store.load_db", "calls")),
        "store.serialize_ms": per(1e3 * get("store.serialize"), get("store.serialize", "calls")),
        "weights_io.load_ms": per(1e3 * (get("weights_io.load_embedder")
                                         + get("weights_io.load_detector")), processes),
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": per(100.0 * staged, root_s),
        "pipeline.duty_cycle": 0.0, "store.db_bytes_per_song": 0.0, "quality.identified": 0,
    }
    m.update(extra)
    return {k: {"value": float(m[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}


# ------------------------------------------------------------- workloads

def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def workload_recognize(seed, seconds, trace, out):
    import inputs
    import checks
    rounds = inputs.recognize_plan(seed, inputs.POOL_ROUNDS)
    blobs = inputs.render_queries(rounds)
    for i, blob in enumerate(blobs):
        (out / f"q{i:04d}.wav").write_bytes(blob)
    (out / "queries.json").write_text(json.dumps({"rounds": len(rounds),
                                                  "round_size": inputs.ROUND_SIZE}))
    setup_s = setup_probes("recognize", out)
    rss = run_child(["recognize", ROOT, out, seconds, int(trace)])
    res = json.loads((out / "recognize_result.json").read_text())
    setup_s.append(res["setup_s"])
    rows = res["rows"]
    # quality is counted once per distinct query; repeated rounds and the
    # traced pass must answer exactly as the first time
    first = {}
    for r in rows:
        first.setdefault((r["round"], r["pos"]), r)
    fails, stats = checks.recognize([rounds[r][p] for r, p in first], list(first.values()))
    fails += checks.same_results([first[(r["round"], r["pos"])] for r in rows], rows)
    ok_rows = [r for r in rows if "error" not in r]
    detail = {"queries": len(rows), "rounds": len(rows) // inputs.ROUND_SIZE,
              "distinct_queries": len(first),
              "p50_ms": 1e3 * _median([r["wall_s"] for r in ok_rows]),
              "p95_ms": 1e3 * _pct([r["wall_s"] for r in ok_rows], 0.95), **stats}
    attempted, failed = len(rows), sum("error" in r for r in rows)
    if not trace:
        metrics = end_to_end(setup_s, [1e3 * r["wall_s"] for r in ok_rows],
                             [1e3 * r["cpu_s"] for r in ok_rows], rss, QUERY_WINDOW)
        return fails, attempted, failed, metrics, detail
    traced = res["traced_rows"]
    fails += checks.same_results(rows[: len(traced)], traced)
    n_res = sum(rounds[r["round"]][r["pos"]].kind == "resampled" for r in traced)
    overhead = 100.0 * (res["traced_wall_s"] / res["wall_s"] - 1.0)
    metrics = per_layer(res["trace"], "run.query", len(traced), n_res, 1, overhead,
                        {"quality.identified": stats["identified"]})
    return fails, attempted + len(traced), failed + sum("error" in r for r in traced), \
        metrics, detail


def workload_build(seed, seconds, trace, out):
    import numpy as np
    import inputs
    import checks
    from dataclasses import asdict
    from tunescout import corpus, embedder, pipeline, store
    from tunescout.corpus import to_pcm
    corpus_cfg = inputs.build_corpus(seed)
    plan = inputs.build_excerpts(seed)
    t0 = time.perf_counter()
    n_clip = int(inputs.QUERY_S * corpus_cfg.sample_rate)
    clips = [None] * len(plan)
    for song in range(corpus_cfg.n_songs):
        wave = corpus.song_audio(corpus_cfg, song)
        np.save(out / f"song_{song:03d}.npy", wave)
        for i, (s, start) in enumerate(plan):
            if s == song:
                a = start * corpus_cfg.sample_rate
                clips[i] = wave[a : a + n_clip]
    synth_s = time.perf_counter() - t0
    (out / "build_plan.json").write_text(json.dumps({"corpus": asdict(corpus_cfg)}))
    setup_s = setup_probes("build", out)
    rss = run_child(["build", ROOT, out, seconds, int(trace)])
    res = json.loads((out / "build_result.json").read_text())
    setup_s.append(res["setup_s"])
    blob = (out / "build.npdb").read_bytes()
    fails = []
    db = store.load_db(blob)
    if store.serialize(db) != blob:
        fails.append("load_db(serialize(db)) does not round-trip")
    frames = inputs.n_frames(int(inputs.BUILD_SONG_S * inputs.SR))
    fails += checks.build_layout(db, inputs.BUILD_SONGS, inputs.n_fingerprints(frames))
    fps = np.load(out / "build_fps.npy")
    sample = np.random.default_rng([seed, 203]).choice(db.index.n_points, 200, replace=False)
    fails += checks.build_oracles(db, fps, sample)
    cfg = pipeline.PipelineConfig(embedder_preset="tiny")
    weights = embedder.init_weights(cfg.embedder_topology(), seed=cfg.seed)
    answers = [pipeline.recognize_pcm(db, to_pcm(c), weights, cfg).to_dict() for c in clips]
    ex_fails, right = checks.excerpts(plan, answers)
    fails += ex_fails
    n = inputs.BUILD_SONGS
    builds = res["builds"]
    detail = {"builds": len(builds), "songs_per_build": n, "fingerprints": db.index.n_points,
              "db_bytes": len(blob), "excerpts_identified": right, "synth_s": synth_s,
              "build_s": [b["wall_s"] for b in builds]}
    attempted = n * len(builds)
    if not trace:
        metrics = end_to_end(setup_s, [1e3 * b["wall_s"] / n for b in builds],
                             [1e3 * b["cpu_s"] / n for b in builds], rss)
        return fails, attempted, 0, metrics, detail
    if not res["traced_equal"]:
        fails.append("traced build wrote different .npdb bytes")
    overhead = 100.0 * (res["traced_build"]["wall_s"] / min(b["wall_s"] for b in builds) - 1.0)
    metrics = per_layer(res["trace"], "run.build", 0, 0, 1, overhead,
                        {"store.db_bytes_per_song": len(blob) / n,
                         "quality.identified": right})
    return fails, attempted + n, 0, metrics, detail


def _read_stream(out, tag):
    lines = [json.loads(x) for x in (out / f"stream_{tag}.out").read_text().splitlines() if x]
    return lines[:-1], lines[-1], json.loads((out / f"stream_{tag}.json").read_text())


def workload_stream(seed, seconds, trace, out):
    import inputs
    import checks
    import spans
    from tunescout import detector, frontend, weights_io
    det = weights_io.load_detector((HERE / "data" / "detector.npmd").read_bytes())
    recs = []
    for i in range(inputs.RECORDINGS):
        wav = out / f"recording_{i}.wav"
        wav.write_bytes(inputs.recording_wav(seed, i))
        recs.append((wav, inputs.regions_to_dicts(inputs.recording_regions(seed, i))))
    setup_s = setup_probes("stream", out)
    runs, rss = [], 0.0
    t0 = time.perf_counter()
    # whole rounds: every recording is streamed the same number of times
    while len(runs) % len(recs) or not runs or time.perf_counter() - t0 < seconds:
        i = len(runs) % len(recs)
        tag = f"{len(runs)}"
        rss = max(rss, run_child(["stream", ROOT, out, recs[i][0], tag, 0],
                                 stdout_path=out / f"stream_{tag}.out"))
        runs.append((i, *_read_stream(out, tag)))
    fails, identified, silent, regions = [], 0, 0, 0
    first = {}
    for i, events, summary, timing in runs:
        if i in first:
            if (events, timing["predictions"]) != first[i]:
                fails.append(f"recording {i} gave different events on a repeat")
            continue
        first[i] = (events, timing["predictions"])
        pcm = frontend.decode_wav(recs[i][0].read_bytes())
        frames = frontend.log_mel_frames(frontend.canonicalize(pcm))
        batch = [p for _, p in detector.batch_predictions(frames, det)]
        expected = inputs.n_predictions(inputs.n_frames(len(pcm.samples)))
        f, counts = checks.stream(recs[i][1], events, summary, timing["predictions"],
                                  expected, batch)
        fails += [f"recording {i}: {x}" for x in f]
        identified += counts["identified"]
        silent += counts["silent_10db"]
        regions += len(recs[i][1])
    minutes = inputs.RECORDING_S / 60.0
    detail = {"streams": len(runs), "recordings": len(recs), "regions": regions,
              "songs_identified": identified, "silent_10db_regions": silent,
              "wakeups": sum(len(first[i][0]) for i in first),
              "rtf": _median([inputs.RECORDING_S / t["wall_s"] for *_, t in runs]),
              "cpu_s_per_h": _median([3600.0 * t["cpu_s"] / inputs.RECORDING_S
                                      for *_, t in runs])}
    attempted = len(runs)
    if not trace:
        # each recording's fastest stream, averaged over the recordings: the
        # recordings differ in how many wake-ups they cause
        per_rec = {}
        for i, *_, t in runs:
            per_rec.setdefault(i, []).append(t)
        wall = statistics.mean(fastest([1e3 * t["wall_s"] / minutes for t in ts])
                               for ts in per_rec.values())
        cpu = statistics.mean(fastest([1e3 * t["cpu_s"] / minutes for t in ts])
                              for ts in per_rec.values())
        metrics = end_to_end(setup_s, [wall], [cpu], rss)
        return fails, attempted, 0, metrics, detail
    traced = []
    for i, (wav, _) in enumerate(recs):
        tag = f"traced_{i}"
        run_child(["stream", ROOT, out, wav, tag, 1], stdout_path=out / f"stream_{tag}.out")
        events, _, timing = _read_stream(out, tag)
        if (events, timing["predictions"]) != first[i]:
            fails.append(f"recording {i}: traced stream gave different events")
        traced.append(timing)
    untraced = sum(t["wall_s"] for i, *_, t in runs[: len(recs)])
    overhead = 100.0 * (sum(t["wall_s"] for t in traced) / untraced - 1.0)
    n_wake = sum(len(first[i][0]) for i in first)
    metrics = per_layer(spans.merge([t["trace"] for t in traced]), "run.stream", n_wake, 0,
                        len(traced), overhead,
                        {"pipeline.duty_cycle": _median([t["duty_cycle"] for t in traced]),
                         "quality.identified": identified})
    return fails, attempted + len(traced), 0, metrics, detail


WORKLOADS = {"recognize": workload_recognize, "build": workload_build,
             "stream": workload_stream}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tunescout" / "__init__.py").is_file():
        print(f"error: no tunescout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    needs = () if args.workload == "build" else ("db102k.npdb", "embedder.npfw",
                                                  "detector.npmd")
    for name in needs:
        if not (HERE / "data" / name).is_file():
            print(f"error: missing scoutbench/data/{name}; run scoutbench/make_inputs.py",
                  file=sys.stderr)
            return 2
    _import_program()
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        fails, attempted, failed, metrics, detail = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), out)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine(), check_failures=fails)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
