"""Child process that runs the program's side of one workload.

    python3 worker.py setup     <root> <workload>
    python3 worker.py recognize <root> <out> <seconds> <trace>
    python3 worker.py build     <root> <out> <seconds> <trace>
    python3 worker.py stream    <root> <out> <wav> <tag> <trace>

Each mode writes its measurements as JSON into <out> (or, for `setup`, to
stdout). Running the program in a child of its own keeps the harness's
input synthesis out of the program's peak RSS, which the parent reads
from os.wait4. Only the standard library is imported before the set-up
clock starts.
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

T_START = time.perf_counter()

DB_FILE = "db102k.npdb"
EMBEDDER_FILE = "embedder.npfw"
DETECTOR_FILE = "detector.npmd"


def _paths(root: str):
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    return root / "scoutbench" / "data"


def _write(path: Path, obj):
    path.write_text(json.dumps(obj))


# ----------------------------------------------------------------- setup

def setup(data: Path, workload: str) -> dict:
    """The program's own set-up for a workload; returns the loaded objects."""
    from tunescout import pipeline, store, weights_io
    if workload == "build":
        from tunescout import embedder
        cfg = pipeline.PipelineConfig(embedder_preset="tiny")
        return {"cfg": cfg, "weights": embedder.init_weights(cfg.embedder_topology(),
                                                             seed=cfg.seed)}
    cfg = pipeline.PipelineConfig()
    out = {"cfg": cfg,
           "db": store.load_db((data / DB_FILE).read_bytes(), coverage=cfg.index.coverage),
           "weights": weights_io.load_embedder((data / EMBEDDER_FILE).read_bytes())}
    if workload == "stream":
        out["detector"] = weights_io.load_detector((data / DETECTOR_FILE).read_bytes())
    return out


def mode_setup(root, workload):
    setup(_paths(root), workload)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


# ------------------------------------------------------------- recognize

def mode_recognize(root, out, seconds, trace):
    data = _paths(root)
    out, seconds, trace = Path(out), float(seconds), trace == "1"
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer().install(spans.LOAD_TARGETS)
    env = setup(data, "recognize")
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.uninstall()

    from tunescout import frontend, pipeline
    from tunescout.errors import TunescoutError
    db, weights, cfg = env["db"], env["weights"], env["cfg"]

    # one query file is read at a time, outside the timed region, so the
    # worker's peak RSS is the program's and not the input pool's
    meta = json.loads((out / "queries.json").read_text())
    size, n_rounds = meta["round_size"], meta["rounds"]

    def run_round(r, span=None):
        rows = []
        for pos in range(size):
            blob = (out / f"q{r * size + pos:04d}.wav").read_bytes()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with span("run.query") if span else nullcontext():
                    res = pipeline.recognize_pcm(db, frontend.decode_wav(blob), weights, cfg)
                row = {"result": res.to_dict()}
            except Exception as e:  # every failure is recorded, typed, and checked
                row = {"error": type(e).__name__, "typed": isinstance(e, TunescoutError),
                       "message": str(e)}
            row.update(round=r, pos=pos, wall_s=time.perf_counter() - t0,
                       cpu_s=time.process_time() - c0)
            rows.append(row)
        return rows

    budget = seconds / 2 if trace else seconds
    rows, n = [], 0
    t0 = time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < budget:
        rows += run_round(n % n_rounds)
        n += 1
    wall = time.perf_counter() - t0
    result = {"setup_s": setup_s, "rows": rows, "wall_s": wall}
    if tracer:
        tracer.install()
        t1 = time.perf_counter()
        traced = []
        for r in range(n):
            traced += run_round(r % n_rounds, tracer.span)
        result.update(traced_rows=traced, traced_wall_s=time.perf_counter() - t1,
                      trace=tracer.export())
        tracer.uninstall()
    _write(out / "recognize_result.json", result)


# ----------------------------------------------------------------- build

def mode_build(root, out, seconds, trace):
    data = _paths(root)
    out, seconds, trace = Path(out), float(seconds), trace == "1"
    env = setup(data, "build")
    setup_s = time.perf_counter() - T_START

    import numpy as np
    from tunescout import corpus, pipeline, store
    from tunescout.corpus import CorpusConfig

    cfg, weights = env["cfg"], env["weights"]
    plan = json.loads((out / "build_plan.json").read_text())
    corpus_cfg = CorpusConfig(**plan["corpus"])

    # The harness synthesized the songs ahead of the run (input preparation).
    # The program asks for them through corpus.song_audio; loading a file is
    # not program work either, so it is timed and taken out.
    loaded = {"wall": 0.0, "cpu": 0.0, "span": None}

    def load_song(c, song_id):
        c0, t0 = time.process_time(), time.perf_counter()
        with loaded["span"]("run.load_song") if loaded["span"] else nullcontext():
            wave = np.load(out / f"song_{song_id:03d}.npy")
        loaded["wall"] += time.perf_counter() - t0
        loaded["cpu"] += time.process_time() - c0
        return wave

    corpus.song_audio = load_song
    captured = {}
    from_fps = pipeline.build_database_from_fingerprints

    def capture_fps(entries, c):
        captured.setdefault("fps", [f for _, f in entries])
        return from_fps(entries, c)

    pipeline.build_database_from_fingerprints = capture_fps

    def one_build(span=None):
        loaded.update(wall=0.0, cpu=0.0, span=span)
        c0, t0 = time.process_time(), time.perf_counter()
        with span("run.build") if span else nullcontext():
            blob = store.serialize(pipeline.build_database_from_corpus(corpus_cfg, weights, cfg))
        wall = time.perf_counter() - t0 - loaded["wall"]
        cpu = time.process_time() - c0 - loaded["cpu"]
        return blob, {"wall_s": wall, "cpu_s": cpu, "load_s": loaded["wall"]}

    builds, n = [], 0
    blob = None
    budget = seconds / 2 if trace else seconds
    t0 = time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < budget:
        blob, row = one_build()
        builds.append(row)
        n += 1
    result = {"setup_s": setup_s, "builds": builds}
    if trace:
        import spans
        tracer = spans.Tracer().install()
        traced_blob, row = one_build(tracer.span)
        tracer.uninstall()
        result.update(traced_build=row, traced_equal=traced_blob == blob,
                      trace=tracer.export())
    (out / "build.npdb").write_bytes(blob)
    np.save(out / "build_fps.npy", np.concatenate(captured["fps"]))
    _write(out / "build_result.json", result)


# ---------------------------------------------------------------- stream

def mode_stream(root, out, wav, tag, trace):
    data = _paths(root)
    out, trace = Path(out), trace == "1"
    from tunescout import cli, pipeline

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer().install()
    timing = {}
    stream_file = pipeline.stream_file
    smooth_and_gate = pipeline.smooth_and_gate

    def timed_stream_file(*args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        with tracer.span("run.stream") if tracer else nullcontext():
            report = stream_file(*args, **kwargs)
        timing.update(wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - c0,
                      duty_cycle=report["duty_cycle"])
        return report

    def captured_gate(preds, *args, **kwargs):
        timing["predictions"] = [float(p) for p in preds]
        return smooth_and_gate(preds, *args, **kwargs)

    pipeline.stream_file = timed_stream_file
    pipeline.smooth_and_gate = captured_gate
    code = cli.main(["stream", "--db", str(data / DB_FILE),
                     "--weights", str(data / EMBEDDER_FILE),
                     "--detector-weights", str(data / DETECTOR_FILE), "--wav", wav])
    timing["exit_code"] = code
    if tracer:
        tracer.uninstall()
        timing["trace"] = tracer.export()
    _write(out / f"stream_{tag}.json", timing)
    return code


MODES = {"setup": mode_setup, "recognize": mode_recognize, "build": mode_build,
         "stream": mode_stream}

if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](*sys.argv[2:]) or 0)
