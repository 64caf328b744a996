"""Timing spans around the program's public functions, patched from outside.

`Tracer.install()` replaces each function in TARGETS with a wrapper that
times the call, records its parent span and counts work items. A function
that another tunescout module imported by name (`pipeline` imports
`log_mel_frames`, `canonicalize`, `fingerprint_stream`; `store` imports
`pq_encode` and `local_density`; `embedder` imports `conv2d`) is replaced
under every name that refers to it, so those calls are seen too.

Spans are aggregated per name in memory: calls, inclusive seconds, self
seconds (inclusive minus the time of child spans), work counters and the
names of the parent spans.
"""

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


def _windows(item, args, kwargs, out):
    item["windows"] += len(out)


def _phases(item, args, kwargs, out):
    item["phases"] += len(out)


def _pq_scan(item, args, kwargs, out):
    lut, codes = args[:2]
    item["codes"] += codes.shape[0]
    item["bytes"] += lut.nbytes + codes.nbytes + out.nbytes


def _assign(item, args, kwargs, out):
    x, centroids = args[:2]
    n, d = x.shape[0], x.shape[-1]
    item["flop"] += 2 * n * len(centroids) * d


def _candidates(item, args, kwargs, out):
    item["candidates"] += len(out)


def _predictions(item, args, kwargs, out):
    item["predictions"] += out is not None


def _events(item, args, kwargs, out):
    item["events"] += len(out)


# (module, function or Class.method, work counter)
TARGETS = [
    ("frontend", "decode_wav", None),
    ("frontend", "canonicalize", None),
    ("frontend", "log_mel_frames", None),
    ("embedder", "fingerprint_stream", _windows),
    ("nnops", "conv2d", None),
    ("pipeline", "recognize_pcm", None),
    ("pipeline", "fingerprint_phases", _phases),
    ("pipeline", "build_database_from_corpus", None),
    ("pipeline", "build_database_from_fingerprints", None),
    ("pipeline", "stream_file", None),
    ("index", "FingerprintIndex.search_topk", None),
    ("index", "train_partitioner", None),
    ("index", "train_pq", None),
    ("index", "pq_encode", None),
    ("kernels", "pq_scan", _pq_scan),
    ("kernels", "assign_nearest", _assign),
    ("kernels", "knn_radius", None),
    ("match", "recognize", None),
    ("match", "collect_candidates", _candidates),
    ("match", "score_sequence", None),
    ("match", "local_density", None),
    ("detector", "StreamingDetector.push", _predictions),
    ("detector", "smooth_and_gate", _events),
    ("store", "load_db", None),
    ("store", "serialize", None),
    ("store", "build_database", None),
    ("weights_io", "load_embedder", None),
    ("weights_io", "load_detector", None),
]

LOAD_TARGETS = [t for t in TARGETS if t[0] in ("store", "weights_io") and "load" in t[1]]


class _Stat:
    __slots__ = ("calls", "incl", "self", "items", "parents")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.items = Counter()
        self.parents = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []  # [span name, seconds spent in children]
        self._undo: list[tuple] = []
        from tunescout.index import SearchStats
        self.search = SearchStats()

    # ---------------------------------------------------------- spans

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        _, child = self._stack.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.incl += dt
        st.self += dt - child
        if self._stack:
            self._stack[-1][1] += dt
            st.parents[self._stack[-1][0]] += 1
        return st

    @contextmanager
    def span(self, name: str):
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, t0)

    def _wrap(self, fn, name, count):
        tracer = self
        inject_stats = name == "index.search_topk"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if inject_stats and kwargs.get("stats") is None:
                kwargs["stats"] = tracer.search
            t0 = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                st = tracer._exit(name, t0)
            if count is not None:
                count(st.items, args, kwargs, out)
            return out

        return wrapper

    # ------------------------------------------------------- patching

    def install(self, targets=TARGETS):
        for mod_name, attr, count in targets:
            module = importlib.import_module(f"tunescout.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, f"{mod_name}.{meth}", count))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, f"{mod_name}.{attr}", count)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("tunescout"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -------------------------------------------------------- results

    def export(self) -> dict:
        spans = {
            name: {"calls": st.calls, "incl_s": st.incl, "self_s": st.self,
                   "items": dict(st.items), "parents": dict(st.parents)}
            for name, st in self.stats.items()
        }
        return {"spans": spans,
                "search": {"scanned": self.search.scanned, "total": self.search.total}}


def merge(exports: list[dict]) -> dict:
    """Sum several exported traces (one per child process)."""
    spans: dict = {}
    search = {"scanned": 0, "total": 0}
    for ex in exports:
        for key in search:
            search[key] += ex["search"][key]
        for name, sp in ex["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                          "items": {}, "parents": {}})
            acc["calls"] += sp["calls"]
            acc["incl_s"] += sp["incl_s"]
            acc["self_s"] += sp["self_s"]
            for field in ("items", "parents"):
                for k, v in sp[field].items():
                    acc[field][k] = acc[field].get(k, 0) + v
    return {"spans": spans, "search": search}
