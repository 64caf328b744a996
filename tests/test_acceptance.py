"""Acceptance gate: twelve end-to-end criteria, one PASS/FAIL line each.

Each test records a single `ACCEPTANCE n: PASS/FAIL` line — printed in a
terminal-summary section after the run so capture can't hide it — and then
asserts.
"""

import time
from collections import Counter

import numpy as np
import pytest
from detector_helper import training_loss
from index_helper import build_index

from tunescout import store as store_mod
from tunescout import weights_io
from tunescout.corpus import CorpusConfig, song_audio, to_pcm
from tunescout.detector import (
    DetectorTopology,
    GateConfig,
    batch_predictions,
    fold_batchnorm,
    init_weights,
    streaming_predictions,
)
from tunescout.embedder import (
    EmbedderTopology,
    backward_batch,
    fingerprint_stream,
    forward_batch,
    triplet_loss,
)
from tunescout.embedder import init_weights as emb_init
from tunescout.errors import DbError
from tunescout.evalrun import (
    detector_sweep,
    gate_region_metrics,
    pr_rows,
    precision_at_recall,
    smooth_and_gate,
)
from tunescout.frontend import log_mel_frames
from tunescout.index import (
    SearchStats,
    compression_ratio,
    train_partitioner,
    train_pq,
)
from tunescout.match import THETA_ABS, collect_candidates, local_density
from tunescout.pipeline import PipelineConfig, build_database_from_fingerprints
from tunescout.store import SongRecord, build_database, load_db, serialize


_pytest_config = None


@pytest.fixture(autouse=True)
def _grab_config(request):
    global _pytest_config
    _pytest_config = request.config


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    if _pytest_config is not None:
        _pytest_config.acceptance_lines.append(line)
    assert ok, line


# --------------------------------------------------------------------- 1

def test_acceptance_01_compression_ratio():
    ok = (compression_ratio(96, 12) == 32.0)
    _report(1, "d=96 / 12-byte code compresses fingerprints exactly 32x", ok)


# --------------------------------------------------------------------- 2

def test_acceptance_02_per_song_storage_budget():
    cfg = PipelineConfig(dim=96, embedder_preset="tiny")
    corpus_cfg = CorpusConfig(n_songs=100, duration_s=240.0, seed=7)
    weights = emb_init(cfg.embedder_topology(), seed=cfg.seed)  # storage is training-independent
    # the time budget covers the system's work (fingerprinting + DB build);
    # synthesizing 100 x 240 s of test audio is harness input preparation
    elapsed = 0.0
    entries = []
    for s in range(corpus_cfg.n_songs):
        wave = song_audio(corpus_cfg, s)
        t0 = time.perf_counter()
        frames = log_mel_frames(to_pcm(wave))
        fps = fingerprint_stream(frames, weights)
        elapsed += time.perf_counter() - t0
        entries.append((SongRecord(song_id=s, title=f"song {s:04d}", artist="",
                                   duration_s=corpus_cfg.duration_s), fps))
    t0 = time.perf_counter()
    db = build_database_from_fingerprints(entries, cfg)
    elapsed += time.perf_counter() - t0
    report = db.storage_report()
    ok = (report["payload_bytes_per_song"] == 2880.0
          and report["payload_bytes_per_song"] < 3072
          and report["total_bytes_per_song"] < 3.5 * 1024
          and elapsed < 60.0)
    _report(2, "240 s songs fit the <3 KB payload / <3.5 KB total budget", ok,
            f"payload={report['payload_bytes_per_song']:.0f} B, "
            f"total={report['total_bytes_per_song']:.0f} B, {elapsed:.1f} s")


# --------------------------------------------------------------------- 3

def test_acceptance_03_probe_scan_fraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    n, d = 100_000, 16
    centers = rng.standard_normal((200, d)).astype(np.float32)
    fps = (centers[rng.integers(0, 200, size=n)]
           + 0.15 * rng.standard_normal((n, d)).astype(np.float32))
    fps /= np.linalg.norm(fps, axis=1, keepdims=True)
    songs = rng.integers(0, 500, size=n).astype(np.int32)
    offs = rng.integers(0, 240, size=n).astype(np.int32)
    idx = build_index(fps, songs, offs, seed=0)
    stats = SearchStats()
    for q in fps[rng.choice(n, size=50, replace=False)]:
        idx.search_topk(q, 10, stats=stats)
    frac = stats.scanned_fraction
    elapsed = time.perf_counter() - t0
    ok = (idx.n_points >= 100_000 and 0.01 <= frac <= 0.05 and elapsed < 120.0)
    _report(3, "default probing scans 1-5% of a 100k-fingerprint DB", ok,
            f"scanned {100 * frac:.2f}%, {elapsed:.1f} s")


# --------------------------------------------------------------------- 4

def test_acceptance_04_detector_budget(trained_detector):
    w, _, _, _ = trained_detector
    n_params = w.topology.parameter_count()
    blob = weights_io.save_detector(fold_batchnorm(w), quantize=True)
    ok = (8000 <= n_params <= 9000 and len(blob) < 10 * 1024)
    _report(4, "detector has 8-9k parameters and a <10 KB quantized file", ok,
            f"{n_params} params, {len(blob)} bytes")


# --------------------------------------------------------------------- 5

def test_acceptance_05_streaming_equivalence():
    w = init_weights(DetectorTopology(), seed=5)
    rng = np.random.default_rng(5)
    worst = 0.0
    cadence_ok = True
    for _ in range(10):
        wave = rng.normal(0.0, 0.1, 30 * 16000).astype(np.float32)
        frames = log_mel_frames(to_pcm(wave))
        batch = batch_predictions(frames, w)
        stream = streaming_predictions(frames, w)
        if [e for e, _ in batch] != [e for e, _ in stream]:
            cadence_ok = False
            break
        gaps = np.diff([e for e, _ in batch])
        cadence_ok &= bool(np.all(gaps == 64))
        worst = max(worst, max(abs(pb - ps) for (_, pb), (_, ps) in zip(batch, stream)))
    ok = cadence_ok and worst <= 1e-5
    _report(5, "streaming detector emits every 64 frames and matches batch", ok,
            f"max |batch-stream| = {worst:.2e}")


# --------------------------------------------------------------------- 6

def _detector_gradcheck() -> float:
    topo = DetectorTopology(input_frames=22, channels=3, n_layers=2, dense_hidden=2)
    rng = np.random.default_rng(8)
    w = init_weights(topo, seed=8)
    for name in w.tensors:
        w.tensors[name] = w.tensors[name].astype(np.float64)
        if name.endswith(("_b", "_bn_beta")):
            w.tensors[name] += rng.normal(0, 0.1, w.tensors[name].shape)
    batch = rng.standard_normal((3, 22, 3))
    labels = np.array([1.0, 0.0, 1.0])
    _, grads = training_loss(w, batch, labels, train=False)
    eps = 1e-6
    worst = 0.0
    for name, g in grads.items():
        x = w.tensors[name]
        idx = rng.choice(x.size, size=min(8, x.size), replace=False)
        for fi in idx:
            ix = np.unravel_index(fi, x.shape)
            orig = x[ix]
            x[ix] = orig + eps
            lp, _ = training_loss(w, batch, labels, train=False)
            x[ix] = orig - eps
            lm, _ = training_loss(w, batch, labels, train=False)
            x[ix] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8))
    return worst


def _embedder_gradcheck() -> float:
    topo = EmbedderTopology(frames=8, mel_bins=8, conv_channels=(2, 3),
                            branches=2, branch_hidden=4, dim=8)
    rng = np.random.default_rng(9)
    w = emb_init(topo, seed=9)
    for name in w.tensors:
        w.tensors[name] = w.tensors[name].astype(np.float64)
        if "_bn_var" in name:
            w.tensors[name] *= rng.uniform(0.5, 1.5, w.tensors[name].shape)
        elif "_bn_mean" in name or name.endswith("_b"):
            w.tensors[name] += rng.normal(0, 0.1, w.tensors[name].shape)
    batch = rng.standard_normal((3, topo.frames, topo.mel_bins))

    def loss_and_grads():
        emb, cache = forward_batch(batch, w, train=False)
        loss, (da, dp, dn) = triplet_loss(emb[0:1], emb[1:2], emb[2:3], margin=0.4)
        return loss, backward_batch(np.concatenate([da, dp, dn]), w, cache)

    loss0, grads = loss_and_grads()
    assert loss0 > 0  # margin must be active or gradients vanish
    eps = 1e-6
    worst = 0.0
    rng2 = np.random.default_rng(10)
    for name, g in grads.items():
        x = w.tensors[name]
        idx = rng2.choice(x.size, size=min(6, x.size), replace=False)
        for fi in idx:
            ix = np.unravel_index(fi, x.shape)
            orig = x[ix]
            x[ix] = orig + eps
            lp, _ = loss_and_grads()
            x[ix] = orig - eps
            lm, _ = loss_and_grads()
            x[ix] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8))
    return worst


def test_acceptance_06_gradient_checks():
    det_err = _detector_gradcheck()
    emb_err = _embedder_gradcheck()
    ok = det_err <= 1e-3 and emb_err <= 1e-3
    _report(6, "detector and embedder gradients match finite differences", ok,
            f"rel err detector {det_err:.1e}, embedder {emb_err:.1e}")


# --------------------------------------------------------------------- 7

def test_acceptance_07_oracle_equivalence():
    rng = np.random.default_rng(7)
    # a) full-probe search equals exhaustive quantized search
    fps = rng.standard_normal((2000, 16)).astype(np.float32)
    fps /= np.linalg.norm(fps, axis=1, keepdims=True)
    songs = rng.integers(0, 40, size=2000).astype(np.int32)
    offs = rng.integers(0, 60, size=2000).astype(np.int32)
    idx = build_index(fps, songs, offs, seed=0)
    recon = idx.decode_all()
    search_ok = True
    for _ in range(20):
        q = fps[rng.integers(2000)] + 0.1 * rng.standard_normal(16).astype(np.float32)
        hits = idx.search_topk(q, 10, probes=idx.partitioner.n_partitions)
        d2 = ((recon - q.astype(np.float64)) ** 2).sum(axis=1)
        order = np.lexsort((idx.offsets, idx.song_ids, d2.astype(np.float32)))[:10]
        search_ok &= ([(h.song_id, h.offset_s) for h in hits]
                      == [(int(idx.song_ids[i]), int(idx.offsets[i])) for i in order])

    # b) candidate voting equals a brute-force recount
    hits_per_step = []
    for i in range(8):
        step = idx.search_topk(fps[100 + i], 5)
        hits_per_step.append(step)
    cands = collect_candidates(hits_per_step)
    votes = Counter()
    for i, step in enumerate(hits_per_step):
        for s, o in {(h.song_id, h.offset_s - i) for h in step}:
            votes[(s, o)] += 1
    vote_ok = all(votes[(c.song_id, c.start_offset)] == c.support for c in cands)

    # c) density radii equal the quadratic all-pairs oracle on 1k points
    pts = rng.standard_normal((1000, 8))
    dsongs = rng.integers(0, 25, size=1000)
    doffs = rng.integers(0, 60, size=1000)
    r = local_density(pts, dsongs, doffs, k_density=16)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    mask = (dsongs[:, None] == dsongs[None, :]) & (np.abs(doffs[:, None] - doffs[None, :]) <= 2)
    d2[mask] = np.inf
    oracle = np.maximum(np.sqrt(np.sort(d2, axis=1)[:, 15]), 1e-3)
    density_ok = np.allclose(r, oracle, atol=1e-9)

    ok = search_ok and vote_ok and density_ok
    _report(7, "search, voting and density match their brute-force oracles", ok,
            f"search={search_ok}, votes={vote_ok}, density={density_ok}")


# --------------------------------------------------------------------- 8

def test_acceptance_08_recognition_recall_precision(desk):
    outcomes = desk["outcomes"]
    rows = pr_rows(outcomes, "adaptive")
    feasible = [r["recall"] for r in rows if r["precision"] >= 0.95]
    best_recall = max(feasible) if feasible else 0.0

    def accept_rate(kind):
        sub = [o for o in outcomes if o.spec.kind == kind]
        acc = sum(1 for o in sub
                  if o.adaptive_song >= 0 and o.adaptive_score > THETA_ABS)
        return acc / len(sub)

    noise_rate = accept_rate("noise")
    holdout_rate = accept_rate("holdout")
    elapsed = desk["elapsed_s"]
    ok = (best_recall >= 0.85 and noise_rate <= 0.01 and holdout_rate <= 0.01
          and elapsed < 600.0)
    _report(8, "100 songs / 1000 queries: recall >= 0.85 at precision >= 0.95", ok,
            f"recall={best_recall:.3f}, noise accepts={100 * noise_rate:.1f}%, "
            f"holdout accepts={100 * holdout_rate:.1f}%, {elapsed:.0f} s")


# --------------------------------------------------------------------- 9

def test_acceptance_09_dimension_ordering(dim_sweep):
    results = dim_sweep["results"]
    rows = {d: pr_rows(o, "adaptive") for d, o in results.items()}
    target = min(max(r["recall"] for r in rows[d]) for d in rows)
    p = {d: precision_at_recall(rows[d], target) for d in rows}
    elapsed = dim_sweep["elapsed_s"]
    ok = (p[96] >= p[64] and p[128] >= p[96] - 0.02 and elapsed < 1200.0)
    _report(9, "precision at matched recall: d=96 >= d=64, d=128 >= d=96 - 0.02", ok,
            f"recall={target:.2f}: p64={p[64]:.3f}, p96={p[96]:.3f}, "
            f"p128={p[128]:.3f}, {elapsed:.0f} s")


# -------------------------------------------------------------------- 10

def test_acceptance_10_adaptive_beats_naive(desk):
    outcomes = desk["outcomes"]
    adaptive = pr_rows(outcomes, "adaptive")
    naive = pr_rows(outcomes, "naive")
    # matched recall levels: reachable by both scorers (and >= 0.5)
    reachable = min(max(r["recall"] for r in adaptive),
                    max(r["recall"] for r in naive))
    levels = sorted({r["recall"] for r in naive if 0.5 <= r["recall"] <= reachable})
    ok = bool(levels)
    worst_gap = 0.0
    for lvl in levels:
        pa = precision_at_recall(adaptive, lvl)
        pn = precision_at_recall(naive, lvl)
        worst_gap = min(worst_gap, pa - pn)
        ok &= pa >= pn
    _report(10, "adaptive scoring >= naive L2 at every matched recall >= 0.5", ok,
            f"{len(levels)} recall levels, worst precision gap {worst_gap:+.3f}")


# -------------------------------------------------------------------- 11

def test_acceptance_11_gate_behavior(ambient_hour):
    regions = ambient_hour["regions"]
    probs, topo = ambient_hour["probs"], ambient_hour["detector"].topology
    gate = GateConfig()
    metrics = gate_region_metrics(probs, topo, regions, gate, ambient_hour["length_s"])
    loud_hit = all(hit for reg, hit in zip(regions, metrics["region_hits"])
                   if reg.snr_db >= 10.0)

    silence = np.zeros(600 * 16000, dtype=np.float32)
    sil_preds = batch_predictions(log_mel_frames(to_pcm(silence)),
                                  ambient_hour["detector"])
    sil_events = smooth_and_gate([p for _, p in sil_preds], gate, topo)

    rows = detector_sweep(probs, topo, regions, gate, ambient_hour["length_s"])
    recalls = [r["recall"] for r in rows]
    fps = [r["fp_per_hour"] for r in rows]
    monotone = (all(a >= b for a, b in zip(recalls, recalls[1:]))
                and all(a >= b for a, b in zip(fps, fps[1:])))
    elapsed = ambient_hour["elapsed_s"]
    ok = loud_hit and len(sil_events) == 0 and monotone and elapsed < 600.0
    _report(11, "1 h ambient: SNR>=10 dB regions wake, silence doesn't, curves monotone",
            ok, f"loud regions hit={loud_hit}, silence wakeups={len(sil_events)}, "
                f"monotone={monotone}, {elapsed:.0f} s")


# -------------------------------------------------------------------- 12

def test_acceptance_12_persistence():
    rng = np.random.default_rng(12)
    entries = []
    for s in range(10):
        fps = rng.standard_normal((40, 16)).astype(np.float32)
        fps /= np.linalg.norm(fps, axis=1, keepdims=True)
        entries.append((SongRecord(song_id=s, title=f"song {s}", artist="a",
                                   duration_s=40.0), fps))
    all_fps = np.concatenate([f for _, f in entries])
    part = train_partitioner(all_fps, 6, seed=0)
    cb, _ = train_pq(all_fps - part.centroids[part.assign(all_fps)], m=2, seed=0)
    db = build_database(entries, part, cb)
    blob = serialize(db)

    out = load_db(blob)
    round_trip = (np.array_equal(out.index.codes, db.index.codes)
                  and np.array_equal(out.radii, db.radii)
                  and out.spans == db.spans
                  and [s.title for s in out.songs] == [s.title for s in db.songs])
    deterministic = serialize(store_mod.load_db(blob)) == blob

    corrupt_ok = True
    for pos in rng.choice(len(blob), size=60, replace=False):
        bad = bytearray(blob)
        bad[pos] ^= 0xFF
        try:
            load_db(bytes(bad))
            corrupt_ok = False
        except DbError:
            pass
    ok = round_trip and deterministic and corrupt_ok
    _report(12, "NPDB round-trips, serializes deterministically, detects corruption",
            ok, f"round_trip={round_trip}, deterministic={deterministic}, "
                f"corruption_detected={corrupt_ok}")
