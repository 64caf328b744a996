"""Music detector: topology, forward/streaming equivalence, gate, quantization,
training."""

import numpy as np
import pytest
from detector_helper import detector_forward, training_loss
from hypothesis import given, settings
from hypothesis import strategies as st

from tunescout import nnops, weights_io
from tunescout.detector import (
    DetectorTopology,
    DetectorTrainConfig,
    DetectorWeights,
    GateConfig,
    StreamingDetector,
    batch_predictions,
    fold_batchnorm,
    init_weights,
    smooth_and_gate,
    streaming_predictions,
    train_detector,
)
from tunescout.weights_io import quantize_tensor

TOPO = DetectorTopology()
SMALL = DetectorTopology(input_frames=22, channels=4, n_layers=2, dense_hidden=3)


def _moved_batchnorm(w, rng):
    """Batch-norm mean, var, gamma and beta all moved away from identity."""
    topo = w.topology
    for i in range(topo.n_layers):
        w.tensors[f"conv{i}_bn_mean"] = rng.normal(0, 0.2, topo.channels).astype(np.float32)
        w.tensors[f"conv{i}_bn_var"] = rng.uniform(0.3, 2.0, topo.channels).astype(np.float32)
        w.tensors[f"conv{i}_bn_gamma"] = rng.uniform(0.5, 1.5, topo.channels).astype(np.float32)
        w.tensors[f"conv{i}_bn_beta"] = rng.normal(0, 0.2, topo.channels).astype(np.float32)
    return w


# ---------------------------------------------------------------- topology

def test_layer_length_chain_matches_tabulated_sizes():
    assert TOPO.layer_lengths() == [446, 222, 110, 54, 26, 12, 5]
    assert TOPO.flat_size == 160
    assert TOPO.cadence_frames == 64
    assert [TOPO.emission_frame(j) for j in range(3)] == [446, 510, 574]
    assert DetectorTopology().cadence_s == 0.64


def test_parameter_count_arithmetic():
    # one separable conv layer: depthwise 4*32 + pointwise 32*32 + bias 32
    assert 4 * 32 + 32 * 32 + 32 == 1184
    no_bn = DetectorTopology(batch_norm=False)
    assert no_bn.parameter_count() == 6 * 1184 + (160 * 8 + 8) + (8 * 1 + 1)
    assert no_bn.parameter_count() == 8401
    assert 8000 <= TOPO.parameter_count() <= 9000


def test_parameter_count_is_topological():
    # independent of weight values: count actual trainable tensor elements
    w = init_weights(TOPO, seed=0)
    n = sum(w.tensors[name].size for name in w.tensors
            if not name.endswith(("_bn_mean", "_bn_var")))
    assert n == TOPO.parameter_count()


# ----------------------------------------------------------------- forward

def test_forward_zero_network_outputs_half():
    w = init_weights(SMALL, seed=0)
    for name in w.tensors:
        if not name.endswith("_bn_var"):
            w.tensors[name] = np.zeros_like(w.tensors[name])
    out = detector_forward(np.random.default_rng(0).standard_normal((22, 4)), w)
    assert out == pytest.approx(0.5)


def test_forward_validates_input():
    w = init_weights(SMALL)
    with pytest.raises(ValueError):
        detector_forward(np.zeros((21, 4)), w)
    bad = np.zeros((22, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        detector_forward(bad, w)
    with pytest.raises(ValueError):
        StreamingDetector(w).push(np.zeros((22, 3)))


def _oracle_forward(window, w):
    """Independent direct-convolution reference (explicit loops, no batching)."""
    topo = w.topology
    t = w.tensors
    h = np.asarray(window, dtype=np.float64)
    for i in range(topo.n_layers):
        k, s = topo.kernel, topo.stride
        l_out = (h.shape[0] - k) // s + 1
        z = np.zeros((l_out, topo.channels))
        for o in range(l_out):
            for j in range(k):
                z[o] += h[o * s + j] * t[f"conv{i}_dw"][j]
        z = z @ t[f"conv{i}_pw"] + t[f"conv{i}_b"]
        if topo.batch_norm:
            inv = 1.0 / np.sqrt(t[f"conv{i}_bn_var"] + nnops.BN_EPS)
            z = t[f"conv{i}_bn_gamma"] * (z - t[f"conv{i}_bn_mean"]) * inv + t[f"conv{i}_bn_beta"]
        h = np.maximum(z, 0.0)
    flat = h.reshape(-1)
    a1 = np.maximum(flat @ t["fc1_w"] + t["fc1_b"], 0.0)
    logit = float(a1 @ t["fc2_w"][:, 0] + t["fc2_b"][0])
    return 1.0 / (1.0 + np.exp(-logit))


def test_forward_matches_direct_convolution_oracle():
    rng = np.random.default_rng(7)
    w = init_weights(TOPO, seed=7)
    # perturb BN stats so folding is non-trivial
    for i in range(TOPO.n_layers):
        w.tensors[f"conv{i}_bn_mean"] = rng.normal(0, 0.1, TOPO.channels).astype(np.float32)
        w.tensors[f"conv{i}_bn_var"] = rng.uniform(0.5, 2.0, TOPO.channels).astype(np.float32)
    window = rng.standard_normal((446, 32)).astype(np.float32)
    assert detector_forward(window, w) == pytest.approx(_oracle_forward(window, w), abs=1e-5)


# --------------------------------------------------------------- streaming

def test_streaming_priming_and_cadence():
    w = init_weights(TOPO, seed=1)
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((446 + 128, 32)).astype(np.float32)
    det = StreamingDetector(w)
    outs = [det.push(frames[i : i + 1]) for i in range(len(frames))]
    emitted = [i for i, p in enumerate(outs) if len(p)]
    assert emitted == [445, 445 + 64, 445 + 128]  # frames 446, 510, 574
    assert all(len(outs[i]) == 1 for i in emitted)


def test_streaming_no_output_before_priming():
    w = init_weights(TOPO, seed=1)
    det = StreamingDetector(w)
    for f in np.zeros((445, 32), dtype=np.float32):
        assert det.push(f[None]).size == 0


def test_streaming_equals_batch():
    w = init_weights(TOPO, seed=2)
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((900, 32)).astype(np.float32)
    s = streaming_predictions(frames, w)
    b = batch_predictions(frames, w)
    assert [e for e, _ in s] == [e for e, _ in b]
    assert max(abs(ps - pb) for (_, ps), (_, pb) in zip(s, b)) <= 1e-5


@pytest.mark.parametrize("form", ["moved_bn", "quantized"])
def test_streaming_equals_batch_on_moved_bn_and_quantized_weights(form):
    rng = np.random.default_rng(10)
    w = _moved_batchnorm(init_weights(TOPO, seed=10), rng)
    if form == "quantized":
        w = weights_io.load_detector(weights_io.save_detector(fold_batchnorm(w), quantize=True))
        assert not w.topology.batch_norm
    frames = rng.standard_normal((1100, 32)).astype(np.float32)
    s = streaming_predictions(frames, w)
    b = batch_predictions(frames, w)
    assert [e for e, _ in s] == [e for e, _ in b]
    assert max(abs(ps - pb) for (_, ps), (_, pb) in zip(s, b)) <= 1e-5


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 1200),
       sizes=st.lists(st.one_of(st.just(0), st.just(1), st.integers(0, 130)), min_size=1, max_size=8))
def test_any_blocking_matches_one_push(seed, n, sizes):
    rng = np.random.default_rng(seed)
    w = _moved_batchnorm(init_weights(TOPO, seed=seed % 1000), rng)
    frames = rng.standard_normal((n, 32)).astype(np.float32)
    whole = StreamingDetector(w).push(frames)
    emissions = [TOPO.input_frames + j * TOPO.cadence_frames for j in range(len(whole))]
    assert [e for e, _ in streaming_predictions(frames, w)] == emissions
    # block sizes repeat in the drawn pattern until every frame is pushed
    pattern = sizes if any(sizes) else sizes + [n]
    det = StreamingDetector(w)
    outs, start, step = [], 0, 0
    while start < n or step < len(pattern):
        stop = min(n, start + pattern[step % len(pattern)])
        p = det.push(frames[start:stop])
        # each block emits exactly the predictions whose frame count it reaches
        assert len(p) == sum(start < e <= stop for e in emissions)
        outs.append(p)
        start, step = stop, step + 1
    blocked = np.concatenate(outs)
    assert blocked.shape == whole.shape
    assert np.abs(blocked - whole).max(initial=0.0) <= 1e-6


def test_streaming_leaves_weights_untouched():
    w = _moved_batchnorm(init_weights(TOPO, seed=11), np.random.default_rng(11))
    before = {k: v.copy() for k, v in w.tensors.items()}
    frames = np.random.default_rng(11).standard_normal((700, 32)).astype(np.float32)
    streaming_predictions(frames, w)
    assert w.topology.batch_norm
    assert w.tensors.keys() == before.keys()
    for k, v in before.items():
        assert w.tensors[k].dtype == v.dtype and w.tensors[k].tobytes() == v.tobytes()


def test_emission_count_formula():
    w = init_weights(TOPO, seed=3)
    for n in (445, 446, 509, 510, 800):
        frames = np.zeros((n, 32), dtype=np.float32)
        expect = max(0, (n - 446) // 64 + 1)
        assert len(batch_predictions(frames, w)) == expect
        assert len(streaming_predictions(frames, w)) == expect


# -------------------------------------------------------------------- gate

def _gcfg(**kw):
    # smoothing window of one prediction so inputs are used as-is
    base = dict(threshold=0.5, consecutive=3, smoothing_window_s=0.64,
                refractory_s=60.0)
    base.update(kw)
    return GateConfig(**base)


def test_gate_fires_on_cth_consecutive():
    events = smooth_and_gate([0.9, 0.9, 0.9], _gcfg(), TOPO)
    assert len(events) == 1 and events[0].index == 2


def test_gate_run_resets_below_threshold():
    events = smooth_and_gate([0.9, 0.4, 0.9, 0.9, 0.9], _gcfg(), TOPO)
    assert len(events) == 1 and events[0].index == 4


def test_gate_refractory_arithmetic():
    # 60 s of 0.9s at 0.64 s cadence with 30 s refractory -> exactly 2 events
    n = int(60 / 0.64)
    events = smooth_and_gate([0.9] * n, _gcfg(refractory_s=30.0), TOPO)
    assert len(events) == 2


def test_gate_smoothing_is_sliding_mean():
    cfg = _gcfg(smoothing_window_s=1.92, consecutive=1)  # window of 3
    events = smooth_and_gate([0.0, 0.0, 0.9, 0.9], cfg, TOPO)
    # means: 0, 0, 0.3, 0.6 -> first crossing at index 3
    assert [e.index for e in events] == [3]
    assert events[0].mean_confidence == pytest.approx(0.6)


def _gate_loop(preds, cfg, start_time_s, cadence_s=0.64):
    """The gate one prediction at a time, np.mean over a fresh slice each."""
    win = max(1, int(round(cfg.smoothing_window_s / cadence_s)))
    events, run, last_fire = [], 0, -np.inf
    for i in range(len(preds)):
        smoothed = float(np.mean(preds[max(0, i - win + 1) : i + 1]))
        run = run + 1 if smoothed > cfg.threshold else 0
        t = start_time_s + i * cadence_s
        if run >= cfg.consecutive and t - last_fire >= cfg.refractory_s:
            events.append((i, t, smoothed))
            last_fire = t
    return events


@pytest.mark.parametrize("window", [1, 2, 3, 4, 6, 11])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 700])
def test_gate_equals_per_prediction_loop(n, window):
    rng = np.random.default_rng(n * 100 + window)
    cfg = _gcfg(smoothing_window_s=0.64 * window, consecutive=2, refractory_s=3.0)
    # quarter steps put many window means exactly on the 0.5 threshold
    quarters = list(rng.integers(0, 5, n) / 4.0)
    for preds in (quarters, list(rng.uniform(0, 1, n)), [0.5] * n):
        got = smooth_and_gate(preds, cfg, DetectorTopology(input_frames=150))
        ref = _gate_loop(preds, cfg, start_time_s=1.5)
        assert [(e.index, e.time_s, e.mean_confidence) for e in got] == ref
    assert smooth_and_gate([0.5] * n, cfg, TOPO) == []  # at the threshold is not over it


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(threshold=0.0)
    with pytest.raises(ValueError):
        GateConfig(consecutive=0)
    for bad in ({"buffer_len_s": -8.0}, {"buffer_len_s": 0.0},
                {"smoothing_window_s": 0.0}, {"smoothing_window_s": -4.0},
                {"refractory_s": -1.0}):
        with pytest.raises(ValueError):
            GateConfig(**bad)
    GateConfig(refractory_s=0.0)  # no refractory period is a valid gate


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       t1=st.floats(0.1, 0.8), dt=st.floats(0.01, 0.19), dc=st.integers(0, 3))
def test_gate_monotone_in_threshold_and_consecutive(seed, t1, dt, dc):
    preds = np.random.default_rng(seed).uniform(0, 1, 60)
    lo = smooth_and_gate(preds, _gcfg(threshold=t1, refractory_s=5.0), TOPO)
    hi = smooth_and_gate(preds, _gcfg(threshold=t1 + dt, refractory_s=5.0), TOPO)
    assert len(hi) <= len(lo)
    more_c = smooth_and_gate(preds, _gcfg(threshold=t1, consecutive=3 + dc, refractory_s=5.0),
                             TOPO)
    assert len(more_c) <= len(lo)


# ------------------------------------------------------------ quantization

def test_quantize_zeros_round_trip():
    q, scale, zero = quantize_tensor(np.zeros(10, dtype=np.float32))
    assert np.all(q.astype(np.float32) * scale + zero == 0)


def test_quantize_unit_span_error_bound():
    x = np.linspace(-1, 1, 1001).astype(np.float32)
    q, scale, zero = quantize_tensor(x)
    err = np.abs(q.astype(np.float32) * scale + zero - x).max()
    assert err <= 2 / 255 + 1e-6


def test_quantize_degenerate_tensor_positive_scale():
    q, scale, zero = quantize_tensor(np.full(5, 3.25, dtype=np.float32))
    assert scale > 0
    assert np.allclose(q.astype(np.float32) * scale + zero, 3.25, atol=1e-5)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_quantize_round_trip_within_one_step(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, rng.uniform(0.01, 5), size=64).astype(np.float32)
    q, scale, zero = quantize_tensor(x)
    assert np.abs(q.astype(np.float32) * scale + zero - x).max() <= scale / 2 + 1e-6


def test_fold_batchnorm_preserves_outputs():
    rng = np.random.default_rng(4)
    w = _moved_batchnorm(init_weights(SMALL, seed=4), rng)
    folded = fold_batchnorm(w)
    assert not folded.topology.batch_norm
    window = rng.standard_normal((22, 4)).astype(np.float32)
    assert detector_forward(window, folded) == pytest.approx(detector_forward(window, w), abs=1e-5)


def test_streaming_detector_applies_the_written_out_fold():
    w = _moved_batchnorm(init_weights(TOPO, seed=5), np.random.default_rng(5))
    t = w.tensors
    layers = StreamingDetector(w)._layers
    for i, (dw, pw, b) in enumerate(layers):
        s = t[f"conv{i}_bn_gamma"] / np.sqrt(t[f"conv{i}_bn_var"] + np.float32(1e-5))
        ref_pw = t[f"conv{i}_pw"] * s
        ref_b = (t[f"conv{i}_b"] - t[f"conv{i}_bn_mean"]) * s + t[f"conv{i}_bn_beta"]
        assert dw.tobytes() == t[f"conv{i}_dw"].tobytes()
        assert pw.dtype == np.float32 and pw.tobytes() == ref_pw.tobytes()
        assert b.dtype == np.float32 and b.tobytes() == ref_b.tobytes()


def test_quantized_file_fits_budget():
    w = init_weights(TOPO, seed=0)
    blob = weights_io.save_detector(fold_batchnorm(w), quantize=True)
    assert len(blob) < 10 * 1024


# ---------------------------------------------------------------- training

def test_train_rejects_bad_corpus():
    with pytest.raises(ValueError):
        train_detector([], [], SMALL)
    short = [np.zeros((10, 4), dtype=np.float32)]
    with pytest.raises(ValueError):
        train_detector(short, [0], SMALL)


def test_single_example_overfit():
    rng = np.random.default_rng(5)
    music = rng.standard_normal((30, 4)).astype(np.float32) + 2.0
    noise = rng.standard_normal((30, 4)).astype(np.float32) - 2.0
    w = train_detector([music, noise], [1, 0], SMALL,
                       DetectorTrainConfig(steps=500, batch_size=2, seed=0, lr=1e-2))
    batch = np.stack([music[:22], noise[:22]])
    loss, _ = training_loss(w, batch, np.array([1.0, 0.0]), train=False)
    assert loss < 0.01


def test_training_deterministic_given_seed():
    rng = np.random.default_rng(6)
    clips = [rng.standard_normal((30, 4)).astype(np.float32) for _ in range(4)]
    labels = [0, 1, 0, 1]
    a = train_detector(clips, labels, SMALL, DetectorTrainConfig(steps=20, seed=9))
    b = train_detector(clips, labels, SMALL, DetectorTrainConfig(steps=20, seed=9))
    assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


def test_gradients_match_finite_differences():
    topo = DetectorTopology(input_frames=22, channels=3, n_layers=2, dense_hidden=2)
    rng = np.random.default_rng(8)
    w = init_weights(topo, seed=8)
    for name in w.tensors:
        w.tensors[name] = w.tensors[name].astype(np.float64)
        if name.endswith(("_b", "_bn_beta")):
            w.tensors[name] += rng.normal(0, 0.1, w.tensors[name].shape)
    batch = rng.standard_normal((3, 22, 3))
    labels = np.array([1.0, 0.0, 1.0])
    # eval-mode BN so the loss is a deterministic function of the parameters
    _, grads = training_loss(w, batch, labels, train=False)
    eps = 1e-6
    worst = 0.0
    for name, g in grads.items():
        x = w.tensors[name]
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = x[ix]
            x[ix] = orig + eps
            lp, _ = training_loss(w, batch, labels, train=False)
            x[ix] = orig - eps
            lm, _ = training_loss(w, batch, labels, train=False)
            x[ix] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[ix]), 1e-8)
            worst = max(worst, abs(fd - g[ix]) / denom)
    assert worst <= 1e-3


def _mean_logmel_logreg_accuracy(feats, labels, train_n):
    """Logistic-regression oracle on clip-mean log-Mel features."""
    x = np.stack([f.mean(axis=0) for f in feats])
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-6)
    y = np.asarray(labels, dtype=np.float64)
    wvec = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(500):
        z = x[:train_n] @ wvec + b
        p = 1 / (1 + np.exp(-z))
        g = p - y[:train_n]
        wvec -= 0.5 * (x[:train_n].T @ g) / train_n
        b -= 0.5 * g.mean()
    pred = (x[train_n:] @ wvec + b) > 0
    return (pred == (y[train_n:] > 0.5)).mean()


def test_training_beats_logistic_regression_oracle(trained_detector):
    w, feats, labels, train_n = trained_detector
    oracle_acc = _mean_logmel_logreg_accuracy(feats, labels, train_n)
    preds = [detector_forward(f[:446], w) > 0.5 for f in feats[train_n:]]
    cnn_acc = float(np.mean([p == (l == 1) for p, l in zip(preds, labels[train_n:])]))
    assert oracle_acc >= 0.9  # the corpus is separable in band-energy stats
    assert cnn_acc >= max(0.95, oracle_acc - 0.02)
