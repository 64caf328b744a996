"""Gatekeeper music detector.

A 6-layer separable-conv network scores music presence over a 446-frame
log-Mel window. With kernel 4 and stride 2 every conv layer consumes 2 new
input vectors per output vector, so a streaming evaluation emits a new
probability every 2^6 = 64 frames (640 ms). A smoothing/threshold gate
turns the probability stream into wake-up events.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nnops
from .frontend import HOP_S
from .nnops import (
    Adam,
    batchnorm,
    batchnorm_bwd,
    bce_with_logits,
    dense,
    dense_bwd,
    dwconv1d,
    dwconv1d_bwd,
    relu,
    relu_bwd,
    sigmoid,
)
from .weights_io import dequantize_tensor, quantize_tensor


@dataclass(frozen=True)
class DetectorTopology:
    input_frames: int = 446
    channels: int = 32
    kernel: int = 4
    stride: int = 2
    n_layers: int = 6
    dense_hidden: int = 8
    batch_norm: bool = True

    def layer_lengths(self) -> list[int]:
        """Input length of each conv layer plus the flattened length."""
        lengths = [self.input_frames]
        for _ in range(self.n_layers):
            lengths.append((lengths[-1] - self.kernel) // self.stride + 1)
        return lengths

    @property
    def flat_size(self) -> int:
        return self.layer_lengths()[-1] * self.channels

    @property
    def cadence_frames(self) -> int:
        return self.stride**self.n_layers

    @property
    def cadence_s(self) -> float:
        """Seconds between streaming predictions."""
        return self.cadence_frames * HOP_S

    def parameter_count(self) -> int:
        """Trainable weights: all but the batch-norm running statistics."""
        return sum(math.prod(shape) for name, shape in tensor_shapes(self).items()
                   if not name.endswith(("_bn_mean", "_bn_var")))


@dataclass
class DetectorWeights:
    topology: DetectorTopology
    tensors: dict[str, np.ndarray]
    quantized: bool = False


def tensor_shapes(topo: DetectorTopology) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight tensor, in initialization order."""
    c, h = topo.channels, topo.dense_hidden
    shapes = {}
    for i in range(topo.n_layers):
        shapes |= {f"conv{i}_dw": (topo.kernel, c), f"conv{i}_pw": (c, c), f"conv{i}_b": (c,)}
        if topo.batch_norm:
            shapes |= {f"conv{i}_bn_{k}": (c,) for k in ("gamma", "beta", "mean", "var")}
    return shapes | {"fc1_w": (topo.flat_size, h), "fc1_b": (h,), "fc2_w": (h, 1), "fc2_b": (1,)}


def init_weights(topo: DetectorTopology, seed: int = 0) -> DetectorWeights:
    rng = np.random.default_rng(seed)
    return DetectorWeights(topology=topo, tensors={
        name: nnops.init_tensor(rng, name, shape, 2.0) for name, shape in tensor_shapes(topo).items()})


def forward_batch(x: np.ndarray, w: DetectorWeights, train: bool = False):
    """Logits for a batch of windows. x: (B, input_frames, channels).

    Returns (logits (B,), cache). In train mode batch-norm uses batch
    statistics and updates the running stats in place.
    """
    topo = w.topology
    t = w.tensors
    cache = {"x": []}
    h = x
    for i in range(topo.n_layers):
        xin = h
        z = dwconv1d(xin, t[f"conv{i}_dw"], topo.stride)
        zp = dense(z, t[f"conv{i}_pw"], t[f"conv{i}_b"])
        if topo.batch_norm:
            y, bn_cache, rm, rv = batchnorm(
                zp, t[f"conv{i}_bn_gamma"], t[f"conv{i}_bn_beta"],
                t[f"conv{i}_bn_mean"], t[f"conv{i}_bn_var"], train,
            )
            if train:
                t[f"conv{i}_bn_mean"] = rm.astype(t[f"conv{i}_bn_mean"].dtype)
                t[f"conv{i}_bn_var"] = rv.astype(t[f"conv{i}_bn_var"].dtype)
        else:
            y, bn_cache = zp, None
        h = relu(y)
        cache["x"].append((xin, z, bn_cache, y))
    flat = h.reshape(h.shape[0], -1)
    h1 = dense(flat, t["fc1_w"], t["fc1_b"])
    a1 = relu(h1)
    logits = dense(a1, t["fc2_w"], t["fc2_b"])[:, 0]
    cache.update(flat=flat, h1=h1, a1=a1)
    return logits, cache


def backward_batch(dlogits: np.ndarray, w: DetectorWeights, cache) -> dict[str, np.ndarray]:
    topo = w.topology
    t = w.tensors
    grads: dict[str, np.ndarray] = {}
    dy = dlogits[:, None]
    da1, grads["fc2_w"], grads["fc2_b"] = dense_bwd(cache["a1"], t["fc2_w"], dy)
    dh1 = relu_bwd(cache["h1"], da1)
    dflat, grads["fc1_w"], grads["fc1_b"] = dense_bwd(cache["flat"], t["fc1_w"], dh1)
    dh = dflat.reshape(cache["flat"].shape[0], -1, topo.channels)
    for i in reversed(range(topo.n_layers)):
        xin, z, bn_cache, y = cache["x"][i]
        dyy = relu_bwd(y, dh)
        if topo.batch_norm:
            dzp, grads[f"conv{i}_bn_gamma"], grads[f"conv{i}_bn_beta"] = batchnorm_bwd(
                dyy, t[f"conv{i}_bn_gamma"], bn_cache
            )
        else:
            dzp = dyy
        dz, grads[f"conv{i}_pw"], grads[f"conv{i}_b"] = dense_bwd(z, t[f"conv{i}_pw"], dzp)
        dh, grads[f"conv{i}_dw"] = dwconv1d_bwd(xin, t[f"conv{i}_dw"], dz, topo.stride)
    return grads


# ------------------------------------------------------------- streaming

class StreamingDetector:
    """Incremental evaluation: push a block of frames per call.

    Each conv layer carries the inputs it has not consumed yet (fewer than
    `kernel`) and, per block, computes every window the carry plus the new
    inputs complete. The head carries the last top_len - 1 top-layer
    outputs and scores every full window of them. Batch norm is folded into
    the pointwise weights once, here.
    """

    def __init__(self, weights: DetectorWeights):
        self.topology = weights.topology
        t = fold_batchnorm(weights).tensors
        self._layers = [(t[f"conv{i}_dw"], t[f"conv{i}_pw"], t[f"conv{i}_b"])
                        for i in range(self.topology.n_layers)]
        self._head = (t["fc1_w"], t["fc1_b"], t["fc2_w"], t["fc2_b"])
        self._top_len = self.topology.layer_lengths()[-1]
        empty = np.zeros((0, self.topology.channels), dtype=np.float32)
        self._carry = [empty] * self.topology.n_layers
        self._top = empty

    def push(self, frames: np.ndarray) -> np.ndarray:
        """Probabilities emitted inside this (n, channels) block, in order."""
        topo = self.topology
        h = np.asarray(frames, dtype=np.float32)
        if h.ndim != 2 or h.shape[1] != topo.channels:
            raise ValueError(f"expected frames of shape (n, {topo.channels}), got {h.shape}")
        k, s = topo.kernel, topo.stride
        for i, (dw, pw, b) in enumerate(self._layers):
            x = np.concatenate([self._carry[i], h])
            m = max(0, (x.shape[0] - k) // s + 1)
            z = x[: s * m : s] * dw[0]
            for j in range(1, k):
                z += x[j : j + s * m : s] * dw[j]
            h = relu(z @ pw + b)
            # copies, so that the carries do not keep this block's arrays alive
            self._carry[i] = x[m * s :].copy()
        top = np.concatenate([self._top, h])
        self._top = top[max(0, top.shape[0] - self._top_len + 1) :].copy()
        if top.shape[0] < self._top_len:
            return np.zeros(0, dtype=np.float32)
        # row j is top outputs j .. j + top_len - 1, flattened like forward_batch's
        windows = sliding_window_view(top.reshape(-1), self._top_len * topo.channels)[:: topo.channels]
        fc1_w, fc1_b, fc2_w, fc2_b = self._head
        a1 = relu(windows @ fc1_w + fc1_b)
        return sigmoid((a1 @ fc2_w + fc2_b)[:, 0])


def streaming_predictions(frames: np.ndarray, w: DetectorWeights) -> list[tuple[int, float]]:
    """Run the streaming detector over a frame sequence in one push.

    Returns (frame_count_at_emission, probability) pairs; emissions occur at
    frame counts input_frames + cadence*k.
    """
    topo = w.topology
    probs = StreamingDetector(w).push(frames)
    return [(topo.input_frames + j * topo.cadence_frames, float(p)) for j, p in enumerate(probs)]


def batch_predictions(frames: np.ndarray, w: DetectorWeights) -> list[tuple[int, float]]:
    """Batch equivalent of streaming_predictions: evaluate every trailing
    window at the streaming cadence in one forward pass."""
    topo = w.topology
    n = frames.shape[0]
    ends = range(topo.input_frames, n + 1, topo.cadence_frames)
    windows = np.stack([frames[e - topo.input_frames : e] for e in ends]) if n >= topo.input_frames else None
    if windows is None:
        return []
    logits, _ = forward_batch(windows.astype(np.float32), w, train=False)
    return [(e, float(p)) for e, p in zip(ends, sigmoid(logits))]


# ------------------------------------------------------------------ gate

@dataclass(frozen=True)
class GateConfig:
    threshold: float = 0.5
    consecutive: int = 3
    smoothing_window_s: float = 4.0
    refractory_s: float = 60.0
    buffer_len_s: float = 8.0

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        if self.smoothing_window_s <= 0:
            raise ValueError("smoothing_window_s must be > 0")
        if self.refractory_s < 0:
            raise ValueError("refractory_s must be >= 0")
        if self.buffer_len_s <= 0:
            raise ValueError("buffer_len_s must be > 0")


@dataclass
class GateEvent:
    index: int  # prediction index the event fired on
    time_s: float
    mean_confidence: float


def smooth_and_gate(predictions, cfg: GateConfig, start_time_s: float = 0.0,
                    cadence_s: float = DetectorTopology().cadence_s) -> list[GateEvent]:
    """Sliding-mean smoothing plus c-consecutive-over-threshold triggering.

    Prediction i is timestamped start_time_s + i*cadence_s, cadence_s being
    the prediction interval of the detector that made them. After an event
    the gate is suppressed for refractory_s (measured fire to fire).

    Smoothed value i is the mean of predictions max(0, i - win + 1) .. i,
    all computed in one pass: prefix sums for the first win - 1, window
    sums for the rest.
    """
    win = max(1, int(round(cfg.smoothing_window_s / cadence_s)))
    p = np.asarray(list(predictions), dtype=np.float64)
    n = len(p)
    smoothed = np.empty(n)
    head = min(win - 1, n)
    smoothed[:head] = np.cumsum(p[:head]) / np.arange(1, head + 1)
    if n >= win:
        smoothed[win - 1 :] = sliding_window_view(p, win).sum(axis=1) / win
    # length of the over-threshold run ending at each prediction
    steps = np.arange(n)
    run = steps - np.maximum.accumulate(np.where(smoothed > cfg.threshold, -1, steps))
    events: list[GateEvent] = []
    last_fire = -math.inf
    for i in np.flatnonzero(run >= cfg.consecutive).tolist():
        t = start_time_s + i * cadence_s
        if t - last_fire >= cfg.refractory_s:
            events.append(GateEvent(index=i, time_s=t, mean_confidence=float(smoothed[i])))
            last_fire = t
    return events


# ---------------------------------------------------------- quantization

def fold_batchnorm(w: DetectorWeights) -> DetectorWeights:
    """Fold batch-norm scale/shift/stats into the pointwise weights and bias."""
    topo = w.topology
    if not topo.batch_norm:
        return w
    t = dict(w.tensors)
    for i in range(topo.n_layers):
        bn = [t.pop(f"conv{i}_bn_{k}") for k in ("gamma", "beta", "mean", "var")]
        t[f"conv{i}_pw"], t[f"conv{i}_b"] = nnops.fold_bn(
            t[f"conv{i}_pw"], t[f"conv{i}_b"], *bn)
    return DetectorWeights(topology=replace(topo, batch_norm=False), tensors=t)


def quantize_weights(w: DetectorWeights) -> DetectorWeights:
    """8-bit weights, dequantized back to float for inference.

    Round-trip error is within one quantization step per element. Batch norm
    is folded first so the stored model matches the deployment layout.
    """
    src = fold_batchnorm(w)
    t = {}
    for name, x in src.tensors.items():
        q, scale, zero = quantize_tensor(x)
        t[name] = dequantize_tensor(q, scale, zero).reshape(x.shape)
    return DetectorWeights(topology=src.topology, tensors=t, quantized=True)


# -------------------------------------------------------------- training

@dataclass
class DetectorTrainConfig:
    steps: int = 400
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0


def train_detector(clips, labels, topo: DetectorTopology | None = None,
                   hyper: DetectorTrainConfig | None = None) -> DetectorWeights:
    """Train on labeled log-Mel clips (each >= input_frames long).

    Every step takes a random input_frames sub-clip of each sampled clip,
    minimizing binary cross-entropy with Adam. Deterministic given the seed.
    """
    topo = topo or DetectorTopology()
    hyper = hyper or DetectorTrainConfig()
    if len(clips) == 0:
        raise ValueError("empty training corpus")
    for c in clips:
        if c.shape[0] < topo.input_frames:
            raise ValueError(f"clip of {c.shape[0]} frames shorter than {topo.input_frames}")
    labels = np.asarray(labels, dtype=np.float32)
    rng = np.random.default_rng(hyper.seed)
    w = init_weights(topo, seed=hyper.seed)
    opt = Adam(lr=hyper.lr)
    n = len(clips)
    for _ in range(hyper.steps):
        idx = rng.integers(0, n, size=min(hyper.batch_size, n))
        batch = np.empty((len(idx), topo.input_frames, topo.channels), dtype=np.float32)
        for row, j in enumerate(idx):
            clip = clips[j]
            start = rng.integers(0, clip.shape[0] - topo.input_frames + 1)
            batch[row] = clip[start : start + topo.input_frames]
        logits, cache = forward_batch(batch, w, train=True)
        _, dlogits = bce_with_logits(logits, labels[idx])
        grads = backward_batch(dlogits, w, cache)
        opt.step(w.tensors, grads)
    return w
