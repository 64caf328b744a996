"""Neural fingerprinter: one unit-norm d-dimensional embedding per second.

A 4-layer strided conv stack over a 96x32 log-Mel window feeds a two-level
divide-and-encode head: the flattened features are split into independent
branches, each mapped through its own small dense pair, concatenated to d
values and L2-normalized.
"""

from dataclasses import dataclass

import numpy as np

from .frontend import MEL_BINS
from .nnops import (
    Adam,
    BN_TENSORS,
    batchnorm,
    batchnorm_bwd,
    conv2d,
    conv2d_bwd,
    elu,
    elu_bwd,
    elu_inplace,
    fold_bn,
    init_tensor,
    l2_normalize,
    l2_normalize_bwd,
)

_BATCH_WINDOWS = 256  # windows per forward pass in fingerprint_stream
TRIPLET_MARGIN = 0.4  # in squared distance: how much farther a negative must be than the positive
POS_TOLERANCE_MS = 300.0  # same-song windows whose starts differ by less are positives
NEG_SEPARATION_MS = 2000.0  # same-song windows whose starts differ by this much are negatives


@dataclass(frozen=True)
class EmbedderTopology:
    frames: int = 96
    mel_bins: int = MEL_BINS
    conv_channels: tuple = (32, 64, 64, 128)
    kernel: int = 3
    stride: int = 2
    branches: int = 8
    branch_hidden: int = 32
    dim: int = 96
    hop_frames: int = 100  # one fingerprint per second at a 10 ms hop

    def __post_init__(self):
        if self.dim % self.branches != 0:
            raise ValueError(f"dim {self.dim} not divisible by {self.branches} branches")

    def conv_shapes(self) -> list[tuple[int, int, int]]:
        h, w = self.frames, self.mel_bins
        shapes = []
        for c in self.conv_channels:
            h = -(-h // self.stride)
            w = -(-w // self.stride)
            shapes.append((h, w, c))
        return shapes

    @property
    def flat_size(self) -> int:
        h, w, c = self.conv_shapes()[-1]
        return h * w * c

    @property
    def branch_input(self) -> int:
        if self.flat_size % self.branches != 0:
            raise ValueError(
                f"flat feature size {self.flat_size} not divisible by {self.branches} branches"
            )
        return self.flat_size // self.branches


@dataclass
class EmbedderWeights:
    topology: EmbedderTopology
    tensors: dict[str, np.ndarray]


def tensor_shapes(topo: EmbedderTopology) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight tensor, in initialization order."""
    shapes = {}
    cin = 1
    for i, c in enumerate(topo.conv_channels):
        shapes |= {f"conv{i}_w": (topo.kernel, topo.kernel, cin, c), f"conv{i}_b": (c,)}
        shapes |= {f"conv{i}_bn_{k}": (c,) for k in BN_TENSORS}
        cin = c
    bi, bh, bo = topo.branch_input, topo.branch_hidden, topo.dim // topo.branches
    for j in range(topo.branches):
        shapes |= {f"br{j}_w1": (bi, bh), f"br{j}_b1": (bh,), f"br{j}_w2": (bh, bo), f"br{j}_b2": (bo,)}
    return shapes


def init_weights(topo: EmbedderTopology, seed: int = 0) -> EmbedderWeights:
    rng = np.random.default_rng(seed)
    # gain 1.5 ahead of an ELU; the branch output layer (w2) is linear
    return EmbedderWeights(topology=topo, tensors={
        name: init_tensor(rng, name, shape, 1.0 if name.endswith("_w2") else 1.5)
        for name, shape in tensor_shapes(topo).items()})


def _branches(x: np.ndarray, branches: int) -> np.ndarray:
    """(B, branches * n) -> a (branches, B, n) view: branch j's columns."""
    return x.reshape(len(x), branches, -1).transpose(1, 0, 2)


def _unbranch(x: np.ndarray) -> np.ndarray:
    """(branches, B, n) -> (B, branches * n), the inverse of _branches."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _stacked(w: EmbedderWeights, name: str) -> np.ndarray:
    return np.stack([w.tensors[f"br{j}_{name}"] for j in range(w.topology.branches)])


def divide_and_encode(features: np.ndarray, w: EmbedderWeights):
    """Two-level branch head over flattened features (B, flat) -> (B, dim).

    Branch j only ever sees slice j of the features, so perturbing another
    slice leaves its output bit-identical. All branches run as one batched
    matmul per dense layer over the stacked weights; each branch's product
    is the same BLAS call its own dense layer would make. Output is
    pre-normalization; the cache feeds divide_and_encode_bwd.
    """
    branches = w.topology.branches
    if features.shape[1] % branches != 0:
        raise ValueError(f"feature width {features.shape[1]} not divisible by {branches} branches")
    feats = _branches(features, branches)  # (branches, B, branch_input)
    hid = np.matmul(feats, _stacked(w, "w1"))
    hid += _stacked(w, "b1")[:, None]
    act = elu(hid)
    out = np.matmul(act, _stacked(w, "w2"))
    out += _stacked(w, "b2")[:, None]
    return _unbranch(out), (feats, hid, act)


def divide_and_encode_bwd(dout: np.ndarray, w: EmbedderWeights, cache):
    """Gradients of divide_and_encode: (d features, {br{j}_* : grad})."""
    feats, hid, act = cache
    dy = _branches(dout, w.topology.branches)
    dact = np.matmul(dy, _stacked(w, "w2").transpose(0, 2, 1))
    dw2 = np.matmul(act.transpose(0, 2, 1), dy)
    dhid = elu_bwd(hid, dact)
    dfeats = np.matmul(dhid, _stacked(w, "w1").transpose(0, 2, 1))
    dw1 = np.matmul(feats.transpose(0, 2, 1), dhid)
    grads: dict[str, np.ndarray] = {}
    for j, (g1, gb1, g2, gb2) in enumerate(zip(dw1, dhid.sum(axis=1), dw2, dy.sum(axis=1))):
        grads.update({f"br{j}_w1": g1, f"br{j}_b1": gb1, f"br{j}_w2": g2, f"br{j}_b2": gb2})
    return _unbranch(dfeats), grads


def standardize_windows(x: np.ndarray) -> np.ndarray:
    """Per-window mean/variance normalization of log-Mel input.

    A broadband gain change adds a constant to the log energies, so this
    makes fingerprints gain-invariant. Treated as data preprocessing, not a
    differentiated layer.
    """
    mu = x.mean(axis=(-2, -1), keepdims=True)
    sd = x.std(axis=(-2, -1), keepdims=True)
    return (x - mu) / (sd + 1e-3)


def forward_batch(x: np.ndarray, w: EmbedderWeights, train: bool = False):
    """Embeddings for a batch of windows. x: (B, frames, mel_bins) -> (B, dim) unit-norm."""
    topo = w.topology
    t = w.tensors
    h = standardize_windows(x)[..., None]
    conv_cache = []
    for i in range(len(topo.conv_channels)):
        xin = h
        z = conv2d(xin, t[f"conv{i}_w"], t[f"conv{i}_b"], topo.stride)
        y, bn_cache = batchnorm(z, t, f"conv{i}_bn_", train)
        h = elu(y)
        conv_cache.append((xin, z, bn_cache, y))
    flat = h.reshape(h.shape[0], -1)
    pre, de_cache = divide_and_encode(flat, w)
    out = l2_normalize(pre)
    cache = {"conv": conv_cache, "flat": flat, "pre": pre, "de": de_cache, "h_shape": h.shape}
    return out, cache


def backward_batch(dout: np.ndarray, w: EmbedderWeights, cache) -> dict[str, np.ndarray]:
    topo = w.topology
    t = w.tensors
    dpre = l2_normalize_bwd(cache["pre"], dout)
    dflat, grads = divide_and_encode_bwd(dpre, w, cache["de"])
    dh = dflat.reshape(cache["h_shape"])
    for i in reversed(range(len(topo.conv_channels))):
        xin, z, bn_cache, y = cache["conv"][i]
        dyy = elu_bwd(y, dh)
        dz, bn_grads = batchnorm_bwd(dyy, bn_cache)
        grads |= bn_grads
        dxin, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = conv2d_bwd(xin, t[f"conv{i}_w"], dz, topo.stride)
        dh = dxin
    return grads


def forward_inference(x: np.ndarray, w: EmbedderWeights) -> np.ndarray:
    """forward_batch(x, w, train=False) in its inference form: (B, frames, mel_bins) -> (B, dim).

    Each conv layer has its batch norm folded into its weights and bias and
    runs as one im2col product, and ELU runs in place; the branch head is
    forward_batch's. The conv sums run in another order, so the outputs agree
    with forward_batch to float32 rounding. The fold is redone per call and
    nothing is written to w.tensors, whose BN statistics training updates.
    """
    topo = w.topology
    t = w.tensors
    h = standardize_windows(x)[..., None]
    for i in range(len(topo.conv_channels)):
        wb = fold_bn(t[f"conv{i}_w"], t[f"conv{i}_b"], t, f"conv{i}_bn_")
        h = elu_inplace(conv2d(h, *wb, topo.stride, im2col=True))
    pre, _ = divide_and_encode(h.reshape(len(h), -1), w)
    return l2_normalize(pre)


def fingerprint_stream(frames: np.ndarray, w: EmbedderWeights,
                       starts: tuple[int, ...] = (0,)) -> np.ndarray:
    """(n, dim) fingerprints at a 1 s hop; window right-aligned at each emission.

    Emission count = floor((n_frames - start - window)/hop) + 1 per start
    frame; the fingerprints of each start follow those of the one before,
    all computed in the same batches.
    """
    topo = w.topology
    if frames.ndim != 2 or frames.shape[1] != topo.mel_bins:
        raise ValueError(f"expected (n, {topo.mel_bins}) frames, got {frames.shape}")
    n = frames.shape[0]
    if n - max(starts) < topo.frames:
        raise ValueError(f"{n - max(starts)} frames is shorter than one {topo.frames}-frame window")
    if not np.isfinite(frames).all():
        raise ValueError("frames contain non-finite values")
    ends = [e for s in starts for e in range(s + topo.frames, n + 1, topo.hop_frames)]
    out = np.empty((len(ends), topo.dim), dtype=np.float32)
    for s in range(0, len(ends), _BATCH_WINDOWS):
        chunk = np.stack([frames[e - topo.frames : e] for e in ends[s : s + _BATCH_WINDOWS]],
                         dtype=np.float32)
        out[s : s + len(chunk)] = forward_inference(chunk, w)
    return out


# ----------------------------------------------------------- triplet loss

def triplet_loss(a: np.ndarray, p: np.ndarray, n: np.ndarray, margin: float = TRIPLET_MARGIN):
    """max(0, ||a-p||^2 - ||a-n||^2 + margin), averaged over rows.

    Returns (loss, (da, dp, dn)).
    """
    a, p, n = np.atleast_2d(a), np.atleast_2d(p), np.atleast_2d(n)
    d_ap = ((a - p) ** 2).sum(axis=1)
    d_an = ((a - n) ** 2).sum(axis=1)
    viol = d_ap - d_an + margin
    active = (viol > 0).astype(a.dtype)
    loss = np.maximum(viol, 0.0).mean()
    scale = (active / len(a))[:, None]
    da = scale * 2.0 * (n - p)
    dp = scale * 2.0 * (p - a)
    dn = scale * 2.0 * (a - n)
    return float(loss), (da, dp, dn)


@dataclass
class TripletBatch:
    anchors: np.ndarray  # indices into the batch
    positives: np.ndarray
    negatives: np.ndarray


def mine_triplets(embeddings: np.ndarray, song_ids: np.ndarray, offsets_ms: np.ndarray,
                  pos_tolerance_ms: float = POS_TOLERANCE_MS,
                  margin: float = TRIPLET_MARGIN) -> TripletBatch:
    """Within-batch mining, every anchor at once.

    A positive pair must come from the same song with start offsets closer
    than pos_tolerance_ms; each anchor takes its hardest (farthest)
    positive. Negatives are other songs, or the same song NEG_SEPARATION_MS
    or more away; each anchor takes its nearest semi-hard one (farther than
    the positive but inside the margin) when there is one, else the hardest.
    Ties go to the lowest index. Anchors without a positive or a negative
    are left out.
    """
    song_ids = np.asarray(song_ids)
    offsets_ms = np.asarray(offsets_ms)
    d2 = ((embeddings[:, None, :] - embeddings[None, :, :]) ** 2).sum(axis=2)
    same_song = song_ids[:, None] == song_ids[None, :]
    apart = np.abs(offsets_ms[:, None] - offsets_ms[None, :])
    pos = same_song & (apart < pos_tolerance_ms)
    neg = ~same_song | (apart >= NEG_SEPARATION_MS)
    np.fill_diagonal(pos, False)
    np.fill_diagonal(neg, False)
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    if not len(anchors):
        raise ValueError("no valid positive pair in batch")
    d2, pos, neg = d2[anchors], pos[anchors], neg[anchors]
    positives = np.where(pos, d2, -np.inf).argmax(axis=1)
    d_ap = d2[np.arange(len(anchors)), positives][:, None]
    semi = neg & (d2 > d_ap) & (d2 < d_ap + margin)
    pick = np.where(semi.any(axis=1, keepdims=True), semi, neg)
    negatives = np.where(pick, d2, np.inf).argmin(axis=1)
    return TripletBatch(anchors, positives, negatives)


# -------------------------------------------------------------- training

@dataclass
class EmbedderTrainConfig:
    steps: int = 300
    songs_per_batch: int = 16
    views_per_song: int = 4
    lr: float = 1e-3
    seed: int = 0


def train_embedder(windows: np.ndarray, song_ids: np.ndarray, offsets_ms: np.ndarray,
                   topo: EmbedderTopology | None = None,
                   hyper: EmbedderTrainConfig | None = None) -> EmbedderWeights:
    """Triplet training on aligned windows.

    windows: (N, frames, mel_bins) log-Mel views; views of the same song
    whose offsets differ by less than POS_TOLERANCE_MS count as positives.
    Deterministic given the seed.
    """
    topo = topo or EmbedderTopology()
    hyper = hyper or EmbedderTrainConfig()
    if len(windows) == 0:
        raise ValueError("empty training corpus")
    song_ids = np.asarray(song_ids)
    offsets_ms = np.asarray(offsets_ms)
    rng = np.random.default_rng(hyper.seed)
    w = init_weights(topo, seed=hyper.seed)
    opt = Adam(lr=hyper.lr)
    uniq_songs = np.unique(song_ids)
    by_song = {s: np.nonzero(song_ids == s)[0] for s in uniq_songs}
    for _ in range(hyper.steps):
        chosen = rng.choice(uniq_songs, size=min(hyper.songs_per_batch, len(uniq_songs)), replace=False)
        idx = np.concatenate([
            rng.choice(by_song[s], size=min(hyper.views_per_song, len(by_song[s])), replace=False)
            for s in chosen
        ])
        batch = windows[idx].astype(np.float32)
        emb, cache = forward_batch(batch, w, train=True)
        try:
            trip = mine_triplets(emb, song_ids[idx], offsets_ms[idx])
        except ValueError:
            continue
        _, (da, dp, dn) = triplet_loss(emb[trip.anchors], emb[trip.positives],
                                       emb[trip.negatives])
        demb = np.zeros_like(emb)
        np.add.at(demb, trip.anchors, da)
        np.add.at(demb, trip.positives, dp)
        np.add.at(demb, trip.negatives, dn)
        grads = backward_batch(demb, w, cache)
        opt.step(w.tensors, grads)
    return w
