"""Fingerprinter: forward pass, divide-and-encode, triplet loss, mining,
training and gradient correctness."""

import numpy as np
import pytest

from tunescout import embedder as embedder_mod
from tunescout import nnops
from tunescout.embedder import (
    EmbedderTopology,
    EmbedderTrainConfig,
    backward_batch,
    divide_and_encode,
    fingerprint_stream,
    forward_batch,
    forward_inference,
    init_weights,
    mine_triplets,
    standardize_windows,
    train_embedder,
    triplet_loss,
)
from tunescout.pipeline import PipelineConfig

TINY = PipelineConfig(embedder_preset="tiny").embedder_topology()
DEFAULT = PipelineConfig().embedder_topology()

MICRO = EmbedderTopology(frames=8, mel_bins=8, conv_channels=(2, 3), branches=2,
                         branch_hidden=4, dim=8)


def _micro_weights(seed=0, perturb_bn=True):
    w = init_weights(MICRO, seed=seed)
    if perturb_bn:
        rng = np.random.default_rng(seed + 1)
        for i in range(len(MICRO.conv_channels)):
            c = MICRO.conv_channels[i]
            w.tensors[f"conv{i}_bn_mean"] = rng.normal(0, 0.2, c).astype(np.float32)
            w.tensors[f"conv{i}_bn_var"] = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return w


def _perturb_bn(w, seed):
    """Move every conv layer's batch norm away from identity, so a fold
    that drops or misplaces any of gamma, beta, mean or var shows."""
    rng = np.random.default_rng(seed)
    for i, c in enumerate(w.topology.conv_channels):
        w.tensors[f"conv{i}_bn_gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
        w.tensors[f"conv{i}_bn_beta"] = rng.normal(0, 0.3, c).astype(np.float32)
        w.tensors[f"conv{i}_bn_mean"] = rng.normal(0, 0.3, c).astype(np.float32)
        w.tensors[f"conv{i}_bn_var"] = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return w


def _fingerprint_one(win, w):
    """The fingerprint of one window, through the product's stream path."""
    out = fingerprint_stream(win, w)
    assert out.shape == (1, w.topology.dim)
    return out[0]


# ----------------------------------------------------------------- forward

def test_fingerprint_unit_norm_and_deterministic():
    w = init_weights(TINY, seed=0)
    rng = np.random.default_rng(0)
    win = rng.standard_normal((TINY.frames, TINY.mel_bins)).astype(np.float32)
    f1 = _fingerprint_one(win, w)
    f2 = _fingerprint_one(win.copy(), w)
    assert f1.shape == (TINY.dim,)
    assert np.linalg.norm(f1) == pytest.approx(1.0, abs=1e-5)
    assert np.array_equal(f1, f2)


def test_fingerprint_validates_input():
    w = init_weights(TINY)
    with pytest.raises(ValueError):
        fingerprint_stream(np.zeros((10, 32)), w)
    bad = np.zeros((TINY.frames, TINY.mel_bins))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        fingerprint_stream(bad, w)


def test_gain_invariance_of_fingerprints():
    # adding a constant to log energies (broadband gain) leaves the
    # standardized input, hence the fingerprint, unchanged
    w = init_weights(TINY, seed=1)
    rng = np.random.default_rng(1)
    win = rng.standard_normal((TINY.frames, TINY.mel_bins)).astype(np.float32)
    a = _fingerprint_one(win, w)
    b = _fingerprint_one(win + 3.0, w)
    assert np.allclose(a, b, atol=1e-4)


def _oracle_conv2d_same(x, w, b, stride):
    """Naive loop conv2d with TF 'same' padding: (H, W, Cin) -> (oh, ow, Cout)."""
    kh, kw, cin, cout = w.shape
    h_in, w_in = x.shape[:2]
    oh, ow = -(-h_in // stride), -(-w_in // stride)
    ph = max((oh - 1) * stride + kh - h_in, 0)
    pw = max((ow - 1) * stride + kw - w_in, 0)
    xp = np.pad(x, ((ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    y = np.zeros((oh, ow, cout))
    for i in range(oh):
        for j in range(ow):
            patch = xp[i * stride : i * stride + kh, j * stride : j * stride + kw, :]
            for co in range(cout):
                y[i, j, co] = (patch * w[:, :, :, co]).sum() + b[co]
    return y


def _oracle_forward(win, w):
    """Fingerprint of one (frames, mel_bins) window by explicit float64
    loops, with no batched, folded or fused path."""
    topo = w.topology
    h = standardize_windows(win.astype(np.float64))[..., None]
    t = {k: v.astype(np.float64) for k, v in w.tensors.items()}
    for i in range(len(topo.conv_channels)):
        z = _oracle_conv2d_same(h, t[f"conv{i}_w"], t[f"conv{i}_b"], topo.stride)
        inv = 1.0 / np.sqrt(t[f"conv{i}_bn_var"] + nnops.BN_EPS)
        z = t[f"conv{i}_bn_gamma"] * (z - t[f"conv{i}_bn_mean"]) * inv + t[f"conv{i}_bn_beta"]
        h = np.where(z > 0, z, np.expm1(z))
    flat = h.reshape(-1)
    bi = len(flat) // topo.branches
    outs = []
    for j in range(topo.branches):
        sl = flat[j * bi : (j + 1) * bi]
        hid = sl @ t[f"br{j}_w1"] + t[f"br{j}_b1"]
        hid = np.where(hid > 0, hid, np.expm1(hid))
        outs.append(hid @ t[f"br{j}_w2"] + t[f"br{j}_b2"])
    pre = np.concatenate(outs)
    return pre / np.linalg.norm(pre)


def test_forward_matches_layer_by_layer_oracle():
    w = _micro_weights(seed=3)
    rng = np.random.default_rng(3)
    win = rng.standard_normal((MICRO.frames, MICRO.mel_bins)).astype(np.float32)
    got = _fingerprint_one(win, w)
    assert np.allclose(got, _oracle_forward(win, w), atol=1e-5)


@pytest.mark.parametrize("topo", [DEFAULT, TINY, MICRO], ids=["default", "tiny", "micro"])
def test_inference_form_matches_float64_oracle(topo):
    w = _perturb_bn(init_weights(topo, seed=17), seed=18)
    rng = np.random.default_rng(17)
    wins = rng.standard_normal((3, topo.frames, topo.mel_bins)).astype(np.float32)
    got = forward_inference(wins, w)
    for k in range(len(wins)):
        assert np.abs(got[k] - _oracle_forward(wins[k], w)).max() <= 1e-6


@pytest.mark.parametrize("batch", [1, 29, 256, 257])
@pytest.mark.parametrize("topo", [DEFAULT, TINY], ids=["default", "tiny"])
def test_inference_form_equals_forward_batch(topo, batch):
    w = _perturb_bn(init_weights(topo, seed=batch), seed=batch + 1)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, topo.frames, topo.mel_bins)).astype(np.float32)
    ref, _ = forward_batch(x, w, train=False)
    assert np.abs(forward_inference(x, w) - ref).max() <= 1e-6
    # the same windows through fingerprint_stream, whose batches split 257 as 256 + 1
    gap = rng.standard_normal((batch, topo.hop_frames - topo.frames, topo.mel_bins))
    frames = np.concatenate([x, gap.astype(np.float32)], axis=1).reshape(-1, topo.mel_bins)
    got = fingerprint_stream(frames, w)
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-6


def test_fingerprint_stream_leaves_weights_byte_identical():
    w = _perturb_bn(init_weights(TINY, seed=19), seed=20)
    before = {k: v.copy() for k, v in w.tensors.items()}
    frames = np.random.default_rng(19).standard_normal((400, TINY.mel_bins)).astype(np.float32)
    fingerprint_stream(frames, w)
    assert sorted(w.tensors) == sorted(before)
    for k, v in before.items():
        assert w.tensors[k].dtype == v.dtype and w.tensors[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize("shape", [(5, 96, 32, 1), (3, 7, 5, 1), (2, 9, 6, 3), (4, 48, 16, 8)])
def test_im2col_conv2d_matches_oracle(shape):
    rng = np.random.default_rng(shape[3])
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal((3, 3, shape[3], 8)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    got = nnops.conv2d(x, w, b, im2col=True)
    ref = np.stack([_oracle_conv2d_same(xi.astype(np.float64), w.astype(np.float64),
                                        b.astype(np.float64), 2) for xi in x])
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_inplace_equals_elu_bit_for_bit(dtype):
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.standard_normal(5000), 1e-30 * rng.standard_normal(100),
                        [0.0, 80.0, -80.0, np.inf, -np.inf]]).astype(dtype)
    ref = nnops.elu(x)
    got = x.copy()
    assert nnops.elu_inplace(got) is got
    assert np.array_equal(got, ref)


def _shifted_matmul_conv2d(x, w, b, stride=2):
    """conv2d as kh*kw shifted matmuls, the formula for any channel count."""
    kh, kw = w.shape[:2]
    ph0, ph1, oh = nnops._same_pad(x.shape[1], kh, stride)
    pw0, pw1, ow = nnops._same_pad(x.shape[2], kw, stride)
    xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    y = np.zeros((x.shape[0], oh, ow, w.shape[3]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride, :]
            y += sl @ w[i, j]
    return y + b


@pytest.mark.parametrize("shape", [(5, 96, 32, 1), (3, 7, 5, 1), (2, 9, 6, 3)])
def test_conv2d_equals_shifted_matmul_formula_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal((3, 3, shape[3], 8)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    assert np.array_equal(nnops.conv2d(x, w, b), _shifted_matmul_conv2d(x, w, b))


def test_training_step_identical_with_shifted_matmul_conv(monkeypatch):
    # the output layout matters too: later layers' reductions follow it
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, TINY.frames, TINY.mel_bins)).astype(np.float32)
    dout = rng.standard_normal((6, TINY.dim)).astype(np.float32)

    def step():
        w = init_weights(TINY, seed=5)
        out, cache = forward_batch(x, w, train=True)
        return out, backward_batch(dout, w, cache)

    out, grads = step()
    monkeypatch.setattr(embedder_mod, "conv2d", _shifted_matmul_conv2d)
    ref_out, ref_grads = step()
    assert np.array_equal(out, ref_out)
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_equals_where_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.standard_normal(5000), 1e-30 * rng.standard_normal(100),
                        [0.0, 80.0, -80.0, np.inf, -np.inf]]).astype(dtype)
    assert np.array_equal(nnops.elu(x), np.where(x > 0, x, np.expm1(x)))


# ------------------------------------------------------------------ stream

def test_stream_emission_counts():
    w = init_weights(TINY, seed=2)
    rng = np.random.default_rng(2)
    for n, expect in ((798, 8), (98, 1), (96, 1), (23998, 240)):
        frames = rng.standard_normal((n, TINY.mel_bins)).astype(np.float32)
        assert fingerprint_stream(frames, w).shape == (expect, TINY.dim)


def test_stream_too_short_raises():
    w = init_weights(TINY)
    with pytest.raises(ValueError):
        fingerprint_stream(np.zeros((TINY.frames - 1, TINY.mel_bins)), w)


def test_stream_windows_right_aligned():
    w = init_weights(TINY, seed=4)
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((300, TINY.mel_bins)).astype(np.float32)
    fps = fingerprint_stream(frames, w)
    # emission k covers frames ending at 96 + 100k
    for k, end in enumerate(range(TINY.frames, 301, TINY.hop_frames)):
        direct = _fingerprint_one(frames[end - TINY.frames : end], w)
        assert np.allclose(fps[k], direct, atol=1e-6)


# -------------------------------------------------------- divide-and-encode

def test_branch_widths():
    assert EmbedderTopology(dim=96).dim // EmbedderTopology(dim=96).branches == 12
    with pytest.raises(ValueError):
        EmbedderTopology(dim=100)


def test_zero_slice_zero_bias_gives_zero_branch():
    w = _micro_weights(seed=5, perturb_bn=False)
    feats = np.random.default_rng(5).standard_normal((2, MICRO.branch_input * 2))
    feats[:, : MICRO.branch_input] = 0.0
    out, _ = divide_and_encode(feats.astype(np.float32), w)
    bo = MICRO.dim // MICRO.branches
    assert np.all(out[:, :bo] == 0)


def test_branch_independence_bit_identical():
    w = _micro_weights(seed=6)
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((3, MICRO.branch_input * 2)).astype(np.float32)
    base, _ = divide_and_encode(feats, w)
    perturbed = feats.copy()
    perturbed[:, MICRO.branch_input :] += 1.0  # slice of branch 1 only
    out, _ = divide_and_encode(perturbed, w)
    bo = MICRO.dim // MICRO.branches
    assert np.array_equal(base[:, :bo], out[:, :bo])
    assert not np.array_equal(base[:, bo:], out[:, bo:])


def test_divide_and_encode_rejects_indivisible():
    w = _micro_weights()
    with pytest.raises(ValueError):
        divide_and_encode(np.zeros((1, MICRO.branch_input * 2 + 1), dtype=np.float32), w)


def _branch_loop(features, dout, w):
    """The head one branch at a time, through nnops.dense: (out, d features, grads)."""
    topo, t = w.topology, w.tensors
    bi, bo = features.shape[1] // topo.branches, dout.shape[1] // topo.branches
    outs, dslices, grads = [], [], {}
    for j in range(topo.branches):
        sl = features[:, j * bi : (j + 1) * bi]
        h = nnops.dense(sl, t[f"br{j}_w1"], t[f"br{j}_b1"])
        a = nnops.elu(h)
        outs.append(nnops.dense(a, t[f"br{j}_w2"], t[f"br{j}_b2"]))
        dy = dout[:, j * bo : (j + 1) * bo]
        da, grads[f"br{j}_w2"], grads[f"br{j}_b2"] = nnops.dense_bwd(a, t[f"br{j}_w2"], dy)
        dh = nnops.elu_bwd(h, da)
        dsl, grads[f"br{j}_w1"], grads[f"br{j}_b1"] = nnops.dense_bwd(sl, t[f"br{j}_w1"], dh)
        dslices.append(dsl)
    return np.concatenate(outs, axis=1), np.concatenate(dslices, axis=1), grads


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("topo", [DEFAULT, TINY], ids=["default", "tiny"])
def test_batched_head_equals_branch_loop_bit_for_bit(topo, batch):
    w = init_weights(topo, seed=batch)
    rng = np.random.default_rng(batch)
    for name in w.tensors:
        if name.startswith("br") and name[-2:] in ("b1", "b2"):
            w.tensors[name] = rng.normal(0, 0.1, w.tensors[name].shape).astype(np.float32)
    feats = rng.standard_normal((batch, topo.flat_size)).astype(np.float32)
    dout = rng.standard_normal((batch, topo.dim)).astype(np.float32)
    out, cache = divide_and_encode(feats, w)
    dfeats, grads = embedder_mod.divide_and_encode_bwd(dout, w, cache)
    ref_out, ref_dfeats, ref_grads = _branch_loop(feats, dout, w)
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    assert dfeats.dtype == ref_dfeats.dtype and dfeats.tobytes() == ref_dfeats.tobytes()
    assert sorted(grads) == sorted(ref_grads) and len(grads) == 4 * topo.branches
    for name, g in ref_grads.items():
        assert grads[name].dtype == g.dtype and grads[name].tobytes() == g.tobytes(), name


def test_inference_form_applies_the_written_out_fold(monkeypatch):
    w = _perturb_bn(init_weights(TINY, seed=21), seed=22)
    t = w.tensors
    seen = []
    conv2d = embedder_mod.conv2d

    def spy(x, wt, b, *args, **kwargs):
        seen.append((wt, b))
        return conv2d(x, wt, b, *args, **kwargs)

    monkeypatch.setattr(embedder_mod, "conv2d", spy)
    forward_inference(np.zeros((2, TINY.frames, TINY.mel_bins), dtype=np.float32), w)
    assert len(seen) == len(TINY.conv_channels)
    for i, (wt, b) in enumerate(seen):
        s = t[f"conv{i}_bn_gamma"] / np.sqrt(t[f"conv{i}_bn_var"] + np.float32(1e-5))
        ref_w = t[f"conv{i}_w"] * s
        ref_b = (t[f"conv{i}_b"] - t[f"conv{i}_bn_mean"]) * s + t[f"conv{i}_bn_beta"]
        assert wt.dtype == np.float32 and wt.tobytes() == ref_w.tobytes()
        assert b.dtype == np.float32 and b.tobytes() == ref_b.tobytes()


# ------------------------------------------------------------ triplet loss

def test_triplet_satisfied_is_zero():
    a = np.array([[1.0, 0.0]])
    n = np.array([[0.0, 1.0]])  # ||a-n||^2 = 2 >= margin
    loss, _ = triplet_loss(a, a, n, margin=0.4)
    assert loss == 0.0


def test_triplet_degenerate_equals_margin():
    a = np.array([[0.6, 0.8]])
    loss, _ = triplet_loss(a, a, a, margin=0.4)
    assert loss == pytest.approx(0.4)


def test_triplet_hand_arithmetic():
    a, p, n = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[-1.0, 0.0]])
    loss, _ = triplet_loss(a, p, n, margin=0.2)
    assert loss == pytest.approx(max(0.0, 2.0 - 4.0 + 0.2))
    # brute-force cross-check of the same quantities
    assert ((a - p) ** 2).sum() == 2.0 and ((a - n) ** 2).sum() == 4.0


def test_triplet_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(7)
    a, p, n = (rng.standard_normal((5, 6)) for _ in range(3))
    loss, _ = triplet_loss(a, p, n, margin=0.4)
    assert loss >= 0.0
    perm = rng.permutation(6)
    loss_p, _ = triplet_loss(a[:, perm], p[:, perm], n[:, perm], margin=0.4)
    assert loss_p == pytest.approx(loss, abs=1e-12)


def test_triplet_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    a, p, n = (rng.standard_normal((4, 5)) for _ in range(3))
    _, (da, dp, dn) = triplet_loss(a, p, n, margin=0.4)
    eps = 1e-6
    for arr, grad in ((a, da), (p, dp), (n, dn)):
        for ix in [(0, 0), (1, 2), (3, 4)]:
            orig = arr[ix]
            arr[ix] = orig + eps
            lp, _ = triplet_loss(a, p, n, margin=0.4)
            arr[ix] = orig - eps
            lm, _ = triplet_loss(a, p, n, margin=0.4)
            arr[ix] = orig
            assert (lp - lm) / (2 * eps) == pytest.approx(grad[ix], abs=1e-4)


# ----------------------------------------------------------------- mining

def test_mining_positive_rule():
    emb = np.eye(4, dtype=np.float32)
    songs = np.array([0, 0, 1, 1])
    offs = np.array([0.0, 120.0, 5000.0, 9000.0])
    batch = mine_triplets(emb, songs, offs, pos_tolerance_ms=300.0)
    for i, j in zip(batch.anchors, batch.positives):
        assert songs[i] == songs[j]
        assert abs(offs[i] - offs[j]) < 300.0


def test_mining_rejects_far_offsets_as_positives():
    emb = np.eye(4, dtype=np.float32)
    songs = np.array([0, 0, 1, 1])
    offs = np.array([0.0, 800.0, 0.0, 100.0])
    batch = mine_triplets(emb, songs, offs, pos_tolerance_ms=300.0)
    assert all(songs[i] == 1 for i in batch.anchors)  # only song 1 has a pair


def test_mining_same_song_far_segment_is_negative():
    emb = np.eye(4, dtype=np.float32)
    songs = np.array([0, 0, 0, 0])
    offs = np.array([0.0, 100.0, 5000.0, 5100.0])
    batch = mine_triplets(emb, songs, offs, pos_tolerance_ms=300.0)
    for i, k in zip(batch.anchors, batch.negatives):
        assert abs(offs[i] - offs[k]) >= 2000.0


def test_mining_no_positive_pair_raises():
    emb = np.eye(3, dtype=np.float32)
    with pytest.raises(ValueError):
        mine_triplets(emb, np.array([0, 1, 2]), np.array([0.0, 0.0, 0.0]))


def _mine_triplets_loop(emb, songs, offs, pos_tolerance_ms=300.0, margin=0.4):
    """Per-anchor reference for mine_triplets: (anchors, positives, negatives)."""
    d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    anchors, positives, negatives = [], [], []
    for i in range(len(emb)):
        pos_idx = [j for j in range(len(emb))
                   if j != i and songs[j] == songs[i] and abs(offs[j] - offs[i]) < pos_tolerance_ms]
        neg_idx = [k for k in range(len(emb))
                   if k != i and (songs[k] != songs[i] or abs(offs[k] - offs[i]) >= 2000.0)]
        if not pos_idx or not neg_idx:
            continue
        j = max(pos_idx, key=lambda c: (d2[i, c], -c))  # farthest, lowest index on ties
        semi = [k for k in neg_idx if d2[i, j] < d2[i, k] < d2[i, j] + margin]
        k = min(semi or neg_idx, key=lambda c: (d2[i, c], c))  # nearest, lowest index on ties
        anchors.append(i)
        positives.append(j)
        negatives.append(k)
    return anchors, positives, negatives


def _mining_batch(seed):
    """Embeddings on a coarse grid, so that many distances tie, and few songs
    with spread offsets, so that some anchors have no positive and some no
    semi-hard negative."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    emb = (rng.integers(-2, 3, size=(n, 4)) / 2).astype(np.float32)
    songs = rng.integers(0, int(rng.integers(1, 5)), size=n)
    offs = rng.choice([0.0, 100.0, 250.0, 400.0, 2100.0, 5000.0], size=n)
    return emb, songs, offs


@pytest.mark.parametrize("seed", range(40))
def test_mining_equals_per_anchor_loop(seed):
    emb, songs, offs = _mining_batch(seed)
    ref = _mine_triplets_loop(emb, songs, offs)
    if not ref[0]:
        with pytest.raises(ValueError):
            mine_triplets(emb, songs, offs)
        return
    got = mine_triplets(emb, songs, offs)
    assert [got.anchors.tolist(), got.positives.tolist(), got.negatives.tolist()] == \
        [list(x) for x in ref]


def test_mining_batches_cover_the_cases():
    # the batches of test_mining_equals_per_anchor_loop hold anchors with no
    # positive, with tied farthest positives and with no semi-hard negative
    cases = set()
    for seed in range(40):
        emb, songs, offs = _mining_batch(seed)
        d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
        for i in range(len(emb)):
            others = np.arange(len(emb)) != i
            same, apart = songs == songs[i], np.abs(offs - offs[i])
            pos = others & same & (apart < 300)
            neg = others & (~same | (apart >= 2000))
            if not pos.any():
                cases.add("no positive")
                continue
            far = d2[i, pos].max()
            if (d2[i, pos] == far).sum() > 1:
                cases.add("tied positives")
            if neg.any() and not ((d2[i, neg] > far) & (d2[i, neg] < far + 0.4)).any():
                cases.add("no semi-hard negative")
    assert cases == {"no positive", "tied positives", "no semi-hard negative"}


# --------------------------------------------------------------- training

def _synthetic_windows(n_songs=12, views=6, seed=0):
    """Cluster-per-song synthetic windows: same-song views share a template."""
    rng = np.random.default_rng(seed)
    wins, songs, offs = [], [], []
    for s in range(n_songs):
        base = rng.standard_normal((MICRO.frames, MICRO.mel_bins))
        for v in range(views):
            wins.append(base + 0.3 * rng.standard_normal(base.shape))
            songs.append(s)
            offs.append(float(v % 2) * 100.0)  # all views within pos tolerance
    return np.stack(wins).astype(np.float32), np.array(songs), np.array(offs)


def _recall_at_1(w, wins, songs):
    emb, _ = forward_batch(wins, w, train=False)
    d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn = d2.argmin(axis=1)
    return float((songs[nn] == songs).mean())


def test_training_improves_over_untrained_chance():
    wins, songs, offs = _synthetic_windows()
    w0 = init_weights(MICRO, seed=0)
    hyper = EmbedderTrainConfig(steps=150, songs_per_batch=8, views_per_song=3,
                                seed=0, lr=3e-3)
    w1 = train_embedder(wins, songs, offs, MICRO, hyper)
    r0, r1 = _recall_at_1(w0, wins, songs), _recall_at_1(w1, wins, songs)
    assert r1 > max(r0, 2 / 12)  # well above the untrained model and chance
    assert r1 >= 0.8


def test_training_deterministic_given_seed():
    wins, songs, offs = _synthetic_windows(n_songs=4, views=3)
    hyper = EmbedderTrainConfig(steps=10, songs_per_batch=4, views_per_song=2, seed=5)
    a = train_embedder(wins, songs, offs, MICRO, hyper)
    b = train_embedder(wins, songs, offs, MICRO, hyper)
    assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


def test_train_empty_corpus_raises():
    with pytest.raises(ValueError):
        train_embedder(np.empty((0, 8, 8)), np.array([]), np.array([]), MICRO)


def test_embedder_gradients_match_finite_differences():
    """Triplet loss through the full network vs central differences (float64)."""
    w = _micro_weights(seed=9)
    for name in w.tensors:
        w.tensors[name] = w.tensors[name].astype(np.float64)
    rng = np.random.default_rng(9)
    batch = rng.standard_normal((3, MICRO.frames, MICRO.mel_bins))

    def loss_and_grads():
        emb, cache = forward_batch(batch, w, train=False)
        loss, (da, dp, dn) = triplet_loss(emb[0:1], emb[1:2], emb[2:3], margin=0.4)
        demb = np.concatenate([da, dp, dn])
        return loss, backward_batch(demb, w, cache)

    loss0, grads = loss_and_grads()
    assert loss0 > 0  # the margin must be active or gradients vanish
    eps = 1e-6
    worst = 0.0
    rng2 = np.random.default_rng(10)
    for name, g in grads.items():
        x = w.tensors[name]
        flat_idx = rng2.choice(x.size, size=min(6, x.size), replace=False)
        for fi in flat_idx:
            ix = np.unravel_index(fi, x.shape)
            orig = x[ix]
            x[ix] = orig + eps
            lp, _ = loss_and_grads()
            x[ix] = orig - eps
            lm, _ = loss_and_grads()
            x[ix] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[ix]), 1e-8)
            worst = max(worst, abs(fd - g[ix]) / denom)
    assert worst <= 1e-3
