"""The layers both networks share: depthwise conv1d and batch norm."""

import numpy as np
import pytest

from tunescout import nnops


def _dwconv1d_reference(x, w, stride):
    """Zero-initialised per-tap sum over (B, L, C): empty below L = k."""
    k = w.shape[0]
    l_out = max(0, (x.shape[1] - k) // stride + 1)
    y = np.zeros((x.shape[0], l_out, x.shape[2]), dtype=x.dtype)
    for j in range(k):
        y += x[:, j : j + stride * l_out : stride, :] * w[j]
    return y


@pytest.mark.parametrize("k, stride", [(4, 2), (3, 1), (5, 3)])
def test_dwconv1d_equals_zero_initialised_tap_sum(k, stride):
    rng = np.random.default_rng(k)
    w = rng.standard_normal((k, 6)).astype(np.float32)
    x = rng.standard_normal((2, 446, 6)).astype(np.float32)
    for length in range(k - 1, 447):
        ref = _dwconv1d_reference(x[:, :length], w, stride)
        got = nnops.dwconv1d(x[:, :length], w, stride)
        assert got.dtype == np.float32 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), length
        # one sequence without a batch axis, as the streaming detector runs it
        assert nnops.dwconv1d(x[0, :length], w, stride).tobytes() == ref[0].tobytes()
    assert nnops.dwconv1d(x[:, : k - 1], w, stride).shape == (2, 0, 6)
    assert nnops.dwconv1d(x[0, :0], w, stride).shape == (0, 6)


def _bn_tensors(rng, c, dtypes):
    return {f"l_bn_{k}": rng.uniform(0.5, 1.5, c).astype(dt)
            for k, dt in zip(nnops.BN_TENSORS, dtypes)}


def test_batchnorm_eval_mode_leaves_the_tensors_untouched():
    rng = np.random.default_rng(0)
    t = _bn_tensors(rng, 5, [np.float32] * 4)
    before = {k: (v, v.copy()) for k, v in t.items()}
    x = rng.standard_normal((3, 7, 5)).astype(np.float32)
    y, _ = nnops.batchnorm(x, t, "l_bn_", train=False)
    assert t.keys() == before.keys()
    for k, (obj, val) in before.items():
        assert t[k] is obj and t[k].tobytes() == val.tobytes()
    inv = 1.0 / np.sqrt(t["l_bn_var"] + nnops.BN_EPS)
    assert np.allclose(y, t["l_bn_gamma"] * (x - t["l_bn_mean"]) * inv + t["l_bn_beta"])


def test_batchnorm_train_mode_replaces_only_the_running_statistics():
    rng = np.random.default_rng(1)
    t = _bn_tensors(rng, 5, [np.float32, np.float32, np.float32, np.float64])
    t["other"] = np.ones(3)
    before = {k: (v, v.copy()) for k, v in t.items()}
    x = rng.standard_normal((4, 9, 5))  # float64, unlike the float32 mean
    nnops.batchnorm(x, t, "l_bn_", train=True)
    for k in ("l_bn_gamma", "l_bn_beta", "other"):
        assert t[k] is before[k][0] and t[k].tobytes() == before[k][1].tobytes()
    flat = x.reshape(-1, 5)
    m = nnops.BN_MOMENTUM
    for k, stat in (("l_bn_mean", flat.mean(axis=0)), ("l_bn_var", flat.var(axis=0))):
        old = before[k][1]
        assert t[k] is not before[k][0] and old.tobytes() == before[k][0].tobytes()
        assert t[k].dtype == old.dtype
        assert t[k].tobytes() == ((1 - m) * old + m * stat).astype(old.dtype).tobytes()
