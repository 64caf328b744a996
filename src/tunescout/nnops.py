"""Numpy building blocks for the two small networks: weight initialization,
layer forward/backward passes, batch norm, and an Adam optimizer.

Everything is dtype-preserving so gradient checks can run in float64 while
training/inference runs in float32. Backward functions return gradients in
the same order as the forward's parameters.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # share of a training batch's statistics in the running ones
NORM_EPS = 1e-12  # l2_normalize divides by at least this norm
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def init_tensor(rng, name: str, shape: tuple[int, ...], gain: float) -> np.ndarray:
    """A float32 weight tensor: N(0, gain / fan_in) for a matrix or kernel
    (last axis = outputs), else ones for a batch-norm gamma or var, else zeros."""
    if len(shape) == 1:
        return (np.ones if name.endswith(("gamma", "var")) else np.zeros)(shape, dtype=np.float32)
    return rng.normal(0, math.sqrt(gain / math.prod(shape[:-1])), shape).astype(np.float32)


# ------------------------------------------------------------- activations

def relu(x):
    return np.maximum(x, 0.0)


def relu_bwd(x, dy):
    return np.where(x > 0, dy, 0.0)


def elu_inplace(x):
    """ELU written into x: max(x, 0) + expm1(min(x, 0)), the same values as
    np.where(x > 0, x, expm1(x)), which is several times slower on float32
    data with a mixed sign pattern."""
    neg = np.minimum(x, 0)
    np.expm1(neg, out=neg)
    np.maximum(x, 0, out=x)
    x += neg
    return x


def elu(x):
    return elu_inplace(x.copy())


def elu_bwd(x, dy):
    return np.where(x > 0, dy, dy * np.exp(x))


def sigmoid(x):
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits, labels):
    """Mean binary cross-entropy and d(loss)/d(logits)."""
    z, y = logits, labels
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    dz = (sigmoid(z) - y) / z.size
    return loss.mean(), dz


# ------------------------------------------------------------------ dense

def dense(x, w, b):
    return x @ w + b


def dense_bwd(x, w, dy):
    xf = x.reshape(-1, x.shape[-1])
    dyf = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, xf.T @ dyf, dyf.sum(axis=0)


# ------------------------------------------------------------- batch norm

BN_TENSORS = ("gamma", "beta", "mean", "var")  # a batch-norm layer's tensors, after its prefix


def batchnorm(x, t, prefix, train):
    """Per-channel batch norm over the last axis, with the tensors t[prefix + k]
    for k in BN_TENSORS.

    Returns (y, cache). In train mode the batch statistics are used and the
    running ones in t are replaced by their update, in their dtype; in eval
    mode the running statistics are used and t is left as it is.
    """
    gamma, beta, running_mean, running_var = (t[prefix + k] for k in BN_TENSORS)
    if train:
        flat = x.reshape(-1, x.shape[-1])
        mu, var = flat.mean(axis=0), flat.var(axis=0)
        for k, old, new in (("mean", running_mean, mu), ("var", running_var, var)):
            t[prefix + k] = ((1 - BN_MOMENTUM) * old + BN_MOMENTUM * new).astype(old.dtype)
    else:
        mu, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta
    return y, (prefix, gamma, xhat, inv, train)


def fold_bn(w, b, t, prefix):
    """Eval-mode batch norm t[prefix + ...] after a layer x @ w + b, folded
    into that layer.

    Returns (w * s, (b - mean) * s + beta) with s = gamma / sqrt(var + eps),
    scaling w's last (output) axis, in the tensors' dtype.
    """
    gamma, beta, mean, var = (t[prefix + k] for k in BN_TENSORS)
    s = gamma / np.sqrt(var + BN_EPS)
    return w * s, (b - mean) * s + beta


def batchnorm_bwd(dy, cache):
    """Gradients of batchnorm: (dx, {prefix + "gamma": ..., prefix + "beta": ...})."""
    prefix, gamma, xhat, inv, train = cache
    dgamma = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    dbeta = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    grads = {prefix + "gamma": dgamma, prefix + "beta": dbeta}
    if not train:
        return dy * gamma * inv, grads
    dxhat = dy * gamma
    flat_dxhat = dxhat.reshape(-1, dy.shape[-1])
    flat_xhat = xhat.reshape(-1, dy.shape[-1])
    mean_dxhat = flat_dxhat.mean(axis=0)
    mean_dxhat_xhat = (flat_dxhat * flat_xhat).mean(axis=0)
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, grads


# ----------------------------------------------- depthwise conv1d (valid)

def dwconv1d(x, w, stride=2):
    """Per-channel 1-D convolution, valid padding, along axis -2.

    x: (..., L, C), w: (k, C) -> (..., Lout, C) with
    Lout = max(0, (L - k)//stride + 1): empty for an input shorter than k.
    """
    k = w.shape[0]
    span = stride * max(0, (x.shape[-2] - k) // stride + 1)
    y = x[..., :span:stride, :] * w[0]
    for j in range(1, k):
        y += x[..., j : j + span : stride, :] * w[j]
    return y


def dwconv1d_bwd(x, w, dy, stride=2):
    k = w.shape[0]
    l_out = dy.shape[1]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for j in range(k):
        sl = slice(j, j + stride * (l_out - 1) + 1, stride)
        dx[:, sl, :] += dy * w[j]
        dw[j] = (x[:, sl, :] * dy).sum(axis=(0, 1))
    return dx, dw


# ------------------------------------------- conv2d, stride 2, same padding

def _same_pad(size, k, stride):
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    return total // 2, total - total // 2, out


def conv2d(x, w, b, stride=2, im2col=False):
    """2-D convolution with TF-style 'same' padding.

    x: (B, H, W, Cin), w: (kh, kw, Cin, Cout) -> (B, ceil(H/s), ceil(W/s), Cout).
    Computed as kh*kw shifted matmuls so BLAS does the heavy lifting. With
    one input channel each product has a single term, so it is a broadcast
    multiply with the same values, accumulated channel-major so that the
    inner loops run over whole feature maps.

    With im2col=True (the inference form) it is one
    (B*oh*ow, kh*kw*Cin) @ (kh*kw*Cin, Cout) product over the patches of the
    padded input (Chellapilla, Puri & Simard 2006): far fewer, larger BLAS
    calls, summed in another order, so the values differ in the last bits.
    """
    kh, kw = w.shape[:2]
    ph0, ph1, oh = _same_pad(x.shape[1], kh, stride)
    pw0, pw1, ow = _same_pad(x.shape[2], kw, stride)
    xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    if im2col:
        # (B, oh, ow, Cin, kh, kw) window view -> rows of (kh, kw, Cin) taps, w's order
        patches = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        cols = patches.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])
        y = cols @ w.reshape(-1, w.shape[3])
        y += b
        return y.reshape(x.shape[0], oh, ow, w.shape[3])
    one = x.shape[3] == 1
    shape = (w.shape[3], x.shape[0], oh, ow) if one else (x.shape[0], oh, ow, w.shape[3])
    y = np.zeros(shape, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride, :]
            if one:
                y += w[i, j, 0][:, None, None, None] * np.ascontiguousarray(sl[..., 0])
            else:
                y += sl @ w[i, j]
    if one:
        y = np.ascontiguousarray(y.transpose(1, 2, 3, 0))  # the layout later layers expect
    return y + b


def conv2d_bwd(x, w, dy, stride=2):
    kh, kw = w.shape[:2]
    ph0, ph1, oh = _same_pad(x.shape[1], kh, stride)
    pw0, pw1, ow = _same_pad(x.shape[2], kw, stride)
    xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            sh = slice(i, i + stride * (oh - 1) + 1, stride)
            sw = slice(j, j + stride * (ow - 1) + 1, stride)
            sl = xp[:, sh, sw, :]
            dw[i, j] = np.einsum("bhwc,bhwo->co", sl, dy)
            dxp[:, sh, sw, :] += dy @ w[i, j].T
    db = dy.sum(axis=(0, 1, 2))
    dx = dxp[:, ph0 : ph0 + x.shape[1], pw0 : pw0 + x.shape[2], :]
    return dx, dw, db


# ---------------------------------------------------------- normalization

def l2_normalize(x):
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return x / np.maximum(norm, NORM_EPS)


def l2_normalize_bwd(x, dy):
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    norm = np.maximum(norm, NORM_EPS)
    y = x / norm
    return (dy - y * (dy * y).sum(axis=-1, keepdims=True)) / norm


# ------------------------------------------------------------------ adam

class Adam:
    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: dict, grads: dict):
        self.t += 1
        b1t = 1 - ADAM_BETA1**self.t
        b2t = 1 - ADAM_BETA2**self.t
        for name in sorted(grads):
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m += (1 - ADAM_BETA1) * (g - m)
            v += (1 - ADAM_BETA2) * (g * g - v)
            params[name] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
