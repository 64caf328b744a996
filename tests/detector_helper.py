"""Test helpers: the music probability of one log-Mel window, through the
batch forward pass that the streaming detector is checked against, and the
loss and gradients of one training batch."""

import numpy as np

from tunescout.detector import DetectorWeights, backward_batch, forward_batch
from tunescout.nnops import bce_with_logits, sigmoid


def detector_forward(window: np.ndarray, w: DetectorWeights) -> float:
    """Music probability for one (input_frames, channels) log-Mel window."""
    window = np.asarray(window)
    topo = w.topology
    if window.shape != (topo.input_frames, topo.channels):
        raise ValueError(
            f"expected window of shape {(topo.input_frames, topo.channels)}, got {window.shape}"
        )
    if not np.isfinite(window).all():
        raise ValueError("window contains non-finite values")
    logits, _ = forward_batch(window[None].astype(np.float32), w, train=False)
    return float(sigmoid(logits)[0])


def training_loss(w: DetectorWeights, batch: np.ndarray, labels: np.ndarray, train: bool = True):
    """Loss and gradients on one batch, for trainer tests and gradient checks."""
    logits, cache = forward_batch(batch, w, train=train)
    loss, dlogits = bce_with_logits(logits, np.asarray(labels, dtype=batch.dtype))
    grads = backward_batch(dlogits, w, cache)
    return loss, grads
