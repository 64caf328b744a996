"""Test helper: the music probability of one log-Mel window, through the
batch forward pass that the streaming detector is checked against."""

import numpy as np

from tunescout.detector import DetectorWeights, forward_batch
from tunescout.nnops import sigmoid


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
