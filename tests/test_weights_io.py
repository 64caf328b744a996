"""Weight-file round trips (NPMD detector / NPFW embedder) and typed failures."""

import numpy as np
import pytest

from tunescout import weights_io
from tunescout.detector import DetectorTopology, init_weights, quantize_weights
from tunescout.embedder import init_weights as emb_init
from tunescout.errors import WeightsFormatError
from tunescout.pipeline import PipelineConfig

SMALL_DET = DetectorTopology(input_frames=22, channels=4, n_layers=2, dense_hidden=3)
SMALL_EMB = PipelineConfig(embedder_preset="tiny").embedder_topology()


def test_detector_round_trip_float():
    w = init_weights(SMALL_DET, seed=1)
    out = weights_io.load_detector(weights_io.save_detector(w))
    assert out.topology == SMALL_DET
    assert not out.quantized
    for name, x in w.tensors.items():
        assert np.array_equal(out.tensors[name], x)


def test_detector_round_trip_quantized():
    w = quantize_weights(init_weights(SMALL_DET, seed=1))
    blob = weights_io.save_detector(w, quantize=True)
    out = weights_io.load_detector(blob)
    assert out.quantized
    for name, x in w.tensors.items():
        # values are already on the q8 grid, so re-quantization is lossless
        assert np.allclose(out.tensors[name], x, atol=1e-5)


def test_embedder_round_trip():
    w = emb_init(SMALL_EMB, seed=2)
    out = weights_io.load_embedder(weights_io.save_embedder(w))
    assert out.topology == SMALL_EMB
    assert isinstance(out.topology.conv_channels, tuple)
    for name, x in w.tensors.items():
        assert np.array_equal(out.tensors[name], x)


def test_bad_magic_raises():
    w = init_weights(SMALL_DET)
    blob = weights_io.save_detector(w)
    with pytest.raises(WeightsFormatError):
        weights_io.load_detector(b"XXXX" + blob[4:])
    with pytest.raises(WeightsFormatError):
        weights_io.load_embedder(blob)  # embedder loader rejects detector magic


def test_bad_version_raises():
    blob = bytearray(weights_io.save_detector(init_weights(SMALL_DET)))
    blob[4] = 9
    with pytest.raises(WeightsFormatError):
        weights_io.load_detector(bytes(blob))


def test_truncation_raises():
    blob = weights_io.save_detector(init_weights(SMALL_DET))
    with pytest.raises(WeightsFormatError):
        weights_io.load_detector(blob[: len(blob) // 2])


def test_deterministic_bytes():
    w = init_weights(SMALL_DET, seed=3)
    assert weights_io.save_detector(w) == weights_io.save_detector(w)
