"""Weight-file round trips (NPMD detector / NPFW embedder) and typed failures."""

from dataclasses import asdict

import numpy as np
import pytest

from tunescout import weights_io
from tunescout.detector import DetectorTopology, fold_batchnorm, init_weights
from tunescout.embedder import init_weights as emb_init
from tunescout.errors import WeightsFormatError
from tunescout.pipeline import PipelineConfig

SMALL_DET = DetectorTopology(input_frames=22, channels=4, n_layers=2, dense_hidden=3)
SMALL_EMB = PipelineConfig(embedder_preset="tiny").embedder_topology()


def test_detector_round_trip_float():
    w = init_weights(SMALL_DET, seed=1)
    out = weights_io.load_detector(weights_io.save_detector(w))
    assert out.topology == SMALL_DET
    for name, x in w.tensors.items():
        assert np.array_equal(out.tensors[name], x)


def test_detector_round_trip_quantized():
    q8 = weights_io.save_detector(fold_batchnorm(init_weights(SMALL_DET, seed=1)), quantize=True)
    w = weights_io.load_detector(q8)
    blob = weights_io.save_detector(w, quantize=True)
    out = weights_io.load_detector(blob)
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


def test_q8_file_decodes_to_the_codec_round_trip():
    w = init_weights(SMALL_DET, seed=4)
    out = weights_io.load_detector(weights_io.save_detector(w, quantize=True))
    for name, x in w.tensors.items():
        expected = weights_io.dequantize_tensor(*weights_io.quantize_tensor(x))
        assert out.tensors[name].tobytes() == expected.tobytes()


LOADERS = {
    "detector": (weights_io.DETECTOR_MAGIC, weights_io.load_detector,
                 lambda: init_weights(SMALL_DET, seed=1)),
    "embedder": (weights_io.EMBEDDER_MAGIC, weights_io.load_embedder,
                 lambda: emb_init(SMALL_EMB, seed=2)),
}


def _file(kind, meta=None, edit=None):
    """A weight file of this kind; meta(topology dict) replaces its meta and
    edit(tensors) changes its tensors in place."""
    magic, _, make = LOADERS[kind]
    w = make()
    tensors = dict(w.tensors)
    if edit:
        edit(tensors)
    topo = asdict(w.topology)
    return weights_io.save_tensors(magic, tensors, {"topology": topo} if meta is None else meta(topo))


BAD_META = {
    "not_an_object": lambda topo: [topo],
    "no_topology": lambda topo: {"quantized": False},
    "topology_not_an_object": lambda topo: {"topology": 5},
    "unknown_key": lambda topo: {"topology": {**topo, "no_such_key": 1}},
    "missing_key": lambda topo: {"topology": {k: v for k, v in topo.items() if k != "stride"}},
    "bad_value": lambda topo: {"topology": {**topo, "stride": 0}},
    "wrong_type": lambda topo: {"topology": {**topo, "stride": "2"}},
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(BAD_META))
def test_bad_metadata_raises(kind, case):
    with pytest.raises(WeightsFormatError):
        LOADERS[kind][1](_file(kind, meta=BAD_META[case]))


BAD_TENSORS = {
    "missing": lambda t: t.pop(sorted(t)[0]),
    "unexpected": lambda t: t.update(extra=np.zeros(3, dtype=np.float32)),
    "wrong_shape": lambda t: t.update({k: t[k][:-1] for k in sorted(t)[:1]}),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(BAD_TENSORS))
def test_tensors_not_matching_the_topology_raise(kind, case):
    with pytest.raises(WeightsFormatError, match="tensors do not match the topology"):
        LOADERS[kind][1](_file(kind, edit=BAD_TENSORS[case]))

