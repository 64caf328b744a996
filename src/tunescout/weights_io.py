"""Binary weight files for the detector (magic NPMD) and embedder (NPFW),
and the affine 8-bit codec of their q8 tensors.

Layout, little-endian throughout:
  magic: 4 bytes | version: u16 | meta_len: u32 | meta: UTF-8 JSON |
  n_tensors: u16 | per tensor:
    name_len: u16 | name | dtype: u8 (0 = f32, 1 = q8) |
    scale: f32 | zero: f32 | ndim: u8 | dims: u32 each | payload
"""

import dataclasses
import json
import struct

import numpy as np

from . import detector, embedder
from .errors import WeightsFormatError

DETECTOR_MAGIC = b"NPMD"
EMBEDDER_MAGIC = b"NPFW"
VERSION = 1

DTYPE_F32 = 0
DTYPE_Q8 = 1


def quantize_tensor(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Affine 8-bit quantization: returns (codes, scale, zero)."""
    lo, hi = float(x.min()), float(x.max())
    scale = max((hi - lo) / 255.0, 1e-8)
    q = np.clip(np.round((x - lo) / scale), 0, 255).astype(np.uint8)
    return q, scale, lo


def dequantize_tensor(q: np.ndarray, scale: float, zero: float) -> np.ndarray:
    return (q.astype(np.float32) * scale + zero).astype(np.float32)


def save_tensors(magic: bytes, tensors: dict[str, np.ndarray], meta: dict,
                 quantize: bool = False) -> bytes:
    out = [magic, struct.pack("<H", VERSION)]
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    out.append(struct.pack("<I", len(meta_bytes)))
    out.append(meta_bytes)
    out.append(struct.pack("<H", len(tensors)))
    for name in sorted(tensors):
        x = np.asarray(tensors[name], dtype=np.float32)
        nb = name.encode()
        if quantize:
            q, scale, zero = quantize_tensor(x)
            dtype, payload = DTYPE_Q8, q.tobytes()
        else:
            dtype, scale, zero = DTYPE_F32, 1.0, 0.0
            payload = x.astype("<f4").tobytes()
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<Bff B", dtype, scale, zero, x.ndim))
        out.append(struct.pack(f"<{x.ndim}I", *x.shape))
        out.append(payload)
    return b"".join(out)


def load_tensors(data: bytes, magic: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors, meta); q8 tensors come back dequantized."""
    if len(data) < 12 or data[:4] != magic:
        raise WeightsFormatError(f"bad magic, expected {magic!r}")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise WeightsFormatError(f"unsupported version {version}")
    (meta_len,) = struct.unpack_from("<I", data, 6)
    pos = 10
    try:
        meta = json.loads(data[pos : pos + meta_len].decode())
        pos += meta_len
        (n_tensors,) = struct.unpack_from("<H", data, pos)
        pos += 2
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + name_len].decode()
            pos += name_len
            dtype, scale, zero, ndim = struct.unpack_from("<Bff B", data, pos)
            pos += struct.calcsize("<Bff B")
            shape = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            if dtype == DTYPE_F32:
                raw = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
                pos += 4 * count
                tensors[name] = raw.reshape(shape).astype(np.float32)
            elif dtype == DTYPE_Q8:
                raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
                pos += count
                tensors[name] = dequantize_tensor(raw, scale, zero).reshape(shape)
            else:
                raise WeightsFormatError(f"unknown tensor dtype {dtype}")
    except (struct.error, ValueError, UnicodeDecodeError) as e:
        raise WeightsFormatError(f"truncated or corrupt weight file: {e}") from e
    return tensors, meta


def _topology(cls, meta, tensors: dict[str, np.ndarray], tensor_shapes):
    """The topology that meta describes, after checking that the file holds
    exactly the tensors, by name and shape, that tensor_shapes lists for it."""
    raw = meta.get("topology") if isinstance(meta, dict) else None
    if not isinstance(raw, dict):
        raise WeightsFormatError("weight file meta has no topology object")
    fields = {f.name for f in dataclasses.fields(cls)}
    if set(raw) != fields:
        raise WeightsFormatError(f"topology keys: missing {sorted(fields - set(raw))}, "
                                 f"unknown {sorted(set(raw) - fields)}")
    try:
        # JSON has no tuples; the topologies are frozen, so their sequences are
        topo = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        expected = tensor_shapes(topo)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise WeightsFormatError(f"bad topology {raw}: {e}") from e
    got = {k: x.shape for k, x in tensors.items()}
    bad = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
    if bad:
        raise WeightsFormatError(f"tensors do not match the topology: {bad}")
    return topo


def save_detector(w, quantize: bool = False) -> bytes:
    """With quantize, every tensor is stored as q8: the 8-bit model is
    load_detector(save_detector(fold_batchnorm(w), quantize=True))."""
    meta = {"topology": dataclasses.asdict(w.topology), "quantized": quantize}
    return save_tensors(DETECTOR_MAGIC, w.tensors, meta, quantize=quantize)


def load_detector(data: bytes) -> detector.DetectorWeights:
    tensors, meta = load_tensors(data, DETECTOR_MAGIC)
    topo = _topology(detector.DetectorTopology, meta, tensors, detector.tensor_shapes)
    return detector.DetectorWeights(topology=topo, tensors=tensors)


def save_embedder(w) -> bytes:
    return save_tensors(EMBEDDER_MAGIC, w.tensors, {"topology": dataclasses.asdict(w.topology)})


def load_embedder(data: bytes) -> embedder.EmbedderWeights:
    tensors, meta = load_tensors(data, EMBEDDER_MAGIC)
    topo = _topology(embedder.EmbedderTopology, meta, tensors, embedder.tensor_shapes)
    return embedder.EmbedderWeights(topology=topo, tensors=tensors)
