"""Test helper: an index built in one call, through the product's two
build steps (train_index_models, then encode_index)."""

import numpy as np

from tunescout.index import FingerprintIndex, encode_index, train_index_models


def build_index(fingerprints: np.ndarray, song_ids: np.ndarray, offsets: np.ndarray,
                p: int | None = None, m: int | None = None, seed: int = 0) -> FingerprintIndex:
    """Train partitioner + PQ on the database fingerprints and encode them."""
    fingerprints = np.asarray(fingerprints, dtype=np.float32)
    models = train_index_models(fingerprints, p, m, seed)
    return encode_index(fingerprints, song_ids, offsets, *models)
