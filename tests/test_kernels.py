"""Numeric kernels agree with brute-force oracles."""

import numpy as np
import pytest

from tunescout import kernels


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(11)


def test_pq_scan_matches_numpy_and_oracle(rng):
    lut = rng.standard_normal((12, 256)).astype(np.float32)
    codes = rng.integers(0, 256, size=(500, 12), dtype=np.uint8)
    got = kernels.pq_scan(lut, codes)
    oracle = np.array([sum(lut[j, codes[i, j]] for j in range(12)) for i in range(500)],
                      dtype=np.float32)
    assert got.dtype == np.float32
    assert np.allclose(got, oracle, atol=1e-4)


def test_pq_scan_adds_subspaces_in_order_in_the_table_dtype(rng):
    lut = rng.standard_normal((12, 256))
    codes = rng.integers(0, 256, size=(300, 12), dtype=np.uint8)
    got = kernels.pq_scan(lut, codes)
    oracle = np.zeros(300)
    for j in range(12):
        oracle += lut[j, codes[:, j]]
    assert got.dtype == np.float64
    assert np.array_equal(got, oracle)


def test_pq_scan_empty():
    lut = np.zeros((4, 256), dtype=np.float32)
    assert kernels.pq_scan(lut, np.empty((0, 4), dtype=np.uint8)).shape == (0,)


def test_assign_nearest_matches_numpy_and_oracle(rng):
    x = rng.standard_normal((300, 16))
    cents = rng.standard_normal((20, 16))
    idx, d2 = kernels.assign_nearest(x, cents)
    full = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(idx, full.argmin(axis=1))
    assert np.allclose(d2, full.min(axis=1), atol=1e-8)


def test_knn_radius_matches_numpy_and_oracle(rng):
    n, k = 120, 5
    pts = rng.standard_normal((n, 8))
    songs = rng.integers(0, 6, size=n)
    offs = rng.integers(0, 30, size=n)
    got = kernels.knn_radius(pts, songs, offs, k, exclude_s=2)
    oracle = np.empty(n)
    for i in range(n):
        ds = []
        for j in range(n):
            if songs[j] == songs[i] and abs(int(offs[j]) - int(offs[i])) <= 2:
                continue
            ds.append(np.sqrt(((pts[i] - pts[j]) ** 2).sum()))
        oracle[i] = sorted(ds)[k - 1]
    assert np.allclose(got, oracle, atol=1e-9)
