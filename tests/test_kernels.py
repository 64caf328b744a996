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


def _assign_nearest_reference(x, centroids):
    """The previous body of kernels.assign_nearest: -2 applied per chunk, a
    second pass for the minimum."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    n = x.shape[0]
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    chunk = max(1, int(4e6) // max(1, centroids.shape[0]))
    for s in range(0, n, chunk):
        xs = x[s : s + chunk]
        d = xs @ centroids.T
        d *= -2.0
        d += c_sq[None, :]
        d += np.einsum("nd,nd->n", xs, xs)[:, None]
        idx[s : s + chunk] = np.argmin(d, axis=1)
        d2[s : s + chunk] = np.maximum(d.min(axis=1), 0.0)
    return idx, d2


def _knn_radius_reference(points, song_ids, offsets, k, exclude_s):
    """The previous body of kernels.knn_radius: a chunk x n mask of same-song
    neighbours within exclude_s."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    song_ids = np.ascontiguousarray(song_ids, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n = points.shape[0]
    out = np.empty(n, dtype=np.float64)
    p_sq = np.einsum("nd,nd->n", points, points)
    chunk = max(1, int(4e6) // n)
    for s in range(0, n, chunk):
        ps = points[s : s + chunk]
        d = ps @ points.T
        d *= -2.0
        d += p_sq[None, :]
        d += p_sq[s : s + chunk, None]
        np.maximum(d, 0.0, out=d)
        same = song_ids[s : s + chunk, None] == song_ids[None, :]
        near = np.abs(offsets[s : s + chunk, None] - offsets[None, :]) <= exclude_s
        d[same & near] = np.inf
        kth = np.partition(d, k - 1, axis=1)[:, k - 1]
        out[s : s + chunk] = kth
    return np.sqrt(out)


def test_row_blocks_never_leave_a_short_last_block():
    assert kernels.row_blocks(0, 512) == [(0, 0)]
    assert kernels.row_blocks(40, 128) == [(0, 40)]
    assert kernels.row_blocks(255, 128) == [(0, 255)]
    assert kernels.row_blocks(256, 128) == [(0, 128), (128, 256)]
    assert kernels.row_blocks(1160, 512) == [(0, 512), (512, 1160)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_assign_nearest_equals_previous_body_and_first_duplicate_wins(rng, dtype):
    # 960 rows are one block; 3060 rows are five blocks of 512, the last
    # taking a 1012-row remainder; 1160 rows are 512 + 648
    for n, dim, k in [(900, 8, 40), (3000, 8, 256), (1100, 96, 70)]:
        cents = rng.standard_normal((k, dim))
        cents[[17, 33]] = cents[5]
        x = np.concatenate([rng.standard_normal((n, dim)),
                            cents[5] + 1e-3 * rng.standard_normal((60, dim))]).astype(dtype)
        idx, d2 = kernels.assign_nearest(x, cents)
        ref_idx, ref_d2 = _assign_nearest_reference(x, cents)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2, ref_d2)
        assert (idx[n:] == 5).all()
        assert not np.isin(idx, [17, 33]).any()


@pytest.mark.parametrize("exclude_s", [0, 2, 3])
def test_knn_radius_equals_previous_body(rng, exclude_s):
    # 2100 rows make a chunk (4e6 // n = 1904 rows) smaller than n
    songs = np.repeat(np.arange(21), 100)
    offsets = np.tile(np.arange(100), 21)
    offsets[5] = offsets[6]  # song 0 repeats an offset
    perm = rng.permutation(len(songs))
    pts = rng.standard_normal((len(songs), 8))
    got = kernels.knn_radius(pts, songs[perm], offsets[perm], 7, exclude_s)
    ref = _knn_radius_reference(pts, songs[perm], offsets[perm], 7, exclude_s)
    assert np.array_equal(got, ref)
