"""Hot numeric kernels in numpy.

Centroid assignment and k-NN radii are chunked dense matrix products, so
BLAS does the arithmetic while the (chunk, k) distance matrix stays small.
"""

import numpy as np


def pq_scan(lut, codes):
    """Asymmetric distances: sum per-subspace table entries for each code row.

    lut: (M, 256) per-subspace distance table, codes: (n, M) uint8. The
    entries are gathered and added one subspace at a time, in order, in the
    table's dtype.
    """
    out = np.zeros(len(codes), dtype=lut.dtype)
    for j in range(lut.shape[0]):
        out += lut[j].take(codes[:, j])
    return out


def assign_nearest(x, centroids):
    """Nearest centroid index and squared distance for each row of x."""
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


def knn_radius(points, song_ids, offsets, k, exclude_s=2):
    """Distance to the k-th nearest neighbor for each point.

    Neighbors from the same song within exclude_s seconds are skipped so a
    song's own temporal context does not count as density.
    """
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
