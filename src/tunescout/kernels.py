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
    """Nearest centroid index and squared distance for each row of x.

    Distances are ||c||^2 - 2 x.c + ||x||^2, with the -2 folded into the
    centroids once: scaling by a power of two is exact, so the products equal
    -2 * (x @ centroids.T) bit for bit. One argmin pass per chunk finds the
    first nearest centroid, and its distance is read at that index.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    n = x.shape[0]
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    neg2_t = (-2.0 * centroids).T
    chunk = max(1, int(4e6) // max(1, centroids.shape[0]))
    for s in range(0, n, chunk):
        xs = x[s : s + chunk]
        d = xs @ neg2_t
        d += c_sq[None, :]
        d += np.einsum("nd,nd->n", xs, xs)[:, None]
        i = np.argmin(d, axis=1)
        idx[s : s + chunk] = i
        d2[s : s + chunk] = np.maximum(np.take_along_axis(d, i[:, None], axis=1)[:, 0], 0.0)
    return idx, d2


def knn_radius(points, song_ids, offsets, k, exclude_s):
    """Distance to the k-th nearest neighbor for each point.

    Neighbors from the same song within exclude_s >= 0 seconds are skipped so
    a song's own temporal context does not count as density. Sorted by
    (song, offset), each point's skipped neighbors form one run [lo, hi) that
    searchsorted finds, and each chunk sets just those cells to inf.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    song_ids = np.ascontiguousarray(song_ids, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n = points.shape[0]
    out = np.empty(n, dtype=np.float64)
    # one int64 key per point orders it by (song, offset); a span of
    # max offset + 2 * exclude_s + 1 keeps every window inside its own song
    _, song_rank = np.unique(song_ids, return_inverse=True)
    rel = offsets - offsets.min()
    key = song_rank * (int(rel.max()) + 2 * exclude_s + 1) + rel
    order = np.argsort(key)
    sorted_key = key[order]
    lo = np.searchsorted(sorted_key, key - exclude_s, "left")
    hi = np.searchsorted(sorted_key, key + exclude_s, "right")
    p_sq = np.einsum("nd,nd->n", points, points)
    chunk = max(1, int(4e6) // n)
    for s in range(0, n, chunk):
        ps = points[s : s + chunk]
        d = ps @ points.T
        d *= -2.0
        d += p_sq[None, :]
        d += p_sq[s : s + chunk, None]
        np.maximum(d, 0.0, out=d)
        count = hi[s : s + chunk] - lo[s : s + chunk]
        start = np.repeat(lo[s : s + chunk] - np.cumsum(count) + count, count)
        d[np.repeat(np.arange(len(ps)), count), order[start + np.arange(count.sum())]] = np.inf
        kth = np.partition(d, k - 1, axis=1)[:, k - 1]
        out[s : s + chunk] = kth
    return np.sqrt(out)
