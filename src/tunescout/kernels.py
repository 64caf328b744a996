"""Hot numeric kernels in numpy.

Centroid assignment and k-NN radii are chunked dense matrix products, so
BLAS does the arithmetic while the (chunk, k) distance matrix stays small.
"""

import numpy as np

_BLOCK_ROWS = 512  # rows per assign_nearest block


def row_blocks(n, size):
    """(start, end) blocks of `size` rows over n rows, the last taking the
    remainder (size to 2 * size - 1 rows).

    OpenBLAS rounds a product of 64 or more rows the same as those rows
    inside one large product, but not a product of 1-48 rows, so with
    size >= 64 no block is short unless it is the whole input.
    """
    starts = list(range(0, n - size + 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n]))


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
    -2 * (x @ centroids.T) bit for bit. Rows are scored in row_blocks of 512
    into one reused distance buffer. One argmin pass per block finds the
    first nearest centroid, and its distance is read at that index.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    n = x.shape[0]
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    x_sq = np.einsum("nd,nd->n", x, x)
    neg2_t = (-2.0 * centroids).T
    blocks = row_blocks(n, _BLOCK_ROWS)
    d = np.empty((blocks[-1][1] - blocks[-1][0], centroids.shape[0]))  # the largest block
    for s, e in blocks:
        ds = d[: e - s]
        np.matmul(x[s:e], neg2_t, out=ds)
        ds += c_sq[None, :]
        ds += x_sq[s:e, None]
        i = np.argmin(ds, axis=1)
        idx[s:e] = i
        d2[s:e] = np.maximum(np.take_along_axis(ds, i[:, None], axis=1)[:, 0], 0.0)
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
