"""Compressed fingerprint index: k-means partitioner + product quantization.

Database fingerprints are assigned to a coarse partition, and the residual
(fingerprint minus partition centroid) is product-quantized to M one-byte
codes. Search probes the partitions nearest the query until they cover the
configured fraction of the database, then ranks codes by asymmetric
distance computed via per-subspace lookup tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


def kmeans(data: np.ndarray, k: int, seed: int = 0, iters: int = 15):
    """Lloyd's algorithm with k-means++ init.

    Returns (centroids, assignments, objective_history, sq_distances), the
    last two for the final centroids; the total within-cluster squared
    distance is non-increasing per iteration. Empty clusters keep their
    previous centroid.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n < k:
        raise ValueError(f"{n} points is fewer than k={k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    centroids[0] = data[rng.integers(n)]
    d2 = ((data - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = data[rng.integers(n)]
        else:
            centroids[j] = data[rng.choice(n, p=d2 / total)]
        np.minimum(d2, ((data - centroids[j]) ** 2).sum(axis=1), out=d2)
    history = []
    columns = np.ascontiguousarray(data.T)
    for _ in range(iters):
        assign, dist2 = kernels.assign_nearest(data, centroids)
        history.append(float(dist2.sum()))
        counts = np.bincount(assign, minlength=k)
        # per-column bincount sums in input order, like a scatter-add
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    assign, dist2 = kernels.assign_nearest(data, centroids)
    return centroids, assign, history, dist2


@dataclass
class PartitionerModel:
    centroids: np.ndarray  # (P, d) float32

    @property
    def n_partitions(self) -> int:
        return len(self.centroids)

    def assign(self, x: np.ndarray) -> np.ndarray:
        idx, _ = kernels.assign_nearest(np.atleast_2d(x), self.centroids)
        return idx


@dataclass
class PQCodebook:
    centroids: np.ndarray  # (M, 256, d/M) float32

    @property
    def n_subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.centroids.shape[2]


def default_partition_count(n: int) -> int:
    return max(1, math.ceil(math.sqrt(n)))


def train_partitioner(data: np.ndarray, p: int, seed: int = 0, iters: int = 15) -> PartitionerModel:
    """k-means partitioner over fingerprints (deterministic given seed)."""
    centroids, _, _, _ = kmeans(data, p, seed=seed, iters=iters)
    return PartitionerModel(centroids=centroids.astype(np.float32))


def train_pq(data: np.ndarray, m: int, seed: int = 0, iters: int = 15,
             max_train: int = 65536) -> tuple[PQCodebook, float]:
    """Independent 256-centroid k-means per subspace slice.

    data should already be residuals (fingerprint minus partition centroid).
    Returns the codebook and the mean quantization error ||x - x~|| over the
    training sample.
    """
    data = np.asarray(data, dtype=np.float64)
    d = data.shape[1]
    if d % m != 0:
        raise ValueError(f"dimension {d} not divisible by {m} subspaces")
    if data.shape[0] < 256:
        raise ValueError(f"need at least 256 training points, got {data.shape[0]}")
    rng = np.random.default_rng(seed)
    if data.shape[0] > max_train:
        data = data[rng.choice(data.shape[0], size=max_train, replace=False)]
    sub = d // m
    cents = np.empty((m, 256, sub), dtype=np.float32)
    err2 = np.zeros(data.shape[0])
    for j in range(m):
        sl = data[:, j * sub : (j + 1) * sub]
        uniq = np.unique(sl, axis=0)
        if len(uniq) <= 256:
            # fewer distinct points than centroids: place centroids on them
            c = np.zeros((256, sub))
            c[: len(uniq)] = uniq
            c[len(uniq) :] = uniq[0]
            _, d2 = kernels.assign_nearest(sl, c)
        else:
            c, _, _, d2 = kmeans(sl, 256, seed=seed + j, iters=iters)
        cents[j] = c
        err2 += d2
    return PQCodebook(centroids=cents), float(np.sqrt(err2).mean())


def pq_encode(residuals: np.ndarray, cb: PQCodebook) -> np.ndarray:
    """(n, d) residuals -> (n, M) uint8 codes."""
    residuals = np.atleast_2d(residuals)
    m, sub = cb.n_subspaces, cb.sub_dim
    codes = np.empty((residuals.shape[0], m), dtype=np.uint8)
    for j in range(m):
        idx, _ = kernels.assign_nearest(residuals[:, j * sub : (j + 1) * sub], cb.centroids[j])
        codes[:, j] = idx
    return codes


def pq_decode(codes: np.ndarray, cb: PQCodebook) -> np.ndarray:
    """(n, M) codes -> (n, d) reconstructed residuals."""
    codes = np.atleast_2d(codes)
    if codes.dtype != np.uint8:
        if codes.min() < 0 or codes.max() > 255:
            raise ValueError("code byte out of codebook range")
        codes = codes.astype(np.uint8)
    m, sub = cb.n_subspaces, cb.sub_dim
    out = np.empty((codes.shape[0], m * sub), dtype=np.float32)
    for j in range(m):
        out[:, j * sub : (j + 1) * sub] = cb.centroids[j][codes[:, j]]
    return out


def compression_ratio(d: int, m: int) -> float:
    """Bytes of a float32 fingerprint over bytes of its PQ code."""
    return (d * 4) / m


@dataclass
class SearchHit:
    song_id: int
    offset_s: int
    approx_distance: float


@dataclass
class SearchStats:
    scanned: int = 0
    total: int = 0

    @property
    def scanned_fraction(self) -> float:
        return self.scanned / self.total if self.total else 0.0


class FingerprintIndex:
    """Immutable IVF-PQ index over a fingerprint database."""

    def __init__(self, partitioner: PartitionerModel, codebook: PQCodebook,
                 codes: np.ndarray, partition_ids: np.ndarray,
                 song_ids: np.ndarray, offsets: np.ndarray,
                 coverage: float = 0.02, min_scan_points: int = 256):
        self.partitioner = partitioner
        self.codebook = codebook
        self.codes = np.ascontiguousarray(codes, dtype=np.uint8)
        self.partition_ids = np.asarray(partition_ids, dtype=np.int32)
        self.song_ids = np.asarray(song_ids, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int32)
        self.coverage = coverage
        self.min_scan_points = min_scan_points
        p = partitioner.n_partitions
        order = np.argsort(self.partition_ids, kind="stable")
        self._posting_order = order.astype(np.int64)
        counts = np.bincount(self.partition_ids, minlength=p)
        self._posting_starts = np.concatenate([[0], np.cumsum(counts)])

    @property
    def dim(self) -> int:
        return self.partitioner.centroids.shape[1]

    @property
    def n_points(self) -> int:
        return len(self.codes)

    def posting(self, pid: int) -> np.ndarray:
        return self._posting_order[self._posting_starts[pid] : self._posting_starts[pid + 1]]

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Reconstruct approximate fingerprints for global indices."""
        idx = np.atleast_1d(idx)
        res = pq_decode(self.codes[idx], self.codebook)
        return res + self.partitioner.centroids[self.partition_ids[idx]]

    def decode_all(self) -> np.ndarray:
        return self.decode(np.arange(self.n_points))

    def _probe_list(self, q: np.ndarray, probes: int | None) -> np.ndarray:
        cd2 = ((self.partitioner.centroids.astype(np.float64) - q) ** 2).sum(axis=1)
        order = np.argsort(cd2, kind="stable")
        if probes is not None:
            return order[:probes]
        # coverage drives large DBs; the point floor keeps small DBs useful
        target = max(self.coverage * self.n_points,
                     min(self.min_scan_points, self.n_points))
        counts = self._posting_starts[order + 1] - self._posting_starts[order]
        cum = np.cumsum(counts)
        need = int(np.searchsorted(cum, target)) + 1
        return order[: max(1, min(need, len(order)))]

    def search_topk(self, q: np.ndarray, k: int, probes: int | None = None,
                    stats: SearchStats | None = None) -> list[SearchHit]:
        """Top-k hits by asymmetric distance over the probed partitions.

        probes=None probes the nearest partitions covering the configured
        fraction of the DB; probes=P scans everything (exhaustive). Ties are
        broken by (distance, song_id, offset).
        """
        if self.n_points == 0:
            raise ValueError("empty index")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(q, dtype=np.float64).ravel()
        if stats is None:
            stats = SearchStats()
        stats.total += self.n_points
        m, sub = self.codebook.n_subspaces, self.codebook.sub_dim
        hits_idx = []
        hits_dist = []
        for pid in self._probe_list(q, probes):
            members = self.posting(pid)
            if len(members) == 0:
                continue
            stats.scanned += len(members)
            r = (q - self.partitioner.centroids[pid]).astype(np.float32)
            lut = ((r.reshape(m, 1, sub) - self.codebook.centroids) ** 2).sum(axis=2)
            dists = kernels.pq_scan(lut.astype(np.float32), self.codes[members])
            hits_idx.append(members)
            hits_dist.append(dists)
        if not hits_idx:
            return []
        idx = np.concatenate(hits_idx)
        dist = np.concatenate(hits_dist)
        order = np.lexsort((self.offsets[idx], self.song_ids[idx], dist))[:k]
        sel = idx[order]
        return [
            SearchHit(song_id=int(s), offset_s=int(o), approx_distance=float(d))
            for s, o, d in zip(self.song_ids[sel], self.offsets[sel], dist[order])
        ]


def train_index_models(fingerprints: np.ndarray, p: int | None = None,
                       m: int | None = None, seed: int = 0) -> tuple[PartitionerModel, PQCodebook]:
    """Train the partitioner, then PQ on the residuals, over (n, d) float32
    fingerprints in the order given. Defaults: P = ceil(sqrt(N)), M = d/8."""
    n, d = fingerprints.shape
    partitioner = train_partitioner(fingerprints, p or default_partition_count(n), seed=seed)
    residuals = fingerprints - partitioner.centroids[partitioner.assign(fingerprints)]
    codebook, _ = train_pq(residuals, m or max(1, d // 8), seed=seed)
    return partitioner, codebook


def encode_index(fingerprints: np.ndarray, song_ids: np.ndarray, offsets: np.ndarray,
                 partitioner: PartitionerModel, codebook: PQCodebook,
                 coverage: float = 0.02) -> FingerprintIndex:
    """Assign each fingerprint to its partition and PQ-encode the residual."""
    pids = partitioner.assign(fingerprints)
    codes = pq_encode(fingerprints - partitioner.centroids[pids], codebook)
    return FingerprintIndex(partitioner, codebook, codes, pids, song_ids, offsets, coverage)


def build_index(fingerprints: np.ndarray, song_ids: np.ndarray, offsets: np.ndarray,
                p: int | None = None, m: int | None = None, seed: int = 0,
                coverage: float = 0.02) -> FingerprintIndex:
    """Train partitioner + PQ on the database fingerprints and encode them."""
    fingerprints = np.asarray(fingerprints, dtype=np.float32)
    models = train_index_models(fingerprints, p, m, seed)
    return encode_index(fingerprints, song_ids, offsets, *models, coverage=coverage)
