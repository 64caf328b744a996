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

MIN_SCAN_POINTS = 256  # a search scans at least this many points (or all)
PQ_CENTROIDS = 256  # codewords per PQ subspace: one uint8 code each
COVERAGE = 0.02  # a search probes partitions until they hold this share of the DB
PQ_MAX_TRAIN = 65536  # train_pq fits its codebooks on a sample of at most this many points


def _sq_dist8(columns: np.ndarray, c: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """||x - c||^2 for each column x of an (8, n) array, written into buf.

    Equals ((columns.T - c) ** 2).sum(axis=1) bit for bit: numpy sums a row
    of eight values pairwise, ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), and the
    columns are added in that order, one vector op per step instead of one
    reduction per row. numpy's order differs at other widths. Returns a view
    of buf.
    """
    np.subtract(columns, c[:, None], out=buf)
    np.square(buf, out=buf)
    buf[0::2] += buf[1::2]
    buf[0::4] += buf[2::4]
    buf[0] += buf[4]
    return buf[0]


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
    columns = np.ascontiguousarray(data.T)
    # the column form is exact only at width 8, every PQ subspace (M = d/8);
    # other widths keep the row expression
    buf = np.empty_like(columns) if data.shape[1] == 8 else None

    def sq_dist(c):
        if buf is None:
            return ((data - c) ** 2).sum(axis=1)
        return _sq_dist8(columns, c, buf)

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    centroids[0] = data[rng.integers(n)]
    d2 = sq_dist(centroids[0]).copy()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = data[rng.integers(n)]
        else:
            centroids[j] = data[rng.choice(n, p=d2 / total)]
        np.minimum(d2, sq_dist(centroids[j]), out=d2)
    history = []
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
    centroids: np.ndarray  # (M, PQ_CENTROIDS, d/M) float32

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
    if p < 1:
        raise ValueError(f"need at least one partition, got {p}")
    centroids, _, _, _ = kmeans(data, p, seed=seed, iters=iters)
    return PartitionerModel(centroids=centroids.astype(np.float32))


def train_pq(data: np.ndarray, m: int, seed: int = 0, iters: int = 15) -> tuple[PQCodebook, float]:
    """Independent PQ_CENTROIDS-centroid k-means per subspace slice.

    data should already be residuals (fingerprint minus partition centroid).
    Returns the codebook and the mean quantization error ||x - x~|| over the
    training sample.
    """
    data = np.asarray(data, dtype=np.float64)
    d = data.shape[1]
    if d % m != 0:
        raise ValueError(f"dimension {d} not divisible by {m} subspaces")
    if data.shape[0] < PQ_CENTROIDS:
        raise ValueError(f"need at least {PQ_CENTROIDS} training points, got {data.shape[0]}")
    rng = np.random.default_rng(seed)
    if data.shape[0] > PQ_MAX_TRAIN:
        data = data[rng.choice(data.shape[0], size=PQ_MAX_TRAIN, replace=False)]
    sub = d // m
    cents = np.empty((m, PQ_CENTROIDS, sub), dtype=np.float32)
    err2 = np.zeros(data.shape[0])
    for j in range(m):
        sl = data[:, j * sub : (j + 1) * sub]
        uniq = np.unique(sl, axis=0)
        if len(uniq) <= PQ_CENTROIDS:
            # fewer distinct points than centroids: place centroids on them
            c = np.zeros((PQ_CENTROIDS, sub))
            c[: len(uniq)] = uniq
            c[len(uniq) :] = uniq[0]
            _, d2 = kernels.assign_nearest(sl, c)
        else:
            c, _, _, d2 = kmeans(sl, PQ_CENTROIDS, seed=seed + j, iters=iters)
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
                 coverage: float = COVERAGE):
        self.partitioner = partitioner
        self.codebook = codebook
        self.codes = np.ascontiguousarray(codes, dtype=np.uint8)
        self.partition_ids = np.asarray(partition_ids, dtype=np.int32)
        self.song_ids = np.asarray(song_ids, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int32)
        self.coverage = coverage
        p = partitioner.n_partitions
        order = np.argsort(self.partition_ids, kind="stable")
        self._posting_order = order.astype(np.int64)
        counts = np.bincount(self.partition_ids, minlength=p)
        self._posting_starts = np.concatenate([[0], np.cumsum(counts)])
        self._terms = None  # built by the first search
        self._centroids64 = None  # likewise

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

    def _centroids_f64(self) -> np.ndarray:
        """The (P, d) partition centroids as float64, converted once and kept."""
        if self._centroids64 is None:
            self._centroids64 = self.partitioner.centroids.astype(np.float64)
        return self._centroids64

    def _probe_list(self, q: np.ndarray, probes: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Partitions to scan for q, nearest first, and ||q - c_p||^2 for every p."""
        cd2 = ((self._centroids_f64() - q) ** 2).sum(axis=1)
        order = np.argsort(cd2, kind="stable")
        if probes is not None:
            return order[:probes], cd2
        # coverage drives large DBs; the point floor keeps small DBs useful
        target = max(self.coverage * self.n_points,
                     min(MIN_SCAN_POINTS, self.n_points))
        counts = self._posting_starts[order + 1] - self._posting_starts[order]
        cum = np.cumsum(counts)
        need = int(np.searchsorted(cum, target)) + 1
        return order[: max(1, min(need, len(order)))], cd2

    def _partition_terms(self) -> np.ndarray:
        """Query-independent part of each fingerprint's ADC distance.

        ||q - c_p - y||^2 = ||q - c_p||^2 + sum_j (-2<q_j, b_jk> + B[p, j, k])
        with B[p, j, k] = 2<c_pj, b_jk> + ||b_jk||^2 (Jegou et al. 2011,
        IVFADC). Each fingerprint has one partition, so its B terms are
        summed once, on the first search, and kept: one float64 per
        fingerprint. Loading the index does not build them.
        """
        if self._terms is None:
            m, sub = self.codebook.n_subspaces, self.codebook.sub_dim
            cents = self._centroids_f64()
            cb = self.codebook.centroids.astype(np.float64)
            rows = self.partition_ids.astype(np.intp) * PQ_CENTROIDS
            terms = np.zeros(self.n_points)
            for j in range(m):
                # einsum, not a BLAS product that would wake a second thread
                b = 2.0 * np.einsum("ps,ks->pk", cents[:, j * sub : (j + 1) * sub], cb[j]) \
                    + (cb[j] ** 2).sum(axis=1)
                terms += b.ravel().take(rows + self.codes[:, j])
            self._terms = terms
        return self._terms

    def search_batch(self, queries: np.ndarray, k: int, probes: int | None = None,
                     stats: SearchStats | None = None) -> list[list[SearchHit]]:
        """Top-k hits for each row of queries (Q, d) by asymmetric distance
        over that row's probed partitions.

        probes=None probes the nearest partitions covering the configured
        fraction of the DB; probes=P scans everything (exhaustive). The
        per-query tables -2<q_j, b_jk> of all rows are built in one product;
        distances are rounded to float32 and ties broken by (distance,
        song_id, offset), the top k selected exactly.
        """
        if self.n_points == 0:
            raise ValueError("empty index")
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if stats is None:
            stats = SearchStats()
        m, sub = self.codebook.n_subspaces, self.codebook.sub_dim
        cb = self.codebook.centroids.astype(np.float64)
        # -2<q_j, b_jk> for every row: one small product per subspace
        luts = -2.0 * np.matmul(queries.reshape(len(queries), m, sub).transpose(1, 0, 2),
                                cb.transpose(0, 2, 1)).transpose(1, 0, 2)
        terms = self._partition_terms()
        out = []
        for q, lut in zip(queries, luts):
            pids, cd2 = self._probe_list(q, probes)
            members = np.concatenate([self.posting(p) for p in pids])
            lens = self._posting_starts[pids + 1] - self._posting_starts[pids]
            stats.total += self.n_points
            stats.scanned += len(members)
            dist = kernels.pq_scan(lut, self.codes[members])
            dist += np.repeat(cd2[pids], lens)
            dist += terms[members]
            out.append(self._top_k(members, dist.astype(np.float32), k))
        return out

    def _top_k(self, members: np.ndarray, dist: np.ndarray, k: int) -> list[SearchHit]:
        """The k smallest by (distance, song_id, offset); only rows at or
        below the k-th distance are sorted."""
        if len(dist) > k:
            keep = dist <= np.partition(dist, k - 1)[k - 1]
            members, dist = members[keep], dist[keep]
        order = np.lexsort((self.offsets[members], self.song_ids[members], dist))[:k]
        sel = members[order]
        return [SearchHit(song_id=s, offset_s=o, approx_distance=d)
                for s, o, d in zip(self.song_ids[sel].tolist(), self.offsets[sel].tolist(),
                                   dist[order].tolist())]

    def search_topk(self, q: np.ndarray, k: int, probes: int | None = None,
                    stats: SearchStats | None = None) -> list[SearchHit]:
        """Top-k hits for one vector: search_batch of a single row."""
        return self.search_batch(np.ravel(q)[None], k, probes, stats)[0]


def train_index_models(fingerprints: np.ndarray, p: int | None = None,
                       m: int | None = None, seed: int = 0) -> tuple[PartitionerModel, PQCodebook]:
    """Train the partitioner, then PQ on the residuals, over (n, d) float32
    fingerprints in the order given. Defaults: P = ceil(sqrt(N)), M = d/8."""
    n, d = fingerprints.shape
    p = default_partition_count(n) if p is None else p
    partitioner = train_partitioner(fingerprints, p, seed=seed)
    residuals = fingerprints - partitioner.centroids[partitioner.assign(fingerprints)]
    codebook, _ = train_pq(residuals, m or max(1, d // 8), seed=seed)
    return partitioner, codebook


def encode_index(fingerprints: np.ndarray, song_ids: np.ndarray, offsets: np.ndarray,
                 partitioner: PartitionerModel, codebook: PQCodebook) -> FingerprintIndex:
    """Assign each fingerprint to its partition and PQ-encode the residual."""
    pids = partitioner.assign(fingerprints)
    codes = pq_encode(fingerprints - partitioner.centroids[pids], codebook)
    return FingerprintIndex(partitioner, codebook, codes, pids, song_ids, offsets)

