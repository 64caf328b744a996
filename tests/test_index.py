"""IVF-PQ index: k-means trainers, encode/decode, and top-K search."""

import numpy as np
import pytest

from tunescout import kernels
from tunescout.index import (
    FingerprintIndex,
    PQCodebook,
    SearchStats,
    build_index,
    compression_ratio,
    default_partition_count,
    encode_index,
    kmeans,
    pq_decode,
    pq_encode,
    train_index_models,
    train_partitioner,
    train_pq,
)


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def structured_db():
    """Synthetic fingerprint-like DB: unit vectors clustered per song."""
    rng = np.random.default_rng(5)
    n_songs, per_song, d = 40, 30, 32
    bases = _unit_rows(rng.standard_normal((n_songs, d)))
    fps, songs, offs = [], [], []
    for s in range(n_songs):
        pts = _unit_rows(bases[s] + 0.25 * rng.standard_normal((per_song, d)))
        fps.append(pts)
        songs.append(np.full(per_song, s))
        offs.append(np.arange(per_song))
    return (np.concatenate(fps).astype(np.float32),
            np.concatenate(songs).astype(np.int32),
            np.concatenate(offs).astype(np.int32))


@pytest.fixture(scope="module")
def built(structured_db):
    fps, songs, offs = structured_db
    return build_index(fps, songs, offs, seed=1), fps


# ----------------------------------------------------------------- k-means

def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 4))
    cents, assign, _, _ = kmeans(data, 1, seed=0)
    assert np.allclose(cents[0], data.mean(axis=0), atol=1e-9)
    assert np.all(assign == 0)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    means = np.array([[10, 0], [-10, 0], [0, 10], [0, -10]], dtype=float)
    data = np.concatenate([m + 0.05 * rng.standard_normal((50, 2)) for m in means])
    cents, _, _, _ = kmeans(data, 4, seed=3)
    for m in means:
        assert np.min(np.linalg.norm(cents - m, axis=1)) < 0.1


def test_kmeans_k_equals_n_zero_error():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((16, 3))
    cents, assign, hist, d2 = kmeans(data, 16, seed=0)
    assert np.array_equal(d2, kernels.assign_nearest(data, cents)[1])
    assert np.allclose(d2, 0.0, atol=1e-12)


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((500, 8))
    _, _, hist, _ = kmeans(data, 10, seed=0, iters=12)
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def _reference_assign(x, centroids):
    """Nearest centroid by the same distance expansion, gathering d[i, argmin]."""
    d = x @ centroids.T
    d *= -2.0
    d += np.einsum("kd,kd->k", centroids, centroids)[None, :]
    d += np.einsum("nd,nd->n", x, x)[:, None]
    ii = np.argmin(d, axis=1)
    return ii, np.maximum(d[np.arange(len(ii)), ii], 0.0)


def _reference_kmeans(data, k, seed, iters=15):
    """k-means++ then Lloyd with a scatter-add (np.add.at) centroid update."""
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2 = ((data - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = data[rng.integers(n)]
        else:
            centroids[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centroids[j]) ** 2).sum(axis=1))
    history = []
    for _ in range(iters):
        assign, dist2 = _reference_assign(data, centroids)
        history.append(float(dist2.sum()))
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    assign, dist2 = _reference_assign(data, centroids)
    return centroids, assign, history, dist2


def test_kmeans_matches_scatter_add_reference_exactly():
    data = np.random.default_rng(8).standard_normal((3000, 8))
    got = kmeans(data, 256, seed=4)
    want = _reference_kmeans(data, 256, seed=4)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert np.array_equal(got[3], want[3])


def test_kmeans_too_few_points():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 5)


def test_default_partition_count():
    assert default_partition_count(100_000) == 317
    assert default_partition_count(1) == 1


# --------------------------------------------------------------------- PQ

def test_train_pq_exact_on_few_distinct_points():
    rng = np.random.default_rng(4)
    vocab = rng.standard_normal((256, 4))
    data = vocab[rng.integers(0, 256, size=2000)]
    cb, err = train_pq(data, m=2, seed=0)
    assert err < 1e-6
    assert np.allclose(pq_decode(pq_encode(data, cb), cb), data, atol=1e-5)


def test_train_pq_beats_random_codebook():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((3000, 16))
    cb, err = train_pq(data, m=2, seed=0)
    rand_cb = PQCodebook(centroids=rng.standard_normal((2, 256, 8)).astype(np.float32))
    rand_err = np.linalg.norm(data - pq_decode(pq_encode(data, rand_cb), rand_cb), axis=1).mean()
    assert err <= rand_err


def test_train_pq_error_matches_reference():
    # mean ||x - x~|| over the sample, from reference k-means per subspace
    data = np.random.default_rng(9).standard_normal((2000, 16))
    _, err = train_pq(data, m=2, seed=3, iters=8)
    err2 = np.zeros(len(data))
    for j in range(2):
        sl = np.ascontiguousarray(data[:, j * 8 : (j + 1) * 8])
        err2 += _reference_kmeans(sl, 256, seed=3 + j, iters=8)[3]
    assert err == float(np.sqrt(err2).mean())


def test_train_pq_validates_inputs():
    with pytest.raises(ValueError):
        train_pq(np.zeros((300, 7)), m=2)
    with pytest.raises(ValueError):
        train_pq(np.zeros((100, 8)), m=2)


def test_pq_argmin_matches_exact_argmin_mostly(structured_db):
    fps, _, _ = structured_db
    cb, _ = train_pq(fps, m=4, seed=0)
    recon = pq_decode(pq_encode(fps, cb), cb)
    rng = np.random.default_rng(7)
    agree = 0
    queries = fps[rng.choice(len(fps), 100, replace=False)] + \
        0.05 * rng.standard_normal((100, fps.shape[1])).astype(np.float32)
    for q in queries:
        exact = np.argmin(((fps - q) ** 2).sum(axis=1))
        approx = np.argmin(((recon - q) ** 2).sum(axis=1))
        agree += exact == approx
    assert agree >= 90


def test_pq_decode_rejects_out_of_range_codes():
    cb = PQCodebook(centroids=np.zeros((2, 256, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        pq_decode(np.array([[0, 300]]), cb)


# ---------------------------------------------------------- encode/decode

def _encode_decode(x, part, cb):
    """Quantize rows of x into an index and reconstruct them."""
    n = len(x)
    idx = encode_index(x, np.zeros(n, np.int32), np.arange(n, dtype=np.int32), part, cb)
    return idx, idx.decode(np.arange(n))


def test_encode_decode_fixed_point(structured_db):
    fps, _, _ = structured_db
    part = train_partitioner(fps, 8, seed=0)
    cb, _ = train_pq(fps - part.centroids[part.assign(fps)], m=4, seed=0)
    idx, recon = _encode_decode(fps, part, cb)
    # every reconstructed residual re-encodes to itself
    res = recon - part.centroids[idx.partition_ids]
    assert np.allclose(pq_decode(pq_encode(res, cb), cb), res, atol=1e-5)
    # so does a reconstruction that stays nearest its own partition
    _, recon2 = _encode_decode(recon[:1], part, cb)
    assert np.allclose(recon2, recon[:1], atol=1e-5)
    # determinism
    again, _ = _encode_decode(fps, part, cb)
    assert np.array_equal(idx.codes, again.codes)
    assert np.array_equal(idx.partition_ids, again.partition_ids)


def test_code_size_and_compression_ratio():
    assert compression_ratio(96, 12) == 32.0
    assert compression_ratio(128, 16) == 32.0
    assert compression_ratio(64, 8) == 32.0


def test_decode_error_bounded_on_heldout(structured_db):
    fps, _, _ = structured_db
    train, held = fps[:900], fps[900:]
    part, cb = train_index_models(train, p=8, m=4, seed=0)
    def errs(x):
        return np.linalg.norm(x - _encode_decode(x, part, cb)[1], axis=1)
    assert errs(held).max() <= errs(train).max() * 2


# ----------------------------------------------------------------- search

def test_search_probes_all_equals_exhaustive_oracle(built):
    idx, fps = built
    rng = np.random.default_rng(9)
    recon = idx.decode_all()
    for _ in range(10):
        q = fps[rng.integers(len(fps))] + 0.1 * rng.standard_normal(fps.shape[1]).astype(np.float32)
        hits = idx.search_topk(q, 10, probes=idx.partitioner.n_partitions)
        # oracle: brute-force asymmetric distance = ||q - decode||^2 with the
        # same lexicographic tie-break
        d2 = ((recon - q.astype(np.float64)) ** 2).sum(axis=1)
        order = np.lexsort((idx.offsets, idx.song_ids, d2.astype(np.float32)))[:10]
        assert [(h.song_id, h.offset_s) for h in hits] == \
            [(int(idx.song_ids[i]), int(idx.offsets[i])) for i in order]


def test_lut_distance_equals_direct_distance(built):
    idx, fps = built
    q = fps[5].astype(np.float64)
    hits = idx.search_topk(q, 5, probes=idx.partitioner.n_partitions)
    recon = idx.decode_all()
    for h in hits:
        gi = np.nonzero((idx.song_ids == h.song_id) & (idx.offsets == h.offset_s))[0][0]
        direct = ((q - recon[gi]) ** 2).sum()
        assert abs(h.approx_distance - direct) < 1e-4


def test_hits_sorted_ascending(built):
    idx, fps = built
    hits = idx.search_topk(fps[0], 10)
    d = [h.approx_distance for h in hits]
    assert d == sorted(d)


def test_scanned_fraction_exact(built):
    idx, fps = built
    stats = SearchStats()
    probed = idx._probe_list(fps[0].astype(np.float64), None)
    expected = sum(len(idx.posting(p)) for p in probed)
    idx.search_topk(fps[0], 5, stats=stats)
    assert stats.scanned == expected
    assert stats.total == idx.n_points
    assert stats.scanned_fraction == expected / idx.n_points


def test_search_recall10_vs_float_bruteforce(built):
    idx, fps = built
    rng = np.random.default_rng(10)
    ok = 0
    picks = rng.choice(len(fps), 50, replace=False)
    for i in picks:
        q = fps[i] + 0.05 * rng.standard_normal(fps.shape[1]).astype(np.float32)
        truth = np.argmin(((fps - q) ** 2).sum(axis=1))
        hits = idx.search_topk(q, 10)
        ok += any(h.song_id == idx.song_ids[truth] and h.offset_s == idx.offsets[truth]
                  for h in hits)
    assert ok / len(picks) >= 0.9


def test_search_validates_args(built):
    idx, fps = built
    with pytest.raises(ValueError):
        idx.search_topk(fps[0], 0)


def test_empty_index_raises():
    part = train_partitioner(np.eye(8, dtype=np.float32), 2, seed=0)
    cb = PQCodebook(centroids=np.zeros((1, 256, 8), dtype=np.float32))
    idx = FingerprintIndex(part, cb, np.empty((0, 1), dtype=np.uint8),
                           np.empty(0, int), np.empty(0, int), np.empty(0, int))
    with pytest.raises(ValueError):
        idx.search_topk(np.zeros(8), 1)
