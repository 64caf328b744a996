"""Sequence matcher: candidate voting, density model, scoring, acceptance."""

from collections import Counter

import numpy as np
import pytest
from index_helper import build_index

from tunescout.index import SearchHit
from tunescout.match import (
    K_DENSITY,
    MAX_CANDIDATES,
    QUERY_PHASES,
    RADIUS_FLOOR,
    THETA_ABS,
    THETA_GAP,
    TOP_K,
    MatchResult,
    SequenceCandidate,
    adaptive_accept,
    collect_candidates,
    local_density,
    recognize,
    recognize_phases,
    score_candidates,
    score_sequence,
)


def _hit(song, off):
    return SearchHit(song_id=song, offset_s=off, approx_distance=0.1)


# ------------------------------------------------------------- candidates

def test_consistent_alignment_one_candidate():
    hits = [[_hit(7, 100 + i)] for i in range(8)]
    cands = collect_candidates(hits)
    assert len(cands) == 1
    assert (cands[0].song_id, cands[0].start_offset, cands[0].support) == (7, 100, 8)


def test_split_alignments_two_candidates():
    hits = [[_hit(3, 10 + i)] for i in range(5)] + [[_hit(3, 50 + i)] for i in range(3)]
    # steps 5..7 vote for alignment 50 - 5 = 45
    cands = collect_candidates(hits)
    supports = {(c.song_id, c.start_offset): c.support for c in cands}
    assert supports[(3, 10)] == 5
    assert supports[(3, 45)] == 3


def test_decoy_outranked_and_matches_bruteforce_recount():
    rng = np.random.default_rng(0)
    hits = []
    for i in range(8):
        step = [_hit(1, 20 + i)]  # true song: all 8 steps agree
        if i < 3:
            step.append(_hit(2, 5 + i))  # decoy shares 3 steps
        step.extend(_hit(int(rng.integers(3, 9)), int(rng.integers(0, 50))) for _ in range(3))
        hits.append(step)
    cands = collect_candidates(hits)
    assert (cands[0].song_id, cands[0].start_offset) == (1, 20)
    assert cands[0].support > next(c.support for c in cands if c.song_id == 2)
    # brute-force vote recount oracle
    votes = Counter()
    for i, step in enumerate(hits):
        for s, o in {(h.song_id, h.offset_s - i) for h in step}:
            votes[(s, o)] += 1
    for c in cands:
        assert votes[(c.song_id, c.start_offset)] == c.support


def test_empty_hits_empty_candidates():
    assert collect_candidates([[], [], []]) == []


def test_one_vote_per_step_per_alignment():
    hits = [[_hit(1, 5), _hit(1, 5)]]  # duplicate hit in one step
    assert collect_candidates(hits)[0].support == 1


# ----------------------------------------------------------------- density

def test_density_identical_points_floored():
    pts = np.tile(np.ones(4), (20, 1))
    songs = np.arange(20)
    offs = np.zeros(20, dtype=int)
    r = local_density(pts, songs, offs, k_density=5)
    assert np.all(r == RADIUS_FLOOR)


def test_density_outlier_larger_than_median():
    rng = np.random.default_rng(1)
    pts = np.concatenate([rng.standard_normal((50, 3)) * 0.1, [[50.0, 50.0, 50.0]]])
    songs = np.arange(51)
    offs = np.zeros(51, dtype=int)
    r = local_density(pts, songs, offs, k_density=4)
    assert r[-1] > np.median(r)


def test_density_matches_quadratic_oracle_1k_points():
    rng = np.random.default_rng(2)
    n, k = 1000, 16
    pts = rng.standard_normal((n, 8))
    songs = rng.integers(0, 25, size=n)
    offs = rng.integers(0, 60, size=n)
    r = local_density(pts, songs, offs, k_density=k)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    mask = (songs[:, None] == songs[None, :]) & (np.abs(offs[:, None] - offs[None, :]) <= 2)
    d2[mask] = np.inf
    oracle = np.sqrt(np.sort(d2, axis=1)[:, k - 1])
    assert np.allclose(r, np.maximum(oracle, 1e-3), atol=1e-9)


def test_density_needs_enough_points():
    with pytest.raises(ValueError):
        local_density(np.zeros((5, 2)), np.arange(5), np.zeros(5, int), k_density=16)


# ------------------------------------------------------------- sequencing

@pytest.fixture(scope="module")
def small_db():
    rng = np.random.default_rng(3)
    fps = rng.standard_normal((300, 16)).astype(np.float32)
    fps /= np.linalg.norm(fps, axis=1, keepdims=True)
    songs = np.repeat(np.arange(10), 30).astype(np.int32)
    offs = np.tile(np.arange(30), 10).astype(np.int32)
    idx = build_index(fps, songs, offs, seed=0)
    spans = {s: (s * 30, 30) for s in range(10)}
    radii = local_density(idx.decode_all(), songs, offs, 8)
    return idx, spans, radii


def test_score_exact_match_is_one(small_db):
    idx, spans, radii = small_db
    q = idx.decode(np.arange(5 * 30 + 3, 5 * 30 + 11))
    cand = SequenceCandidate(song_id=5, start_offset=3, support=8)
    assert score_sequence(q, cand, idx, spans, radii) == pytest.approx(1.0, abs=1e-9)


def test_score_far_query_near_zero(small_db):
    idx, spans, radii = small_db
    q = np.full((8, 16), 100.0, dtype=np.float32)
    cand = SequenceCandidate(song_id=5, start_offset=3, support=8)
    assert score_sequence(q, cand, idx, spans, radii) < 1e-6


def test_score_density_adaptivity_same_distance_scores_higher_in_sparse_region(small_db):
    idx, spans, _ = small_db
    q = idx.decode(np.arange(8)) + 0.3
    cand = SequenceCandidate(song_id=0, start_offset=0, support=8)
    sparse = np.full(idx.n_points, 2.0)
    dense = np.full(idx.n_points, 0.5)
    assert score_sequence(q, cand, idx, spans, sparse) > \
        score_sequence(q, cand, idx, spans, dense)


def test_score_out_of_bounds_steps_count_as_zero(small_db):
    idx, spans, radii = small_db
    q = idx.decode(np.arange(30 * 2 + 28, 30 * 2 + 30))  # last two fps of song 2
    cand = SequenceCandidate(song_id=2, start_offset=28, support=2)
    full = score_sequence(q, cand, idx, spans, radii)
    q_pad = np.concatenate([q, np.zeros((2, 16), dtype=np.float32)])
    padded = score_sequence(q_pad, cand, idx, spans, radii)
    assert padded == pytest.approx(full * 2 / 4, abs=1e-9)


def test_score_fully_outside_raises(small_db):
    idx, spans, radii = small_db
    cand = SequenceCandidate(song_id=2, start_offset=500, support=1)
    for r in (radii, np.ones(idx.n_points)):
        with pytest.raises(ValueError):
            score_sequence(np.zeros((3, 16), dtype=np.float32), cand, idx, spans, r)


def test_score_unit_radii_is_plain_l2_kernel(small_db):
    # the naive baseline of acceptance 10 is the adaptive scorer with r = 1
    idx, spans, _ = small_db
    rng = np.random.default_rng(6)
    q = (idx.decode(np.arange(4 * 30 + 26, 4 * 30 + 30))
         + 0.2 * rng.standard_normal((4, 16))).astype(np.float32)
    q = np.concatenate([q, np.zeros((2, 16), dtype=np.float32)])  # 2 steps past the end
    cand = SequenceCandidate(song_id=4, start_offset=26, support=4)
    d2 = ((q[:4] - idx.decode(np.arange(4 * 30 + 26, 4 * 30 + 30))) ** 2).sum(axis=1)
    expected = np.concatenate([np.exp(-d2.astype(np.float64)), np.zeros(2)]).mean()
    assert score_sequence(q, cand, idx, spans, np.ones(idx.n_points)) == expected


def test_scores_in_unit_interval(small_db):
    idx, spans, radii = small_db
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = rng.standard_normal((8, 16)).astype(np.float32)
        cand = SequenceCandidate(song_id=int(rng.integers(10)), start_offset=0, support=1)
        s = score_sequence(q, cand, idx, spans, radii)
        assert 0.0 <= s <= 1.0


def _score_sequence_reference(query_fps, cand, idx, spans, radii):
    """The per-candidate scorer as it was before candidates were batched."""
    t = len(query_fps)
    start, count = spans[cand.song_id]
    g = np.full(t, -1, dtype=np.int64)
    for i in range(t):
        off = cand.start_offset + i
        if 0 <= off < count:
            g[i] = start + off
    valid = g >= 0
    if not valid.any():
        raise ValueError("candidate alignment fully outside song bounds")
    d2 = ((query_fps[valid] - idx.decode(g[valid])) ** 2).sum(axis=1)
    r = radii[g[valid]]
    sims = np.zeros(t)
    sims[valid] = np.exp(-d2 / (r * r))
    return float(sims.mean())


def test_batched_scores_equal_per_candidate_reference(small_db):
    idx, spans, radii = small_db
    rng = np.random.default_rng(7)
    q = (idx.decode(np.arange(3 * 30 + 20, 3 * 30 + 30))
         + 0.1 * rng.standard_normal((10, 16))).astype(np.float32)
    cands = [SequenceCandidate(3, 20, 5), SequenceCandidate(3, -4, 1),  # starts before the song
             SequenceCandidate(3, 25, 1), SequenceCandidate(7, 0, 2),   # runs past its end
             SequenceCandidate(9, 29, 1), SequenceCandidate(2, 500, 1),
             SequenceCandidate(0, -10, 1)]                              # the last two: fully outside
    for r in (radii, np.ones(idx.n_points), rng.uniform(0.2, 2.0, idx.n_points)):
        scores, aligned = score_candidates(q, cands, idx, spans, r)
        assert scores.shape == (len(cands),)
        assert aligned.tolist() == [True] * 5 + [False] * 2
        for c, ok, s in zip(cands, aligned, scores):
            if not ok:
                assert s == 0.0
                with pytest.raises(ValueError):
                    _score_sequence_reference(q, c, idx, spans, r)
                with pytest.raises(ValueError):
                    score_sequence(q, c, idx, spans, r)
                continue
            expected = _score_sequence_reference(q, c, idx, spans, r)
            assert s == expected
            assert score_sequence(q, c, idx, spans, r) == expected


def _recognize_reference(phases, idx, spans, radii):
    """The matcher before pooling: per phase, one search per vector, voting,
    one score_sequence per candidate, acceptance; the best phase, first on ties."""
    best = None
    for fps in phases:
        hits = [idx.search_topk(q, TOP_K) for q in fps]
        scored = []
        for c in collect_candidates(hits, MAX_CANDIDATES):
            scored.append(MatchResult(c.song_id, c.start_offset,
                                      _score_sequence_reference(fps, c, idx, spans, radii),
                                      False, 0.0))
        result = adaptive_accept(scored, THETA_ABS, THETA_GAP)
        if best is None or result.score > best.score:
            best = result
    return best


def test_pooled_phases_equal_per_phase_loop(small_db):
    idx, spans, radii = small_db
    rng = np.random.default_rng(8)
    unit = np.ones(idx.n_points)
    for song, start, noise in ((6, 2, 0.15), (1, 20, 0.3), (4, 0, 0.6), (8, 25, 0.05)):
        seq = idx.decode(np.arange(song * 30 + start, song * 30 + min(30, start + 8)))
        phases = [(seq + noise * rng.standard_normal(seq.shape)).astype(np.float32)
                  for _ in range(4)]
        phases[3] = phases[3][:-2]  # the last phase is shorter, as in a real query
        for r in (radii, unit):
            got = recognize_phases(phases, idx, spans, r)
            assert got.to_dict() == _recognize_reference(phases, idx, spans, r).to_dict()
    # two phases that both score exactly 1: the first one is kept
    tied = [idx.decode(np.arange(6 * 30 + 2, 6 * 30 + 10)), idx.decode(np.arange(30 + 10, 30 + 18))]
    for r in (radii, unit):
        result = recognize_phases(tied, idx, spans, r)
        assert (result.song_id, result.offset_s, result.score) == (6, 2, 1.0)


# ------------------------------------------------------------- acceptance

def _mr(song, score):
    return MatchResult(song_id=song, offset_s=0, score=score, accepted=False, runner_up_score=0.0)


def test_accept_clear_winner():
    out = adaptive_accept([_mr(1, 0.9), _mr(2, 0.2)], theta_abs=0.5, theta_gap=0.1)
    assert out.accepted and out.song_id == 1 and out.runner_up_score == 0.2


def test_reject_ambiguous_gap():
    out = adaptive_accept([_mr(1, 0.9), _mr(2, 0.88)], theta_abs=0.5, theta_gap=0.1)
    assert not out.accepted


def test_gap_ignores_same_song_alternatives():
    scored = [_mr(1, 0.9), MatchResult(1, 3, 0.89, False, 0.0), _mr(2, 0.3)]
    out = adaptive_accept(scored, theta_abs=0.5, theta_gap=0.1)
    assert out.accepted and out.runner_up_score == 0.3


def test_single_candidate_only_abs_applies():
    assert adaptive_accept([_mr(1, 0.6)], theta_abs=0.5).accepted
    assert not adaptive_accept([_mr(1, 0.4)], theta_abs=0.5).accepted


def test_operating_point_constants():
    assert (TOP_K, MAX_CANDIDATES, K_DENSITY, RADIUS_FLOOR) == (20, 20, 16, 1e-3)
    assert (THETA_ABS, THETA_GAP, QUERY_PHASES) == (0.40, 0.05, 4)


def test_empty_candidates_no_match():
    out = adaptive_accept([])
    assert out.song_id == -1 and not out.accepted


# -------------------------------------------------------------- recognize

def test_recognize_exact_db_sequence(small_db):
    idx, spans, radii = small_db
    q = idx.decode(np.arange(7 * 30 + 4, 7 * 30 + 12))
    out = recognize(q, idx, spans, radii)
    assert out.accepted and out.song_id == 7 and out.offset_s == 4
    assert out.score == pytest.approx(1.0, abs=1e-6)


def test_recognize_noise_rejected(small_db):
    idx, spans, radii = small_db
    rng = np.random.default_rng(5)
    q = rng.standard_normal((8, 16)).astype(np.float32)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    assert not recognize(q, idx, spans, radii).accepted


def test_recognize_empty_query_raises(small_db):
    idx, spans, radii = small_db
    with pytest.raises(ValueError):
        recognize(np.empty((0, 16)), idx, spans, radii)


def test_recognize_deterministic(small_db):
    idx, spans, radii = small_db
    q = idx.decode(np.arange(8)) + 0.05
    a = recognize(q, idx, spans, radii)
    b = recognize(q.copy(), idx, spans, radii)
    assert a.to_dict() == b.to_dict()
