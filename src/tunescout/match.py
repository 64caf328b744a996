"""Second-stage sequence matching.

Per-step top-K hits vote for (song, alignment) candidates; each candidate's
full aligned fingerprint sequence is then scored with a density-adaptive
similarity (a Gaussian kernel whose radius is the DB-local k-NN distance of
the aligned fingerprint), and an absolute + gap threshold decides
acceptance.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels
from .index import FingerprintIndex, SearchHit

# The recognizer's operating point belongs to the shipped model and DB.
TOP_K = 20  # ANN hits per query step
MAX_CANDIDATES = 20  # (song, alignment) candidates scored per phase
K_DENSITY = 16  # a fingerprint's radius is the distance to this DB neighbour
DENSITY_MEDIAN = 0.8349609375  # the desk DB's median radius (0.835 as float16), see density_scale
EXCLUDE_S = 2  # same-song neighbours this close in time are not density
RADIUS_FLOOR = 1e-3
THETA_ABS = 0.40  # accept only above this score ...
THETA_GAP = 0.05  # ... and this far above the best other song
QUERY_PHASES = 4  # sub-hop window phases tried per query (misalignment robustness)


@dataclass
class SequenceCandidate:
    song_id: int
    start_offset: int  # alignment of query step 0 within the song, seconds
    support: int


@dataclass
class MatchResult:
    song_id: int
    offset_s: int
    score: float
    accepted: bool
    runner_up_score: float
    title: str = ""

    @classmethod
    def no_match(cls) -> "MatchResult":
        return cls(song_id=-1, offset_s=-1, score=0.0, accepted=False, runner_up_score=0.0)

    def to_dict(self) -> dict:
        return {
            "song_id": self.song_id,
            "title": self.title,
            "offset_s": self.offset_s,
            "score": round(self.score, 6),
            "accepted": self.accepted,
            "runner_up_score": round(self.runner_up_score, 6),
        }


def collect_candidates(hits_per_step: list[list[SearchHit]],
                       max_candidates: int = MAX_CANDIDATES) -> list[SequenceCandidate]:
    """Vote counting: a hit at query step i supports alignment (song, offset - i).

    Candidates are ranked by support (ties by song_id then offset) and the
    top max_candidates kept.
    """
    votes: Counter = Counter()
    for step, hits in enumerate(hits_per_step):
        seen = set()
        for h in hits:
            key = (h.song_id, h.offset_s - step)
            if key not in seen:  # one vote per step per alignment
                seen.add(key)
                votes[key] += 1
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return [
        SequenceCandidate(song_id=s, start_offset=o, support=n)
        for (s, o), n in ranked[:max_candidates]
    ]


def local_density(points: np.ndarray, song_ids: np.ndarray, offsets: np.ndarray,
                  k_density: int = K_DENSITY) -> np.ndarray:
    """Per-fingerprint radius: distance to the k-th nearest DB neighbor.

    Same-song neighbors within EXCLUDE_S seconds are excluded so temporal
    context does not count as density. Radii are floored at RADIUS_FLOOR to
    keep the similarity kernel defined on degenerate DBs.
    """
    n = len(points)
    if n < k_density + 1:
        raise ValueError(f"DB of {n} points is smaller than k_density+1 = {k_density + 1}")
    r = kernels.knn_radius(points, song_ids, offsets, k_density, EXCLUDE_S)
    return np.maximum(r, RADIUS_FLOOR)


def density_scale(radii: np.ndarray) -> float:
    """DENSITY_MEDIAN / median(radii): the factor the matcher scales a DB's
    radii by (store.Database.scale), so that a kernel exp(-d^2 / r^2) whose
    radii shrink as the DB grows keeps the scale its thresholds were set on
    (local scaling, Zelnik-Manor & Perona 2004). The desk DB's scale is
    exactly 1.

    The median is np.median's value, from np.partition: np.median's first
    call in a process costs ~15 ms, more than the rest of loading a DB.
    """
    n = len(radii)
    middle = np.partition(radii, [(n - 1) // 2, n // 2])[(n - 1) // 2 : n // 2 + 1]
    return DENSITY_MEDIAN / float(middle.mean())


def score_candidates(query_fps: np.ndarray, candidates: list[SequenceCandidate],
                     idx: FingerprintIndex, spans: dict[int, tuple[int, int]],
                     radii: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every candidate, with one decode of all aligned fingerprints.

    A candidate's score is the mean per-step similarity
    exp(-||q - x~||^2 / r^2), r = scale * the aligned fingerprint's radius,
    over all query steps; steps whose alignment
    falls outside the song contribute 0, so missing evidence penalizes the
    score. Unit radii give the fixed-radius baseline exp(-||q - x~||^2).
    Returns (scores (C,), aligned (C,)); a candidate with no step inside its
    song is not aligned and scores 0.
    """
    t = len(query_fps)
    start, count = np.array([spans[c.song_id] for c in candidates], dtype=np.int64).reshape(-1, 2).T
    off = np.array([c.start_offset for c in candidates], dtype=np.int64)[:, None] + np.arange(t)
    valid = (off >= 0) & (off < count[:, None])
    g = (start[:, None] + off)[valid]
    d2 = ((query_fps[np.nonzero(valid)[1]] - idx.decode(g)) ** 2).sum(axis=1)
    r = radii[g] * scale
    sims = np.zeros(valid.shape)
    sims[valid] = np.exp(-d2 / (r * r))
    return sims.mean(axis=1), valid.any(axis=1)


def score_sequence(query_fps: np.ndarray, candidate: SequenceCandidate,
                   idx: FingerprintIndex, spans: dict[int, tuple[int, int]],
                   radii: np.ndarray) -> float:
    """One candidate's score (see score_candidates). Raises if no step aligns."""
    scores, aligned = score_candidates(query_fps, [candidate], idx, spans, radii)
    if not aligned[0]:
        raise ValueError("candidate alignment fully outside song bounds")
    return float(scores[0])


def adaptive_accept(scored: list[MatchResult], theta_abs: float = THETA_ABS,
                    theta_gap: float = THETA_GAP) -> MatchResult:
    """Accept the best candidate iff its score clears theta_abs and beats the
    best other song by theta_gap. With one candidate only theta_abs applies."""
    if not scored:
        return MatchResult.no_match()
    ranked = sorted(scored, key=lambda m: (-m.score, m.song_id, m.offset_s))
    best = ranked[0]
    runner = next((m for m in ranked[1:] if m.song_id != best.song_id), None)
    runner_score = runner.score if runner is not None else 0.0
    accepted = best.score > theta_abs and (runner is None or best.score - runner_score > theta_gap)
    return MatchResult(
        song_id=best.song_id, offset_s=best.offset_s, score=best.score,
        accepted=accepted, runner_up_score=runner_score, title=best.title,
    )


def recognize_phases(phases: list[np.ndarray], idx: FingerprintIndex,
                     spans: dict[int, tuple[int, int]], radii: np.ndarray,
                     scale: float = 1.0) -> MatchResult:
    """Full two-stage match of a query's phase hypotheses.

    One search_batch over every phase's fingerprints, then per phase
    candidate voting, sequence scoring and adaptive acceptance. Returns the
    highest-scoring phase's result (the first phase on ties).
    """
    phases = [np.atleast_2d(np.asarray(f, dtype=np.float32)) for f in phases]
    if not phases or any(len(f) == 0 for f in phases):
        raise ValueError("need at least one query fingerprint")
    hits = idx.search_batch(np.concatenate(phases), TOP_K)
    best = None
    pos = 0
    for fps in phases:
        candidates = collect_candidates(hits[pos : pos + len(fps)])
        pos += len(fps)
        scores, aligned = score_candidates(fps, candidates, idx, spans, radii, scale)
        result = adaptive_accept([
            MatchResult(song_id=c.song_id, offset_s=c.start_offset, score=float(s),
                        accepted=False, runner_up_score=0.0)
            for c, s, ok in zip(candidates, scores, aligned) if ok])
        if best is None or result.score > best.score:
            best = result
    return best


def recognize(query_fps: np.ndarray, idx: FingerprintIndex,
              spans: dict[int, tuple[int, int]], radii: np.ndarray) -> MatchResult:
    """Full two-stage match of one fingerprint sequence: per-step ANN
    search, candidate voting, sequence scoring, adaptive acceptance."""
    return recognize_phases([query_fps], idx, spans, radii)
