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
from .index import FingerprintIndex, SearchHit, SearchStats


@dataclass(frozen=True)
class MatcherConfig:
    top_k: int = 20
    max_candidates: int = 20
    k_density: int = 16
    radius_floor: float = 1e-3
    theta_abs: float = 0.40
    theta_gap: float = 0.05
    # sub-hop window phases tried per query (misalignment robustness)
    query_phases: int = 4


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
                       max_candidates: int = 20) -> list[SequenceCandidate]:
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
                  k_density: int = 16, exclude_s: int = 2,
                  radius_floor: float = 1e-3) -> np.ndarray:
    """Per-fingerprint radius: distance to the k-th nearest DB neighbor.

    Same-song neighbors within exclude_s seconds are excluded so temporal
    context does not count as density. Radii are floored to keep the
    similarity kernel defined on degenerate DBs.
    """
    n = len(points)
    if n < k_density + 1:
        raise ValueError(f"DB of {n} points is smaller than k_density+1 = {k_density + 1}")
    r = kernels.knn_radius(points, song_ids, offsets, k_density, exclude_s)
    return np.maximum(r, radius_floor)


def score_sequence(query_fps: np.ndarray, candidate: SequenceCandidate,
                   idx: FingerprintIndex, spans: dict[int, tuple[int, int]],
                   radii: np.ndarray) -> float:
    """Mean per-step similarity exp(-||q - x~||^2 / r^2) over all query steps.

    Steps whose alignment falls outside the song contribute 0, so missing
    evidence penalizes the score. Raises if no step aligns at all. Unit
    radii give the fixed-radius baseline exp(-||q - x~||^2).
    """
    t = len(query_fps)
    start, count = spans[candidate.song_id]
    g = np.full(t, -1, dtype=np.int64)
    for i in range(t):
        off = candidate.start_offset + i
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


def adaptive_accept(scored: list[MatchResult], theta_abs: float = 0.40,
                    theta_gap: float = 0.05) -> MatchResult:
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


def recognize(query_fps: np.ndarray, idx: FingerprintIndex,
              spans: dict[int, tuple[int, int]], radii: np.ndarray,
              cfg: MatcherConfig | None = None,
              stats: SearchStats | None = None) -> MatchResult:
    """Full two-stage match: per-step ANN search, candidate voting,
    sequence scoring, adaptive acceptance."""
    cfg = cfg or MatcherConfig()
    query_fps = np.atleast_2d(np.asarray(query_fps, dtype=np.float32))
    if len(query_fps) == 0:
        raise ValueError("need at least one query fingerprint")
    hits = [idx.search_topk(q, cfg.top_k, stats=stats) for q in query_fps]
    candidates = collect_candidates(hits, cfg.max_candidates)
    scored = []
    for cand in candidates:
        try:
            s = score_sequence(query_fps, cand, idx, spans, radii)
        except ValueError:
            continue
        scored.append(MatchResult(song_id=cand.song_id, offset_s=cand.start_offset,
                                  score=s, accepted=False, runner_up_score=0.0))
    return adaptive_accept(scored, cfg.theta_abs, cfg.theta_gap)
