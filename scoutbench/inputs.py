"""Seeded inputs for the three workloads.

Everything here is a pure function of the run seed (plus fixed constants),
so the same seed gives byte-identical inputs. The program under test only
ever sees what these functions produce: WAV bytes for `recognize` and
`stream`, a corpus description for `build`.

Audio comes from the package's own deterministic synthetic corpus
(`tunescout.corpus`), the same generator the test suite uses.
"""

import struct
from dataclasses import asdict, dataclass

import numpy as np

from tunescout import corpus

SR = 16000

# the checked-in recognize/stream DB: corpus seed 7, 1700 songs of 60 s
DB_CORPUS = corpus.CorpusConfig(n_songs=1700, duration_s=60.0, seed=7)
# songs that are not in the DB (the test suite's holdout seed)
HOLDOUT_CORPUS = corpus.CorpusConfig(n_songs=170, duration_s=60.0, seed=8)
QUERY_S = 8.0
SNRS = (20.0, 10.0, 5.0)

# One recognize round: every round has exactly this make-up, so the failed
# share (the extensible-header query) is the same in every run.
ROUND_SONGS = 12           # distinct DB songs per round, two excerpts each
ROUND_RESAMPLED = 4        # of those 24 excerpts, this many arrive at 44.1/48 kHz
ROUND_NOISE = 3
ROUND_HOLDOUT = 2
ROUND_EXTENSIBLE = 1       # fixed, seed-independent inputs
ROUND_SIZE = 2 * ROUND_SONGS + ROUND_NOISE + ROUND_HOLDOUT + ROUND_EXTENSIBLE
EXTENSIBLE_SEED = 424242
POOL_ROUNDS = 4           # rounds rendered per run; the worker cycles them

# build: shaped like acceptance 2 (240 s songs, tiny preset, seed-initialised
# weights), with fewer songs so that one build fits a run
BUILD_SONGS = 20
BUILD_SONG_S = 240.0
BUILD_EXCERPTS = 60

# stream: ambient recordings with music regions from the DB's songs
RECORDING_S = 600.0
RECORDINGS = 3


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([abs(int(k)) for k in key])


# ------------------------------------------------------------ WAV writing

_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def wav_bytes(samples: np.ndarray, rate: int, extensible: bool = False) -> bytes:
    """Mono 16-bit PCM WAV, with a plain or a WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    payload = np.asarray(samples, dtype="<i2").tobytes()
    if extensible:
        fmt = struct.pack("<HHIIHHHHI16s", 0xFFFE, 1, rate, rate * 2, 2, 16,
                          22, 16, 0x4, _PCM_GUID)
    else:
        fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def to_int16(wave: np.ndarray) -> np.ndarray:
    return np.clip(np.round(np.asarray(wave, dtype=np.float64) * 32767.0),
                   -32768, 32767).astype(np.int16)


def upsample(wave: np.ndarray, rate: int) -> np.ndarray:
    """Band-limited 16 kHz -> `rate` by zero-padding the spectrum."""
    n_out = len(wave) * rate // SR
    spec = np.fft.rfft(np.asarray(wave, dtype=np.float64))
    return np.fft.irfft(spec, n=n_out) * (n_out / len(wave))


# ------------------------------------------------------------- recognize

@dataclass(frozen=True)
class Query:
    kind: str        # music | resampled | extensible | noise | holdout
    song_id: int     # -1 for noise
    start_s: float   # excerpt start within the song
    snr_db: float
    rate: int        # sample rate of the WAV the program receives
    key: tuple       # rng key of the noise and gain

    @property
    def is_music(self) -> bool:
        return self.kind in ("music", "resampled", "extensible")


def recognize_round(seed: int, round_idx: int) -> list[Query]:
    """The 30 queries of one round, in a seed-shuffled order."""
    rng = _rng(seed, 101, round_idx)
    max_start = DB_CORPUS.duration_s - QUERY_S - 1.0
    songs = rng.choice(DB_CORPUS.n_songs, size=ROUND_SONGS, replace=False)
    resampled = set(rng.choice(2 * ROUND_SONGS, size=ROUND_RESAMPLED, replace=False).tolist())
    out = []
    for i in range(2 * ROUND_SONGS):
        song = int(songs[i // 2])
        rate = SR
        kind = "music"
        if i in resampled:
            kind, rate = "resampled", int(rng.choice([44100, 48000]))
        out.append(Query(kind, song, float(rng.uniform(0, max_start)),
                         SNRS[i % len(SNRS)], rate, (seed, 102, round_idx, i)))
    for i in range(ROUND_NOISE):
        out.append(Query("noise", -1, 0.0, 0.0, SR, (seed, 103, round_idx, i)))
    for i in range(ROUND_HOLDOUT):
        out.append(Query("holdout", int(rng.integers(HOLDOUT_CORPUS.n_songs)),
                         float(rng.uniform(0, max_start)), SNRS[i % len(SNRS)], SR,
                         (seed, 104, round_idx, i)))
    # seed-independent: these fail at the header for every seed
    ext = _rng(EXTENSIBLE_SEED, round_idx)
    out.append(Query("extensible", int(ext.integers(DB_CORPUS.n_songs)),
                     float(ext.uniform(0, max_start)), 20.0, SR,
                     (EXTENSIBLE_SEED, 105, round_idx)))
    order = rng.permutation(len(out))
    return [out[j] for j in order]


def recognize_plan(seed: int, rounds: int) -> list[list[Query]]:
    return [recognize_round(seed, r) for r in range(rounds)]


def query_wav(q: Query, song_cache: dict) -> bytes:
    """Render one query to the WAV bytes the program receives."""
    rng = _rng(*q.key)
    n = int(QUERY_S * SR)
    gain = float(rng.uniform(0.5, 1.5))
    if q.kind == "noise":
        wave = corpus.noise_audio(QUERY_S, rng) * gain
        return wav_bytes(to_int16(np.clip(wave, -1, 1)), SR)
    cfg = HOLDOUT_CORPUS if q.kind == "holdout" else DB_CORPUS
    key = (cfg.seed, q.song_id)
    if key not in song_cache:
        song_cache[key] = corpus.song_audio(cfg, q.song_id)
    s = int(q.start_s * SR)
    clean = song_cache[key][s : s + n]
    if q.kind == "resampled":
        hi = upsample(clean, q.rate)
        noise = rng.normal(0.0, 1.0, len(hi))  # white: fills the band up to rate/2
        wave = corpus.mix_at_snr(hi.astype(np.float32), noise.astype(np.float32), q.snr_db)
    else:
        wave = corpus.mix_at_snr(clean, corpus.noise_audio(QUERY_S, rng), q.snr_db)
    wave = np.clip(wave * gain, -1.0, 1.0)
    return wav_bytes(to_int16(wave), q.rate, extensible=q.kind == "extensible")


def render_queries(plan: list[list[Query]]) -> list[bytes]:
    cache: dict = {}
    blobs = []
    for rnd in plan:
        blobs.extend(query_wav(q, cache) for q in rnd)
        cache.clear()
    return blobs


# ----------------------------------------------------------------- build

def build_corpus(seed: int) -> corpus.CorpusConfig:
    """The songs a build run fingerprints: a corpus seed drawn from the run seed."""
    return corpus.CorpusConfig(n_songs=BUILD_SONGS, duration_s=BUILD_SONG_S,
                               seed=int(_rng(seed, 201).integers(1000, 10**6)))


def build_excerpts(seed: int) -> list[tuple[int, int]]:
    """(song_id, start_s) of clean 8 s excerpts starting on a whole second."""
    rng = _rng(seed, 202)
    songs = np.arange(BUILD_EXCERPTS) % BUILD_SONGS
    starts = rng.integers(0, int(BUILD_SONG_S - QUERY_S), size=BUILD_EXCERPTS)
    return [(int(s), int(t)) for s, t in zip(songs, starts)]


# ---------------------------------------------------------------- stream

def recording_regions(seed: int, idx: int) -> list[corpus.MusicRegion]:
    """Music regions of one ambient recording: DB songs, gaps past the refractory."""
    rng = _rng(seed, 301, idx)
    regions = []
    pos = float(rng.uniform(30.0, 60.0))
    i = 0
    while True:
        dur = float(rng.uniform(30.0, DB_CORPUS.duration_s))
        if pos + dur > RECORDING_S - 10.0:
            break
        regions.append(corpus.MusicRegion(start_s=pos, duration_s=dur,
                                          song_id=int(rng.integers(DB_CORPUS.n_songs)),
                                          snr_db=SNRS[(idx + i) % len(SNRS)]))
        pos += dur + float(rng.uniform(90.0, 130.0))
        i += 1
    return regions


def recording_wav(seed: int, idx: int) -> bytes:
    regions = recording_regions(seed, idx)
    wave = corpus.ambient_audio(RECORDING_S, regions, DB_CORPUS,
                                seed=int(_rng(seed, 302, idx).integers(10**6)))
    return wav_bytes(to_int16(wave), SR)


def regions_to_dicts(regions) -> list[dict]:
    return [asdict(r) for r in regions]


def n_frames(n_samples: int, window: int = 400, hop: int = 160) -> int:
    """log-Mel frame count of a 16 kHz recording (25 ms window, 10 ms hop)."""
    return 0 if n_samples < window else (n_samples - window) // hop + 1


def n_fingerprints(frames: int, window: int = 96, hop: int = 100) -> int:
    """Fingerprints of a song: one per 1 s hop of the embedder's 96-frame window."""
    return 0 if frames < window else (frames - window) // hop + 1


def n_predictions(frames: int, input_frames: int = 446, cadence: int = 64) -> int:
    return 0 if frames < input_frames else (frames - input_frames) // cadence + 1
