"""Single-file immutable fingerprint database (magic NPDB).

Layout, little-endian:
  magic "NPDB" | version u16 | d u16 | M u16 | P u32 | n_songs u32 | n_fps u64
  | 6 x (section offset u64, section length u64)
  | sections: songs, codes, assignments, centroids, codebooks, radii
  | CRC32 u32 of everything before it

Songs are stored sorted by song_id with back-to-back fingerprint spans into
the global code array. Density radii are stored as float16.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DbBoundsError, DbChecksumError, DbMagicError, DbVersionError
from .index import (COVERAGE, PQ_CENTROIDS, FingerprintIndex, PartitionerModel, PQCodebook,
                    compression_ratio, encode_index)
from .match import density_scale, local_density

MAGIC = b"NPDB"
VERSION = 1
N_SECTIONS = 6
_HEADER = "<4sHHHIIQ"
# header, section table and trailing CRC32
_FRAME_BYTES = struct.calcsize(_HEADER) + N_SECTIONS * 16 + 4


def _array_section_lengths(d: int, m: int, p: int, n_fps: int) -> list[int]:
    """Byte lengths of the codes, assignments, centroids, codebooks and radii
    sections; every section but the songs one has a fixed size."""
    return [n_fps * m, n_fps * 2, p * d * 4, m * PQ_CENTROIDS * (d // m) * 4, n_fps * 2]


@dataclass
class SongRecord:
    song_id: int
    title: str
    artist: str
    duration_s: float
    fp_start: int = 0
    fp_count: int = 0


class Database:
    """Loaded (or freshly built) database handle: immutable after creation.

    radii are the stored density radii; the matcher scores with
    radii * scale. build_database and load_db pass match.density_scale(radii);
    the default 1 scores with the radii as given.
    """

    def __init__(self, songs: list[SongRecord], index: FingerprintIndex, radii: np.ndarray,
                 scale: float = 1.0):
        self.songs = songs
        self.index = index
        self.radii = np.asarray(radii, dtype=np.float64)
        self.scale = scale
        self.spans = {s.song_id: (s.fp_start, s.fp_count) for s in songs}
        self.by_id = {s.song_id: s for s in songs}

    @property
    def dim(self) -> int:
        return self.index.dim

    def title_of(self, song_id: int) -> str:
        rec = self.by_id.get(song_id)
        return rec.title if rec else ""

    def storage_report(self) -> dict:
        """Per-song byte budgets and compression ratios."""
        n_songs = len(self.songs)
        n_fps = self.index.n_points
        m = self.index.codebook.n_subspaces
        d = self.dim
        payload = n_fps * m
        postings = n_fps * 2  # u16 partition assignment per fingerprint
        metadata = len(_songs_blob(self.songs))
        file_bytes = _FRAME_BYTES + metadata + sum(
            _array_section_lengths(d, m, self.index.partitioner.n_partitions, n_fps))
        return {
            "n_songs": n_songs,
            "n_fingerprints": n_fps,
            "dim": d,
            "subspaces": m,
            "code_bytes_per_fingerprint": m,
            "float_bytes_per_fingerprint": d * 4,
            "compression_ratio": compression_ratio(d, m),
            "payload_bytes_per_song": payload / n_songs,
            "total_bytes_per_song": (payload + postings + metadata) / n_songs,
            "file_bytes": file_bytes,
            "file_bytes_per_song": file_bytes / n_songs,
            "payload_ratio_vs_d128": m / (128 // 8),
        }


def build_database(song_entries: list[tuple[SongRecord, np.ndarray]],
                   partitioner: PartitionerModel, codebook: PQCodebook) -> Database:
    """Encode every song's fingerprints and compute the density model.

    song_entries: (record, (n, d) float fingerprints) pairs. Spans are
    assigned back-to-back in song order (sorted by song_id).
    """
    if not song_entries:
        raise ValueError("empty song list")
    ids = [rec.song_id for rec, _ in song_entries]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate song_id")
    entries = sorted(song_entries, key=lambda e: e[0].song_id)
    songs = []
    fps = []
    song_ids = []
    offsets = []
    start = 0
    for rec, f in entries:
        f = np.asarray(f, dtype=np.float32)
        if f.ndim != 2 or len(f) == 0:
            raise ValueError(f"song {rec.song_id} has an empty fingerprint sequence")
        songs.append(SongRecord(rec.song_id, rec.title, rec.artist, rec.duration_s,
                                fp_start=start, fp_count=len(f)))
        fps.append(f)
        song_ids.append(np.full(len(f), rec.song_id, dtype=np.int32))
        offsets.append(np.arange(len(f), dtype=np.int32))
        start += len(f)
    idx = encode_index(np.concatenate(fps), np.concatenate(song_ids), np.concatenate(offsets),
                       partitioner, codebook)
    radii = local_density(idx.decode_all(), idx.song_ids, idx.offsets)
    # round-trip through the stored float16 form so a fresh build scores
    # identically to a loaded one
    radii = radii.astype(np.float16).astype(np.float64)
    return Database(songs, idx, radii, density_scale(radii))


def _songs_blob(songs: list[SongRecord]) -> bytes:
    out = []
    for s in songs:
        t, a = s.title.encode(), s.artist.encode()
        out.append(struct.pack("<IH", s.song_id, len(t)))
        out.append(t)
        out.append(struct.pack("<H", len(a)))
        out.append(a)
        out.append(struct.pack("<fQI", s.duration_s, s.fp_start, s.fp_count))
    return b"".join(out)


def _parse_songs(blob: bytes, n_songs: int) -> list[SongRecord]:
    songs = []
    pos = 0
    try:
        for _ in range(n_songs):
            song_id, tlen = struct.unpack_from("<IH", blob, pos)
            pos += 6
            title = blob[pos : pos + tlen].decode()
            pos += tlen
            (alen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            artist = blob[pos : pos + alen].decode()
            pos += alen
            dur, fp_start, fp_count = struct.unpack_from("<fQI", blob, pos)
            pos += 16
            songs.append(SongRecord(song_id, title, artist, dur, fp_start, fp_count))
    except (struct.error, UnicodeDecodeError) as e:
        raise DbBoundsError(f"songs section truncated: {e}") from e
    return songs


def serialize(db: Database) -> bytes:
    idx = db.index
    d = idx.dim
    m = idx.codebook.n_subspaces
    p = idx.partitioner.n_partitions
    if p > 0xFFFF:
        raise ValueError(f"partition count {p} does not fit the u16 assignment field")
    sections = [
        _songs_blob(db.songs),
        np.ascontiguousarray(idx.codes, dtype=np.uint8).tobytes(),
        idx.partition_ids.astype("<u2").tobytes(),
        idx.partitioner.centroids.astype("<f4").tobytes(),
        idx.codebook.centroids.astype("<f4").tobytes(),
        db.radii.astype("<f2").tobytes(),
    ]
    header = struct.pack(_HEADER, MAGIC, VERSION, d, m, p, len(db.songs), idx.n_points)
    table_size = N_SECTIONS * 16
    pos = len(header) + table_size
    table = []
    for sec in sections:
        table.append(struct.pack("<QQ", pos, len(sec)))
        pos += len(sec)
    body = header + b"".join(table) + b"".join(sections)
    return body + struct.pack("<I", zlib.crc32(body))


def load_db(data: bytes, coverage: float = COVERAGE) -> Database:
    """Parse and validate an NPDB file. Raises typed errors on corruption."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise DbMagicError("not an NPDB file")
    hdr_size = struct.calcsize(_HEADER)
    if len(data) < _FRAME_BYTES:
        raise DbBoundsError("file shorter than header")
    _, version, d, m, p, n_songs, n_fps = struct.unpack_from(_HEADER, data, 0)
    if version != VERSION:
        raise DbVersionError(f"unsupported version {version}")
    if m < 1 or d % m != 0 or p < 1 or not 1 <= n_songs <= n_fps:
        raise DbBoundsError(f"inconsistent header: d={d}, M={m}, P={p}, "
                            f"{n_songs} songs, {n_fps} fingerprints")
    table = []
    for i in range(N_SECTIONS):
        off, length = struct.unpack_from("<QQ", data, hdr_size + 16 * i)
        if off + length > len(data) - 4:
            raise DbBoundsError(f"section {i} out of bounds")
        table.append((off, length))
    for i, exp in enumerate(_array_section_lengths(d, m, p, n_fps), start=1):
        if table[i][1] != exp:
            raise DbBoundsError(f"section {i} has length {table[i][1]}, expected {exp}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise DbChecksumError("checksum mismatch")

    def sec(i):
        off, length = table[i]
        return data[off : off + length]

    songs = _parse_songs(sec(0), n_songs)
    codes = np.frombuffer(sec(1), dtype=np.uint8).reshape(n_fps, m)
    pids = np.frombuffer(sec(2), dtype="<u2").astype(np.int32)
    centroids = np.frombuffer(sec(3), dtype="<f4").reshape(p, d)
    cb = np.frombuffer(sec(4), dtype="<f4").reshape(m, PQ_CENTROIDS, d // m)
    radii = np.frombuffer(sec(5), dtype="<f2").astype(np.float64)
    if pids.size and (pids.min() < 0 or pids.max() >= p):
        raise DbBoundsError("partition assignment out of range")
    if sum(s.fp_count for s in songs) != n_fps:
        raise DbBoundsError(f"song spans do not cover the code array of {n_fps} fingerprints")
    song_ids = np.empty(n_fps, dtype=np.int32)
    offsets = np.empty(n_fps, dtype=np.int32)
    pos, prev_id = 0, -1
    for s in songs:
        if s.song_id <= prev_id:
            raise DbBoundsError(f"song ids are not strictly increasing: {s.song_id} after {prev_id}")
        prev_id = s.song_id
        if s.fp_start != pos:
            raise DbBoundsError(f"song {s.song_id} span not back-to-back")
        song_ids[pos : pos + s.fp_count] = s.song_id
        offsets[pos : pos + s.fp_count] = np.arange(s.fp_count)
        pos += s.fp_count
    if not (radii.min() > 0 and radii.max() < np.inf):  # a NaN fails the first test
        raise DbBoundsError("density radii must be finite and > 0")
    idx = FingerprintIndex(
        PartitionerModel(centroids=centroids.copy()), PQCodebook(centroids=cb.copy()),
        codes.copy(), pids, song_ids, offsets, coverage=coverage,
    )
    return Database(songs, idx, radii, density_scale(radii))
