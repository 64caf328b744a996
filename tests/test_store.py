"""NPDB database file: build, serialize, load, and corruption handling."""

import struct
import zlib

import numpy as np
import pytest

from tunescout.errors import (
    DbBoundsError,
    DbChecksumError,
    DbError,
    DbMagicError,
    DbVersionError,
)
from tunescout.index import pq_decode, train_partitioner, train_pq
from tunescout.match import DENSITY_MEDIAN
from tunescout.store import Database, SongRecord, build_database, load_db, serialize


@pytest.fixture(scope="module")
def song_entries():
    rng = np.random.default_rng(21)
    entries = []
    for s in range(12):
        fps = rng.standard_normal((60, 16)).astype(np.float32)
        fps /= np.linalg.norm(fps, axis=1, keepdims=True)
        entries.append((SongRecord(song_id=s, title=f"song {s}", artist="t", duration_s=60.0), fps))
    return entries


@pytest.fixture(scope="module")
def models(song_entries):
    all_fps = np.concatenate([f for _, f in song_entries])
    part = train_partitioner(all_fps, 8, seed=0)
    cb, _ = train_pq(all_fps - part.centroids[part.assign(all_fps)], m=2, seed=0)
    return part, cb


@pytest.fixture(scope="module")
def db(song_entries, models):
    return build_database(song_entries, *models)


@pytest.fixture(scope="module")
def blob(db):
    return serialize(db)


def test_round_trip_identity(db, blob):
    loaded = load_db(blob)
    assert [(s.song_id, s.title, s.artist, s.fp_start, s.fp_count) for s in loaded.songs] == \
        [(s.song_id, s.title, s.artist, s.fp_start, s.fp_count) for s in db.songs]
    assert np.array_equal(loaded.index.codes, db.index.codes)
    assert np.array_equal(loaded.index.partition_ids, db.index.partition_ids)
    assert np.array_equal(loaded.index.partitioner.centroids, db.index.partitioner.centroids)
    assert np.array_equal(loaded.index.codebook.centroids, db.index.codebook.centroids)
    assert np.array_equal(loaded.radii, db.radii)
    assert np.array_equal(loaded.index.decode_all(), db.index.decode_all())


def test_deterministic_bytes(song_entries, models, blob):
    assert serialize(build_database(song_entries, *models)) == blob


def test_bad_magic(blob):
    with pytest.raises(DbMagicError):
        load_db(b"XXXX" + blob[4:])


def test_bad_version(blob):
    bad = bytearray(blob)
    bad[4] = 99
    with pytest.raises((DbVersionError, DbChecksumError)):
        # version check runs before the checksum, so this must be a version error
        load_db(bytes(bad))
    try:
        load_db(bytes(bad))
    except DbVersionError:
        pass
    else:
        pytest.fail("expected DbVersionError before checksum validation")


def _packed(d, m, p, n_songs, n_fps, sections):
    """A CRC-valid NPDB file with the given header fields and section bytes."""
    header = struct.pack("<4sHHHIIQ", b"NPDB", 1, d, m, p, n_songs, n_fps)
    pos = len(header) + 16 * len(sections)
    table = b""
    for sec in sections:
        table += struct.pack("<QQ", pos, len(sec))
        pos += len(sec)
    body = header + table + b"".join(sections)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("d, m, p, n_songs, n_fps", [
    (16, 0, 4, 1, 2),  # M = 0 would divide by zero
    (16, 3, 4, 1, 2),  # d not a multiple of M
    (16, 2, 0, 1, 2),  # no partitions
    (16, 2, 4, 3, 2),  # more songs than fingerprints
])
def test_inconsistent_header_is_bounds_error(d, m, p, n_songs, n_fps):
    # the sections have the lengths the header implies and the song spans
    # cover the codes back to back, so only the header fields are wrong
    sub = d // m if m else 0
    counts = [1] * (n_songs - 1) + [max(0, n_fps - n_songs + 1)]
    songs = b"".join(struct.pack("<IHH", s, 0, 0) + struct.pack("<fQI", 1.0, sum(counts[:s]), c)
                     for s, c in enumerate(counts))
    sections = [songs, bytes(n_fps * m), bytes(n_fps * 2), bytes(p * d * 4),
                bytes(m * 256 * sub * 4), bytes(n_fps * 2)]
    with pytest.raises(DbBoundsError, match="inconsistent header"):
        load_db(_packed(d, m, p, n_songs, n_fps, sections))


def test_song_span_past_the_code_array_is_bounds_error():
    # a CRC-valid file whose one song claims 700 fingerprints of the 600
    d, m, p, n_fps = 16, 2, 4, 600
    songs = struct.pack("<IHH", 0, 0, 0) + struct.pack("<fQI", 1.0, 0, 700)
    sections = [songs, bytes(n_fps * m), bytes(n_fps * 2), bytes(p * d * 4),
                bytes(m * 256 * (d // m) * 4), bytes(n_fps * 2)]
    with pytest.raises(DbBoundsError, match="do not cover"):
        load_db(_packed(d, m, p, 1, n_fps, sections))


def test_truncation_is_bounds_error(blob):
    for cut in (10, len(blob) // 2, len(blob) - 5):
        with pytest.raises(DbBoundsError):
            load_db(blob[:cut])


def test_every_corruption_is_a_typed_error(blob):
    rng = np.random.default_rng(0)
    positions = list(rng.integers(0, len(blob), size=64)) + [0, 5, len(blob) - 1]
    for pos in positions:
        bad = bytearray(blob)
        bad[pos] ^= 0xFF
        with pytest.raises(DbError):
            load_db(bytes(bad))


def test_payload_byte_flip_is_checksum_error(blob, db):
    # flip inside the codes section, which cannot violate bounds
    bad = bytearray(blob)
    bad[-40] ^= 0x01  # radii/codes area, well past the header
    with pytest.raises(DbError):
        load_db(bytes(bad))


def test_build_rejects_bad_inputs(song_entries, models):
    part, cb = models
    with pytest.raises(ValueError):
        build_database([], part, cb)
    dup = [song_entries[0], song_entries[0]]
    with pytest.raises(ValueError):
        build_database(dup, part, cb)
    rec = SongRecord(song_id=99, title="x", artist="y", duration_s=1.0)
    with pytest.raises(ValueError):
        build_database([(rec, np.empty((0, 16), dtype=np.float32))], part, cb)


def test_spans_back_to_back(db):
    pos = 0
    for s in db.songs:
        assert s.fp_start == pos
        pos += s.fp_count
    assert pos == db.index.n_points


def test_storage_report_fields(db):
    rep = db.storage_report()
    assert rep["compression_ratio"] == (16 * 4) / 2
    assert rep["payload_bytes_per_song"] == 60 * 2
    assert rep["total_bytes_per_song"] > rep["payload_bytes_per_song"]
    assert rep["n_songs"] == 12 and rep["n_fingerprints"] == 720
    assert rep["file_bytes"] == len(serialize(db))


def test_loaded_db_scores_identically(db, blob):
    # radii round-trip through float16 at build time, so scoring parity holds
    loaded = load_db(blob)
    assert np.array_equal(loaded.radii, db.radii)
    assert loaded.scale == db.scale


def test_file_keeps_the_raw_radii_and_the_db_scales_them_to_the_desk_median(db, blob):
    assert db.scale == DENSITY_MEDIAN / np.median(db.radii) != 1.0
    assert np.array_equal(load_db(blob).radii, db.radii)
    # a DB made directly, like evaluation's naive baseline, scores with the radii it is given
    assert Database(db.songs, db.index, np.ones(db.index.n_points)).scale == 1.0


@pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan])
def test_radius_that_is_not_finite_and_positive_is_bounds_error(db, bad):
    radii = db.radii.copy()
    radii[7] = bad
    with pytest.raises(DbBoundsError, match="radii"):
        load_db(serialize(Database(db.songs, db.index, radii)))


def test_repeated_song_id_is_bounds_error(db):
    songs = list(db.songs)
    s = songs[3]
    songs[3] = SongRecord(songs[2].song_id, s.title, s.artist, s.duration_s, s.fp_start, s.fp_count)
    with pytest.raises(DbBoundsError, match="strictly increasing"):
        load_db(serialize(Database(songs, db.index, db.radii)))


def test_file_without_songs_is_bounds_error():
    d, m, p = 16, 2, 4
    sections = [b"", b"", b"", bytes(p * d * 4), bytes(m * 256 * (d // m) * 4), b""]
    with pytest.raises(DbBoundsError, match="inconsistent header"):
        load_db(_packed(d, m, p, 0, 0, sections))


def test_storage_report_payload_ratio_vs_d128():
    # d=96 (M=12) vs d=128 (M=16): code payload is 25% smaller
    assert 12 / 16 == 0.75


def test_load_leaves_partition_terms_to_the_first_search(blob):
    loaded = load_db(blob)
    idx = loaded.index
    assert idx._terms is None  # set-up builds no search tables
    assert idx._centroids64 is None
    idx.search_batch(idx.decode(np.arange(3)), 5)
    terms, cents = idx._terms, idx._centroids64
    assert np.array_equal(cents, idx.partitioner.centroids.astype(np.float64))
    assert terms is not None and terms.shape == (idx.n_points,)
    # 2<c_p, y> + ||y||^2 = ||c_p + y||^2 - ||c_p||^2 for each fingerprint
    c = idx.partitioner.centroids.astype(np.float64)[idx.partition_ids]
    y = pq_decode(idx.codes, idx.codebook).astype(np.float64)
    assert np.allclose(terms, ((c + y) ** 2).sum(axis=1) - (c ** 2).sum(axis=1), atol=1e-9)
    idx.search_batch(idx.decode(np.arange(3)), 5)
    assert idx._terms is terms and idx._centroids64 is cents  # kept, not rebuilt
