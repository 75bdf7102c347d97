"""Tests for the engine-free shard checkpoint journal.

Covers the record frame (magic + length + CRC32 + JSON + newline),
journal replay semantics (stop at the first torn/corrupt byte, recover
the last good prefix), atomic compaction, and the run-manifest resume
handshake — all without touching the census engine: records are
self-describing by design.
"""

from __future__ import annotations

import os

import pytest

from repro.core.checkpoint import (
    JournalReplay,
    RunManifest,
    ShardCheckpoint,
    append_record,
    compact_journal,
    decode_record,
    encode_record,
    read_manifest,
    replay_journal,
    shard_journal_path,
    write_manifest,
)
from repro.errors import CheckpointError
from repro.parallel.faults import corrupt_frame


def _record(next_rank: int = 40, **kwargs) -> ShardCheckpoint:
    base = dict(
        shard_id=3,
        lo=10,
        hi=90,
        next_rank=next_rank,
        attempt=1,
        done=False,
        counters={"count": 30, "eq_count": 4, "opt": None},
        eq_profiles=(((0,), (1, 2), ()), ((2,), (), (0, 1))),
    )
    base.update(kwargs)
    return ShardCheckpoint(**base)


# ----------------------------------------------------------------------
# Record round-trip + validation
# ----------------------------------------------------------------------
def test_record_round_trip():
    rec = _record()
    assert decode_record(encode_record(rec)) == rec


def test_record_round_trip_minimal():
    rec = ShardCheckpoint(shard_id=0, lo=0, hi=5, next_rank=5, done=True)
    assert decode_record(encode_record(rec)) == rec
    assert rec.eq_profiles is None


def test_record_with_legacy_orbit_fields_decodes():
    """Journals once carried the symmetry walk's orbit probe keys
    (``orbit_vals``, versioned by ``orbit_key_format`` from format 2
    on). Records carry no orbit state now; decoding ignores those keys,
    so old journals still decode to the same record."""
    import binascii
    import json
    import struct

    rec = _record()
    data = encode_record(rec)
    start = data.index(b"{")
    obj = json.loads(data[start : data.rindex(b"}") + 1])
    assert "orbit_vals" not in obj and "orbit_key_format" not in obj
    for extra in (
        {"orbit_vals": [0, 7, 0, 11], "orbit_key_format": 2},
        {"orbit_vals": [7, 11]},  # v1: no format field
        {"orbit_vals": None, "orbit_key_format": 2},
    ):
        # Re-frame the extended payload exactly as append_record would.
        payload = json.dumps({**obj, **extra}, separators=(",", ":")).encode()
        frame = (
            data[:4]
            + struct.pack("<I", len(payload))
            + struct.pack("<I", binascii.crc32(payload) & 0xFFFFFFFF)
            + payload
            + b"\n"
        )
        assert decode_record(frame) == rec


def test_record_rank_outside_shard_rejected():
    with pytest.raises(CheckpointError):
        ShardCheckpoint(shard_id=0, lo=10, hi=20, next_rank=9)
    with pytest.raises(CheckpointError):
        ShardCheckpoint(shard_id=0, lo=10, hi=20, next_rank=21)


def test_decode_rejects_corrupt_and_trailing_bytes():
    data = encode_record(_record())
    with pytest.raises(CheckpointError):
        decode_record(corrupt_frame(data))
    with pytest.raises(CheckpointError):
        decode_record(data + b"x")
    with pytest.raises(CheckpointError):
        decode_record(data[:-3])


# ----------------------------------------------------------------------
# Journal replay / compaction
# ----------------------------------------------------------------------
def test_journal_append_and_replay(tmp_path):
    path = shard_journal_path(tmp_path, 3)
    assert path.name == "shard-0003.journal"
    recs = [_record(next_rank=r) for r in (20, 40, 60)]
    for r in recs:
        append_record(path, r)
    replay = replay_journal(path)
    assert isinstance(replay, JournalReplay)
    assert replay.records == tuple(recs)
    assert replay.last == recs[-1]
    assert not replay.truncated
    assert replay.good_bytes == path.stat().st_size


def test_missing_journal_replays_empty(tmp_path):
    replay = replay_journal(tmp_path / "absent.journal")
    assert replay.records == () and replay.last is None
    assert replay.good_bytes == 0 and not replay.truncated


def test_torn_tail_recovers_last_good_record(tmp_path):
    path = shard_journal_path(tmp_path, 0)
    append_record(path, _record(next_rank=20))
    append_record(path, _record(next_rank=40))
    data = path.read_bytes()
    good = replay_journal(path).good_bytes
    # Tear the second frame mid-write (simulated crash during append).
    path.write_bytes(data[: good - 5])
    replay = replay_journal(path)
    assert replay.truncated
    assert replay.last == _record(next_rank=20)


def test_corrupt_frame_bounds_the_good_prefix(tmp_path):
    path = shard_journal_path(tmp_path, 0)
    append_record(path, _record(next_rank=20))
    with open(path, "ab") as fh:
        fh.write(corrupt_frame(encode_record(_record(next_rank=40))))
    # A record appended *after* the corrupt frame is unreachable: the
    # replay cannot trust anything past the first bad byte.
    append_record(path, _record(next_rank=60))
    replay = replay_journal(path)
    assert replay.truncated
    assert replay.last == _record(next_rank=20)


def test_compact_drops_tail_atomically(tmp_path):
    path = shard_journal_path(tmp_path, 0)
    append_record(path, _record(next_rank=20))
    append_record(path, _record(next_rank=40))
    path.write_bytes(path.read_bytes()[:-7])
    compacted = compact_journal(path)
    assert not compacted.truncated
    assert compacted.last == _record(next_rank=20)
    # On disk the journal is now fully valid and append-able again.
    append_record(path, _record(next_rank=55))
    replay = replay_journal(path)
    assert not replay.truncated
    assert [r.next_rank for r in replay.records] == [20, 55]


def test_compact_is_noop_on_valid_journal(tmp_path):
    path = shard_journal_path(tmp_path, 0)
    append_record(path, _record(next_rank=20))
    before = path.stat().st_mtime_ns
    bytes_before = path.read_bytes()
    compact_journal(path)
    assert path.read_bytes() == bytes_before
    assert path.stat().st_mtime_ns == before  # no rewrite happened


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def _manifest(**kwargs) -> RunManifest:
    base = dict(
        kind="census",
        budgets=(1, 1, 1, 1, 1),
        total=1024,
        shards=((0, 512), (512, 1024)),
        version="max",
        weights=None,
        symmetry=True,
        collect=False,
    )
    base.update(kwargs)
    return RunManifest(**base)


def test_manifest_round_trip(tmp_path):
    manifest = _manifest()
    write_manifest(tmp_path, manifest)
    assert read_manifest(tmp_path) == manifest


def test_manifest_round_trip_weighted(tmp_path):
    manifest = _manifest(
        kind="weighted_census", version=None, weights=(5, 1, 1, 1, 1)
    )
    write_manifest(tmp_path, manifest)
    assert read_manifest(tmp_path) == manifest


def test_manifest_round_trip_sampled(tmp_path):
    manifest = _manifest(
        kind="sampled_census",
        symmetry=False,
        seed=42,
        sample_method="stratified",
    )
    write_manifest(tmp_path, manifest)
    got = read_manifest(tmp_path)
    assert got == manifest
    assert got.seed == 42 and got.sample_method == "stratified"
    # A resume with another seed or draw method must not match.
    assert got != _manifest(
        kind="sampled_census", symmetry=False, seed=43,
        sample_method="stratified",
    )
    assert got != _manifest(
        kind="sampled_census", symmetry=False, seed=42,
        sample_method="uniform",
    )


def test_manifest_missing_raises(tmp_path):
    with pytest.raises(CheckpointError):
        read_manifest(tmp_path)


def test_manifest_malformed_raises(tmp_path):
    write_manifest(tmp_path, _manifest())
    path = os.path.join(tmp_path, "MANIFEST.json")
    with open(path, "w") as fh:
        fh.write('{"kind": "census"}')
    with pytest.raises(CheckpointError):
        read_manifest(tmp_path)


def test_manifest_detects_changed_decomposition(tmp_path):
    write_manifest(tmp_path, _manifest())
    # A caller resuming with a different shard split must not match.
    other = _manifest(shards=((0, 256), (256, 512), (512, 1024)))
    assert read_manifest(tmp_path) != other
