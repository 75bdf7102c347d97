"""Property suite for checkpoint records and journal recovery.

Two families of properties:

* **Frame round-trip** — ``decode_record(encode_record(r)) == r`` for
  randomly drawn records spanning every optional field (``None``
  counters, collected profiles).
* **Crash-shaped journals** — a journal of random records subjected to
  a random suffix truncation or byte corruption always replays to a
  prefix of what was written, and replay/compaction recover the
  longest intact prefix: nothing fabricated, nothing past the first
  bad byte trusted, and compaction leaves a journal that replays
  identically and accepts further appends.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    ShardCheckpoint,
    append_record,
    compact_journal,
    decode_record,
    encode_record,
    replay_journal,
    shard_journal_path,
)

_counters = st.dictionaries(
    st.sampled_from(["count", "eq_count", "opt", "best_eq", "worst_eq"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**9)),
    max_size=5,
)

_profile_key = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=3).map(tuple),
    min_size=1,
    max_size=4,
).map(tuple)

_eq_profiles = st.one_of(
    st.none(), st.lists(_profile_key, max_size=4).map(tuple)
)


@st.composite
def _records(draw) -> ShardCheckpoint:
    lo = draw(st.integers(min_value=0, max_value=10**6))
    span = draw(st.integers(min_value=0, max_value=10**6))
    hi = lo + span
    next_rank = draw(st.integers(min_value=lo, max_value=hi))
    return ShardCheckpoint(
        shard_id=draw(st.integers(min_value=0, max_value=9999)),
        lo=lo,
        hi=hi,
        next_rank=next_rank,
        attempt=draw(st.integers(min_value=0, max_value=50)),
        done=draw(st.booleans()),
        counters=draw(_counters),
        eq_profiles=draw(_eq_profiles),
    )


@settings(max_examples=120, deadline=None)
@given(record=_records())
def test_encode_decode_round_trip(record):
    assert decode_record(encode_record(record)) == record


@settings(max_examples=50, deadline=None)
@given(
    records=st.lists(_records(), min_size=1, max_size=6),
    cut=st.integers(min_value=1, max_value=200),
)
def test_truncated_journal_recovers_longest_prefix(records, cut):
    # A fresh directory per generated example (hypothesis reuses the
    # pytest fixture across examples, so tmp_path would accumulate).
    with tempfile.TemporaryDirectory() as tmp:
        _check_truncation(Path(tmp), records, cut)


def _check_truncation(tmp_path, records, cut):
    path = shard_journal_path(tmp_path, 0)
    sizes = []
    for rec in records:
        append_record(path, rec)
        sizes.append(path.stat().st_size)
    data = path.read_bytes()
    cut = min(cut, len(data) - 1)
    path.write_bytes(data[: len(data) - cut])
    # The good prefix is exactly the records whose frames survived whole.
    expect = sum(1 for s in sizes if s <= len(data) - cut)
    replay = replay_journal(path)
    assert replay.records == tuple(records[:expect])
    assert replay.good_bytes == (sizes[expect - 1] if expect else 0)
    # A cut landing exactly on a frame boundary leaves a *valid* journal
    # (the lost suffix is indistinguishable from never-written records);
    # any other cut leaves a torn tail.
    assert replay.truncated == (replay.good_bytes < len(data) - cut)


@settings(max_examples=50, deadline=None)
@given(
    records=st.lists(_records(), min_size=1, max_size=6),
    victim=st.integers(min_value=0, max_value=5),
    offset=st.integers(min_value=0, max_value=10**6),
    delta=st.integers(min_value=1, max_value=255),
)
def test_corrupted_journal_recovers_prefix_and_compacts(
    records, victim, offset, delta
):
    with tempfile.TemporaryDirectory() as tmp:
        _check_corruption(Path(tmp), records, victim, offset, delta)


def _check_corruption(tmp_path, records, victim, offset, delta):
    path = shard_journal_path(tmp_path, 0)
    frames = [encode_record(r) for r in records]
    victim = victim % len(frames)
    start = sum(len(f) for f in frames[:victim])
    offset = start + offset % len(frames[victim])
    data = bytearray(b"".join(frames))
    data[offset] = (data[offset] + delta) % 256
    path.write_bytes(bytes(data))

    replay = replay_journal(path)
    # Everything before the victim frame must survive intact, and the
    # replay must stop no later than the flipped byte's frame (CRC32
    # rejects it), so the recovered set is exactly the prefix.
    assert replay.records == tuple(records[:victim])
    assert replay.truncated

    compacted = compact_journal(path)
    assert not compacted.truncated
    assert compacted.records == replay.records
    # The compacted journal is a fully valid prefix: replaying it again
    # and appending to it both work.
    assert replay_journal(path).records == replay.records
    extra = records[-1]
    append_record(path, extra)
    assert replay_journal(path).records == replay.records + (extra,)
