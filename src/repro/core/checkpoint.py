"""Crash-safe shard checkpoints for resumable census scans.

Long sharded census runs (unit ``n >= 7``, weighted batteries, future
``n = 8`` / sampled-census soaks) used to die with the process: a shard
was a contiguous Gray-rank range with no persistent state, so any
preemption threw away every profile already evaluated. This module
gives each shard a small, **engine-free**, serialisable checkpoint
record — the Gray rank cursor, the partial aggregates, and (for the
symmetry walk) the :class:`~repro.core.enumeration._OrbitKeys` probe
state — persisted into an append-only on-disk journal that survives
worker kills, torn writes and record corruption.

Journal format
--------------
One journal file per shard (``shard-NNNN.journal``) holding a sequence
of framed records::

    +-------+----------------+----------------+---------------+------+
    | magic | payload length | CRC32(payload) | JSON payload  | \\n   |
    |  4 B  |  4 B LE uint32 |  4 B LE uint32 | length bytes  | 1 B  |
    +-------+----------------+----------------+---------------+------+

* **Append-only.** A worker only ever appends (flush + fsync per
  record); it never rewrites. Appends from successive attempts of the
  same shard simply extend the file — records carry their ``attempt``
  and a monotonically advancing ``next_rank``.
* **Torn/corrupt-tail detection.** :func:`replay_journal` validates
  frames in order (magic, length bounds, CRC, JSON decode) and stops at
  the first invalid byte: a torn final write, a corrupted record, or
  trailing garbage all degrade to the *last good prefix* instead of
  failing the run. :func:`compact_journal` rewrites that good prefix
  through an atomic temp-write-plus-rename so later appends extend a
  clean file.
* **Atomic manifest.** A run-level ``MANIFEST.json`` (game, version,
  shard decomposition) is committed with temp-write + ``os.replace`` —
  readers never observe a half-written manifest — and is what ``resume``
  validates against before trusting any journal.

Resume semantics
----------------
A record with ``next_rank = r`` asserts "ranks ``[lo, r)`` of this
shard are fully aggregated into these counters". Resuming rebuilds the
walk state at rank ``r - 1`` (one O(n) Gray unranking plus one
all-pairs build of that profile), restores the counters and orbit probe
keys verbatim, and continues the swap stream over ``[r, hi)`` — no rank
is ever double-counted, so the merged census is bit-identical to an
uninterrupted run. ``done = True`` marks a finished shard whose final
counters stand in for re-execution entirely.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..errors import CheckpointError

__all__ = [
    "ShardCheckpoint",
    "JournalReplay",
    "RunManifest",
    "encode_record",
    "decode_record",
    "append_record",
    "append_encoded",
    "replay_journal",
    "compact_journal",
    "shard_journal_path",
    "write_manifest",
    "read_manifest",
    "MANIFEST_NAME",
]

#: Frame magic: "Repro Bounded-budget ChecKpoint".
RECORD_MAGIC: bytes = b"RBCK"

#: ``<length, crc32>`` little-endian frame header after the magic.
_HEADER = struct.Struct("<II")

#: Sanity cap on a single record payload; anything larger in a length
#: field is treated as corruption, not an allocation request.
_MAX_PAYLOAD: int = 64 * 1024 * 1024

MANIFEST_NAME: str = "MANIFEST.json"

_ProfileKey = "tuple[tuple[int, ...], ...]"


def _freeze_profiles(profiles) -> "tuple | None":
    """Nested lists (JSON) -> the census's tuple-of-tuples profile keys."""
    if profiles is None:
        return None
    return tuple(
        tuple(tuple(int(v) for v in strategy) for strategy in key)
        for key in profiles
    )


def _thaw_profiles(profiles) -> "list | None":
    """Profile keys -> JSON-serialisable nested lists."""
    if profiles is None:
        return None
    return [[list(strategy) for strategy in key] for key in profiles]


@dataclass(frozen=True)
class ShardCheckpoint:
    """One engine-free snapshot of a census shard's progress.

    ``counters`` holds the shard's partial aggregates exactly as its
    worker function returns them (JSON scalars only: ints or ``None``);
    ``eq_profiles`` the collected equilibrium profile keys so far (when
    collecting); ``orbit_vals`` the symmetry walk's probe-key vector at
    rank ``next_rank - 1`` (``None`` for unpruned/weighted walks). The
    record is self-describing — decoding never needs the game.

    ``orbit_key_format`` versions the ``orbit_vals`` encoding: format
    ``1`` is the historical one-``uint64``-per-probe row-major packing,
    format ``2`` (written by this code) interleaves the two 64-bit
    words of each 128-bit key as ``(hi, lo)`` pairs. Journals written
    before the field existed decode as format ``1``; the resuming walk
    migrates them when ``n^2 <= 64`` and fails loudly otherwise.
    """

    shard_id: int
    lo: int
    hi: int
    next_rank: int
    attempt: int = 0
    done: bool = False
    counters: "Mapping[str, int | None]" = field(default_factory=dict)
    eq_profiles: "tuple[_ProfileKey, ...] | None" = None
    orbit_vals: "tuple[int, ...] | None" = None
    orbit_key_format: int = 2

    def __post_init__(self) -> None:
        if not self.lo <= self.next_rank <= self.hi:
            raise CheckpointError(
                f"checkpoint rank {self.next_rank} outside shard "
                f"[{self.lo}, {self.hi}]"
            )


def encode_record(record: ShardCheckpoint) -> bytes:
    """Serialise one record into its framed on-disk byte form."""
    payload = json.dumps(
        {
            "shard_id": record.shard_id,
            "lo": record.lo,
            "hi": record.hi,
            "next_rank": record.next_rank,
            "attempt": record.attempt,
            "done": record.done,
            "counters": dict(record.counters),
            "eq_profiles": _thaw_profiles(record.eq_profiles),
            "orbit_vals": None
            if record.orbit_vals is None
            else [int(v) for v in record.orbit_vals],
            "orbit_key_format": int(record.orbit_key_format),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return (
        RECORD_MAGIC
        + _HEADER.pack(len(payload), zlib.crc32(payload))
        + payload
        + b"\n"
    )


def decode_record(data: bytes) -> ShardCheckpoint:
    """Inverse of :func:`encode_record` for exactly one framed record."""
    record, end = _decode_at(data, 0)
    if record is None:
        raise CheckpointError("bytes do not decode to a checkpoint record")
    if end != len(data):
        raise CheckpointError(f"{len(data) - end} trailing bytes after record")
    return record


def _decode_at(data: bytes, offset: int) -> "tuple[ShardCheckpoint | None, int]":
    """Decode the frame at ``offset``; ``(None, offset)`` when invalid.

    Every failure mode — short read, wrong magic, absurd length, CRC
    mismatch, JSON/shape errors, missing newline terminator — returns
    ``None`` rather than raising: replay treats it as the torn/corrupt
    tail boundary.
    """
    head = offset + len(RECORD_MAGIC) + _HEADER.size
    if head > len(data) or data[offset : offset + len(RECORD_MAGIC)] != RECORD_MAGIC:
        return None, offset
    length, crc = _HEADER.unpack_from(data, offset + len(RECORD_MAGIC))
    end = head + length + 1  # trailing newline
    if length > _MAX_PAYLOAD or end > len(data):
        return None, offset
    payload = data[head : head + length]
    if data[end - 1 : end] != b"\n" or zlib.crc32(payload) != crc:
        return None, offset
    try:
        obj = json.loads(payload.decode("utf-8"))
        record = ShardCheckpoint(
            shard_id=int(obj["shard_id"]),
            lo=int(obj["lo"]),
            hi=int(obj["hi"]),
            next_rank=int(obj["next_rank"]),
            attempt=int(obj["attempt"]),
            done=bool(obj["done"]),
            counters={
                str(k): (None if v is None else int(v))
                for k, v in obj["counters"].items()
            },
            eq_profiles=_freeze_profiles(obj["eq_profiles"]),
            orbit_vals=None
            if obj["orbit_vals"] is None
            else tuple(int(v) for v in obj["orbit_vals"]),
            # Journals written before the format field existed carry
            # v1 (64-bit row-major) orbit keys.
            orbit_key_format=int(obj.get("orbit_key_format", 1)),
        )
    except (ValueError, KeyError, TypeError, CheckpointError):
        return None, offset
    return record, end


@dataclass(frozen=True)
class JournalReplay:
    """Outcome of replaying one journal: the good prefix and its extent."""

    records: "tuple[ShardCheckpoint, ...]"
    good_bytes: int
    truncated: bool

    @property
    def last(self) -> "ShardCheckpoint | None":
        """The most recent intact record, if any."""
        return self.records[-1] if self.records else None


def shard_journal_path(directory: "str | os.PathLike", shard_id: int) -> Path:
    """Canonical journal path of one shard under a checkpoint directory."""
    return Path(directory) / f"shard-{int(shard_id):04d}.journal"


def append_record(path: "str | os.PathLike", record: ShardCheckpoint) -> None:
    """Append one record, flushed and fsynced before returning."""
    append_encoded(path, encode_record(record))


def append_encoded(path: "str | os.PathLike", data: bytes) -> None:
    """Append pre-encoded bytes (fault injection writes corrupt frames here)."""
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def replay_journal(path: "str | os.PathLike") -> JournalReplay:
    """Read every intact record; stop at the first torn/corrupt byte.

    A missing journal replays as empty. The returned ``good_bytes`` is
    the byte offset of the valid prefix — everything past it is the
    torn or corrupted tail that :func:`compact_journal` can drop.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return JournalReplay(records=(), good_bytes=0, truncated=False)
    records: "list[ShardCheckpoint]" = []
    offset = 0
    while offset < len(data):
        record, end = _decode_at(data, offset)
        if record is None:
            break
        records.append(record)
        offset = end
    return JournalReplay(
        records=tuple(records), good_bytes=offset, truncated=offset < len(data)
    )


def compact_journal(path: "str | os.PathLike") -> JournalReplay:
    """Drop a journal's torn/corrupt tail via atomic temp-write + rename.

    No-op (and no rewrite) for a journal that is already fully valid.
    Returns the replay of the surviving prefix. Run by the supervisor
    when it reclaims a dead worker's shard, so the retry appends to a
    journal whose every byte is trusted.
    """
    path = Path(path)
    replay = replay_journal(path)
    if not replay.truncated:
        return replay
    data = path.read_bytes()[: replay.good_bytes]
    _atomic_write(path, data)
    return JournalReplay(
        records=replay.records, good_bytes=replay.good_bytes, truncated=False
    )


def _atomic_write(path: Path, data: bytes) -> None:
    """Commit ``data`` to ``path`` via temp file + fsync + ``os.replace``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunManifest:
    """Atomic, run-level description of one checkpointed scan.

    Pins everything a resume must agree on: the census ``kind``
    (``"census"`` / ``"weighted_census"`` / ``"sampled_census"``), the
    game, the cost version or weight vector, the total rank space, and
    the exact shard decomposition. :func:`read_manifest` + an equality
    check against the caller's expectation is the whole resume
    handshake — journals are only trusted once the manifest matches.

    ``seed`` and ``sample_method`` pin a sampled census's draw (the
    shards re-derive the sampled rank list deterministically from
    them); both stay ``None`` for exact scans, and manifests written
    before the fields existed read back as ``None``.
    """

    kind: str
    budgets: "tuple[int, ...]"
    total: int
    shards: "tuple[tuple[int, int], ...]"
    version: "str | None" = None
    weights: "tuple[int, ...] | None" = None
    symmetry: bool = False
    collect: bool = False
    seed: "int | None" = None
    sample_method: "str | None" = None


def write_manifest(directory: "str | os.PathLike", manifest: RunManifest) -> Path:
    """Atomically commit the manifest (creating the directory if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    payload = json.dumps(
        {
            "kind": manifest.kind,
            "budgets": list(manifest.budgets),
            "total": manifest.total,
            "shards": [list(s) for s in manifest.shards],
            "version": manifest.version,
            "weights": None
            if manifest.weights is None
            else list(manifest.weights),
            "symmetry": manifest.symmetry,
            "collect": manifest.collect,
            "seed": manifest.seed,
            "sample_method": manifest.sample_method,
        },
        sort_keys=True,
        indent=2,
    ).encode("utf-8")
    _atomic_write(path, payload + b"\n")
    return path


def read_manifest(directory: "str | os.PathLike") -> RunManifest:
    """Load and validate a run manifest; raises on missing/malformed."""
    path = Path(directory) / MANIFEST_NAME
    try:
        obj = json.loads(path.read_text("utf-8"))
        return RunManifest(
            kind=str(obj["kind"]),
            budgets=tuple(int(b) for b in obj["budgets"]),
            total=int(obj["total"]),
            shards=tuple((int(lo), int(hi)) for lo, hi in obj["shards"]),
            version=None if obj["version"] is None else str(obj["version"]),
            weights=None
            if obj["weights"] is None
            else tuple(int(w) for w in obj["weights"]),
            symmetry=bool(obj["symmetry"]),
            collect=bool(obj["collect"]),
            seed=None if obj.get("seed") is None else int(obj["seed"]),
            sample_method=None
            if obj.get("sample_method") is None
            else str(obj["sample_method"]),
        )
    except FileNotFoundError:
        raise CheckpointError(
            f"no run manifest at {path}; nothing to resume"
        ) from None
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed run manifest at {path}: {exc}") from exc
