"""Persistent on-disk store of all-pairs distance matrices.

:class:`PoolStore` is a directory of mmap'd matrix files that survive
process restarts. The query server (``repro-bbncg serve --pool-dir``)
publishes each served instance's ``U(G)`` matrix here and attaches it
on the next cold start instead of rebuilding it, so the all-pairs build
is paid once per graph, not once per process.

File format and integrity contract
----------------------------------
Each entry is one file ``<digest>.mat``::

    b"RPMS" | <u32 header len> | <u32 header crc32> | header JSON
           | zero pad to 64 bytes | field payloads (64-byte aligned)

The header records the field layout (name, dtype, shape, offset
relative to the aligned data start), the data-region byte count and the
CRC32 of the whole data region. :func:`attach_store_file` re-validates
*everything* — magic, header CRC, exact file size, data CRC — before
handing out zero-copy read-only ``np.memmap`` views, so a torn,
truncated or bit-flipped file can only ever produce a
:class:`~repro.errors.PoolError` (which callers treat as a miss and
answer by rebuild-and-republish), never a wrong matrix.

Publishes are atomic: the bundle is written to a pid-unique
``.tmp-<pid>-<seq>`` sibling, fsynced, and committed with
``os.replace`` — the same temp-write + replace idiom as
:mod:`repro.core.checkpoint`'s run manifest (whose ``_atomic_write``
maintains the LRU index file here too). Readers therefore only ever see
complete files; a crash mid-publish leaves a temp file that
:meth:`PoolStore.gc` reaps once its writer pid is dead.

Keys are **content digests** (:func:`store_digest` /
:func:`census_graph_digest`), not process-unique instance ids: a fresh
process hashing the same graph arcs (and weights/kind tags) finds the
matrices a previous process published.

Bounded: an ``INDEX.json`` manifest tracks per-file sizes and a logical
LRU clock; publishes beyond ``byte_budget`` evict the least recently
used files. The index is advisory — files are self-describing, so
:meth:`PoolStore.gc` can rebuild it from a directory scan — and
concurrent publishers (several server processes sharing one directory)
may lose an LRU touch in a read-modify-write race without ever
corrupting an entry.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import PoolError
from .checkpoint import _atomic_write

__all__ = [
    "PoolStore",
    "StoreHandle",
    "store_digest",
    "census_graph_digest",
    "attach_store_file",
    "FILE_MAGIC",
    "INDEX_NAME",
    "DEFAULT_BYTE_BUDGET",
]

#: Magic prefix of every store file ("Repro Pool Matrix Store").
FILE_MAGIC: bytes = b"RPMS"

#: Header frame after the magic: JSON length, JSON crc32.
_HEADER = struct.Struct("<II")

#: Field payloads start on (and are padded to) this alignment.
_ALIGN: int = 64

#: Name of the on-disk LRU index manifest inside a store directory.
INDEX_NAME: str = "INDEX.json"

#: Default byte budget of a store directory (matrix payload bytes).
DEFAULT_BYTE_BUDGET: int = 256 * 1024 * 1024

#: Ceiling on accepted header JSON; anything larger is corrupt.
_MAX_HEADER: int = 1024 * 1024

#: Process-local temp-file sequence (pid-unique names need a counter).
_TMP_SEQ = itertools.count()


def _round_up(x: int, align: int = _ALIGN) -> int:
    return -(-x // align) * align


def _hash_part(h, part) -> None:
    """Feed one canonical part into the digest (type-tagged, unambiguous)."""
    if isinstance(part, (tuple, list)):
        h.update(b"T%d:" % len(part))
        for item in part:
            _hash_part(h, item)
    elif isinstance(part, bool):
        h.update(b"B%d;" % int(part))
    elif isinstance(part, (int, np.integer)):
        h.update(b"I%d;" % int(part))
    elif isinstance(part, str):
        b = part.encode("utf-8")
        h.update(b"S%d:" % len(b))
        h.update(b)
    elif isinstance(part, bytes):
        h.update(b"Y%d:" % len(part))
        h.update(part)
    elif isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        meta = f"A{arr.dtype.str}{arr.shape}:".encode("ascii")
        h.update(meta)
        h.update(arr.tobytes())
    elif part is None:
        h.update(b"N;")
    else:
        raise PoolError(f"undigestable key part of type {type(part).__name__}")


def store_digest(*parts) -> str:
    """Content digest of a canonical key: hex SHA-256, filename-safe.

    Accepts nested tuples/lists of ints, bools, strings, bytes, ``None``
    and numpy arrays, each hashed with an unambiguous type/length tag so
    distinct keys can never collide by concatenation.
    """
    h = sha256(b"repro-bbncg/pool-store/v1\0")
    _hash_part(h, parts)
    return h.hexdigest()


def census_graph_digest(graph) -> str:
    """Digest of a graph *state*: its directed arc set.

    Content-addressed — two processes (or two runs, days apart) that
    materialise the same profile compute the same digest, which is what
    lets a fresh server find the matrices a dead one published. The
    published matrices describe the undirected closure, but the digest
    hashes the directed arc set: a coarser key would also be correct,
    this one is simply canonical for a profile. The ``False`` part is
    the unit-lengths tag of the original key layout, kept so digests —
    and stores published under them — stay valid.
    """
    arcs = sorted((int(a), int(b)) for a, b in graph.arcs())
    return store_digest("census", False, int(graph.n), tuple(arcs))


def _encode_bundle(digest: str, arrays: "Mapping[str, np.ndarray]") -> bytes:
    """Serialize an array bundle into the framed store-file format."""
    if not arrays:
        raise PoolError("cannot publish an empty array bundle")
    layout: "list[list]" = []
    prepared: "list[tuple[np.ndarray, int]]" = []
    offset = 0
    for fname, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = _round_up(offset)
        layout.append([str(fname), arr.dtype.str, list(arr.shape), offset])
        prepared.append((arr, offset))
        offset += arr.nbytes
    data = bytearray(offset)
    for arr, off in prepared:
        data[off : off + arr.nbytes] = arr.tobytes()
    header = {
        "version": 1,
        "digest": digest,
        "fields": layout,
        "nbytes": len(data),
        "data_crc": zlib.crc32(bytes(data)),
    }
    hjson = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head = FILE_MAGIC + _HEADER.pack(len(hjson), zlib.crc32(hjson))
    data_start = _round_up(len(head) + len(hjson))
    pad = data_start - len(head) - len(hjson)
    return head + hjson + b"\0" * pad + bytes(data)


def _read_store_header(path: "str | os.PathLike") -> "tuple[dict, int]":
    """Validated ``(header, data_start)`` of a store file.

    Checks magic, header length bound, and header CRC; raises
    :class:`~repro.errors.PoolError` on any mismatch (including a file
    too short to hold its own header — the truncated-write case).
    """
    prefix_len = len(FILE_MAGIC) + _HEADER.size
    try:
        with open(path, "rb") as fh:
            prefix = fh.read(prefix_len)
            if len(prefix) < prefix_len or prefix[: len(FILE_MAGIC)] != FILE_MAGIC:
                raise PoolError(f"store file {path!s} has no valid magic")
            hlen, hcrc = _HEADER.unpack_from(prefix, len(FILE_MAGIC))
            if hlen > _MAX_HEADER:
                raise PoolError(f"store file {path!s} header length {hlen} is absurd")
            hjson = fh.read(hlen)
    except FileNotFoundError as exc:
        raise PoolError(f"store file {path!s} no longer exists") from exc
    except OSError as exc:
        raise PoolError(f"store file {path!s} is unreadable: {exc}") from exc
    if len(hjson) < hlen or zlib.crc32(hjson) != hcrc:
        raise PoolError(f"store file {path!s} has a corrupt header")
    try:
        header = json.loads(hjson.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PoolError(f"store file {path!s} header is not JSON") from exc
    if not isinstance(header, dict) or "fields" not in header:
        raise PoolError(f"store file {path!s} header is malformed")
    return header, _round_up(prefix_len + hlen)


def attach_store_file(
    path: "str | os.PathLike", *, expected_digest: "str | None" = None
) -> "dict[str, np.ndarray]":
    """Zero-copy read-only views of every field of a store file.

    Full integrity pass — magic, header CRC, exact size, data-region
    CRC32, digest match — then ``np.memmap`` views into the payload
    (the memmap buffer is read-only; views alias it and keep it alive).
    Any failure raises :class:`~repro.errors.PoolError`; callers treat
    that as a miss and rebuild, so corruption can never become a wrong
    answer.
    """
    header, data_start = _read_store_header(path)
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise PoolError(f"store file {path!s} cannot be mapped: {exc}") from exc
    nbytes = int(header.get("nbytes", -1))
    if expected_digest is not None and header.get("digest") != expected_digest:
        raise PoolError(
            f"store file {path!s} holds digest {header.get('digest')!r}, "
            f"expected {expected_digest!r}"
        )
    if nbytes < 0 or data_start + nbytes != mm.size:
        raise PoolError(
            f"store file {path!s} is torn: {mm.size} bytes on disk, "
            f"{data_start + nbytes} framed"
        )
    if zlib.crc32(mm[data_start:].tobytes()) != int(header.get("data_crc", -1)):
        raise PoolError(f"store file {path!s} fails its data CRC")
    views: "dict[str, np.ndarray]" = {}
    for fname, dtype, shape, offset in header["fields"]:
        view = np.ndarray(
            tuple(shape),
            dtype=np.dtype(dtype),
            buffer=mm,
            offset=data_start + int(offset),
        )
        views[str(fname)] = view
    return views


@dataclass(frozen=True)
class StoreHandle:
    """Picklable pointer to one published store file.

    ``attach()`` returns a field-name → read-only array mapping. The
    handle is valid across process generations: any process that can
    read ``path`` can attach, integrity-checked on every call.
    """

    path: str
    digest: str
    nbytes: int
    fields: "tuple[tuple[str, str, tuple[int, ...], int], ...]" = field(default=())

    def attach(self) -> "dict[str, np.ndarray]":
        """Verified zero-copy read-only views of the file's arrays."""
        return attach_store_file(self.path, expected_digest=self.digest)


class PoolStore:
    """Directory-backed, byte-budget-bounded store of matrix bundles.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    byte_budget:
        Total payload bytes kept; publishing beyond it evicts the least
        recently used files (per the ``INDEX.json`` LRU clock).

    There is no owner: any process may publish (atomically) or attach
    (verified), and entries persist until evicted by budget,
    :meth:`evict`, or :meth:`gc`.
    """

    def __init__(
        self, root: "str | os.PathLike", *, byte_budget: int = DEFAULT_BYTE_BUDGET
    ) -> None:
        if byte_budget < 1:
            raise PoolError(f"byte_budget must be positive, got {byte_budget}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.byte_budget = int(byte_budget)
        self.stats = {
            "published": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "corrupt": 0,
            "store_errors": 0,
        }

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        if not digest or not all(c.isalnum() for c in digest):
            raise PoolError(f"malformed store digest {digest!r}")
        return self.root / f"{digest}.mat"

    def _quarantine(self, path: Path) -> None:
        """Unlink a failed-validation file so the republish starts clean."""
        self.stats["corrupt"] += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with another cleaner
            pass

    def _handle(self, path: Path, header: dict) -> StoreHandle:
        return StoreHandle(
            path=str(path),
            digest=str(header["digest"]),
            nbytes=int(header["nbytes"]),
            fields=tuple(
                (str(f), str(d), tuple(s), int(o)) for f, d, s, o in header["fields"]
            ),
        )

    # ------------------------------------------------------------------
    def publish(
        self, digest: str, arrays: "Mapping[str, np.ndarray]"
    ) -> StoreHandle:
        """Atomically commit an array bundle under ``digest``.

        Idempotent: an existing *valid* file is touched in the LRU index
        and returned as-is (content-addressed entries never change); an
        existing corrupt file is quarantined and rewritten. The write is
        temp-file + fsync + ``os.replace``, so a concurrent reader (or a
        crash at any point) sees either the old complete file or the new
        complete file, never a torn one.
        """
        path = self._path(digest)
        if path.exists():
            try:
                header, _ = _read_store_header(path)
                if header.get("digest") == digest:
                    handle = self._handle(path, header)
                    self._touch(digest, handle.nbytes)
                    return handle
                self._quarantine(path)
            except PoolError:
                self._quarantine(path)
        blob = _encode_bundle(digest, arrays)
        tmp = self.root / f".tmp-{os.getpid()}-{next(_TMP_SEQ)}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise PoolError(f"cannot publish {digest!r} to {self.root}: {exc}") from exc
        self.stats["published"] += 1
        header, _ = _read_store_header(path)
        handle = self._handle(path, header)
        self._touch(digest, handle.nbytes)
        self._enforce_budget(protect=digest)
        return handle

    def lookup(self, digest: str) -> "StoreHandle | None":
        """Handle for ``digest`` (header-validated, LRU-touched), else
        ``None``. Corrupt files are quarantined on sight."""
        path = self._path(digest)
        if not path.exists():
            self.stats["misses"] += 1
            return None
        try:
            header, _ = _read_store_header(path)
            if header.get("digest") != digest:
                raise PoolError(f"store file {path} holds a foreign digest")
        except PoolError:
            self._quarantine(path)
            self.stats["misses"] += 1
            return None
        handle = self._handle(path, header)
        self.stats["hits"] += 1
        self._touch(digest, handle.nbytes)
        return handle

    def attach(self, digest: str) -> "dict[str, np.ndarray] | None":
        """Verified read-only views for ``digest``, or ``None`` on miss.

        A file that passes the header check but fails the full data CRC
        (bit flip, truncation) is quarantined and reported as a miss —
        degrade to rebuild-and-republish, never a wrong matrix.
        """
        path = self._path(digest)
        if not path.exists():
            self.stats["misses"] += 1
            return None
        try:
            views = attach_store_file(path, expected_digest=digest)
        except PoolError:
            self._quarantine(path)
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._touch(digest, int(sum(v.nbytes for v in views.values())))
        return views

    def evict(self, digest: str) -> bool:
        """Unlink one entry by digest; ``True`` if a file was removed."""
        path = self._path(digest)
        idx = self._read_index()
        idx["entries"].pop(digest, None)
        self._write_index(idx)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self.stats["evictions"] += 1
        return True

    def entries(self) -> "dict[str, dict]":
        """The index's entry map (digest → ``{"nbytes", "used"}``)."""
        return dict(self._read_index()["entries"])

    def total_bytes(self) -> int:
        """Payload bytes currently accounted by the index."""
        return sum(int(e["nbytes"]) for e in self._read_index()["entries"].values())

    # ------------------------------------------------------------------
    def gc(self, *, byte_budget: "int | None" = None) -> "dict[str, int]":
        """Reconcile the directory: the crash-cleanup contract.

        * reaps ``.tmp-<pid>-*`` files whose writer process is dead
          (a publisher killed mid-write leaves exactly one of these);
        * quarantines every ``*.mat`` file that fails header validation;
        * rebuilds the LRU index from the surviving files (preserving
          known ``used`` stamps, so recency survives the rebuild);
        * enforces the byte budget (``byte_budget`` overrides the
          store's own for this call — ``repro-bbncg pool gc --budget``).

        Returns counters: ``files``, ``bytes``, ``removed_tmp``,
        ``removed_corrupt``, ``evicted``.
        """
        removed_tmp = 0
        removed_corrupt = 0
        old = self._read_index()["entries"]
        entries: "dict[str, dict]" = {}
        for name in sorted(os.listdir(self.root)):
            path = self.root / name
            if name.startswith(".tmp-"):
                parts = name.split("-")
                try:
                    pid = int(parts[1])
                except (IndexError, ValueError):
                    pid = -1
                if pid != os.getpid() and not _pid_alive(pid):
                    try:
                        path.unlink()
                        removed_tmp += 1
                    except OSError:  # pragma: no cover - raced
                        pass
                continue
            if not name.endswith(".mat"):
                continue
            digest = name[: -len(".mat")]
            try:
                header, _ = _read_store_header(path)
                if header.get("digest") != digest:
                    raise PoolError(f"store file {path} holds a foreign digest")
            except PoolError:
                self._quarantine(path)
                removed_corrupt += 1
                continue
            known = old.get(digest, {})
            entries[digest] = {
                "nbytes": int(header["nbytes"]),
                "used": int(known.get("used", 0)),
            }
        idx = {
            "version": 1,
            "clock": max(
                [int(e["used"]) for e in entries.values()] + [0]
            ),
            "entries": entries,
        }
        self._write_index(idx)
        evicted = self._enforce_budget(byte_budget=byte_budget)
        live = self._read_index()["entries"]
        return {
            "files": len(live),
            "bytes": sum(int(e["nbytes"]) for e in live.values()),
            "removed_tmp": removed_tmp,
            "removed_corrupt": removed_corrupt,
            "evicted": evicted,
        }

    # ------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _read_index(self) -> dict:
        try:
            idx = json.loads(self._index_path().read_text())
            if not isinstance(idx.get("entries"), dict):
                raise ValueError("malformed index")
            return idx
        except (OSError, ValueError):
            return {"version": 1, "clock": 0, "entries": {}}

    def _write_index(self, idx: dict) -> None:
        try:
            _atomic_write(
                self._index_path(),
                json.dumps(idx, separators=(",", ":"), sort_keys=True).encode(),
            )
        except OSError:  # pragma: no cover - advisory index; files are truth
            pass

    def _touch(self, digest: str, nbytes: int) -> None:
        idx = self._read_index()
        idx["clock"] = int(idx.get("clock", 0)) + 1
        idx["entries"][digest] = {"nbytes": int(nbytes), "used": idx["clock"]}
        self._write_index(idx)

    def _enforce_budget(
        self, *, protect: "str | None" = None, byte_budget: "int | None" = None
    ) -> int:
        """Evict least-recently-used entries past the byte budget."""
        budget = self.byte_budget if byte_budget is None else int(byte_budget)
        idx = self._read_index()
        entries = idx["entries"]
        total = sum(int(e["nbytes"]) for e in entries.values())
        evicted = 0
        for digest in sorted(entries, key=lambda d: int(entries[d]["used"])):
            if total <= budget:
                break
            if digest == protect:
                continue
            total -= int(entries[digest]["nbytes"])
            entries.pop(digest)
            try:
                self._path(digest).unlink()
            except (OSError, PoolError):
                pass
            evicted += 1
        if evicted:
            self._write_index(idx)
            self.stats["evictions"] += evicted
        return evicted


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (permission errors = alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
