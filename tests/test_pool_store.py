"""Tests for the persistent on-disk matrix pool store.

Four families:

* **Format & integrity** — publish/attach round-trips, digest
  canonicality, and the corruption contract: truncation, byte flips,
  clobbered magic and foreign digests all degrade to a quarantined miss
  (rebuild-and-republish), never a wrong matrix.
* **LRU model** — a hypothesis interleaving test driving random
  publish / attach / evict / gc sequences against an in-memory model
  of the store's used-clock byte-budget LRU.
* **Cross-process survival** — matrices published by a SIGKILLed
  process attach verified in a fresh one with zero rebuilds.
* **Maintenance** — ``gc`` reaps dead writers' temp files, quarantines
  corrupt files, rebuilds the index, enforces the budget; the
  ``repro-bbncg pool gc`` CLI fronts it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PoolStore, census_graph_digest, store_digest
from repro.core.pool_store import INDEX_NAME, attach_store_file
from repro.errors import PoolError
from repro.graphs.digraph import OwnedDigraph


def _bundle(i: int) -> "dict[str, np.ndarray]":
    return {
        "D": (np.arange(16, dtype=np.int64) * (i + 3)).reshape(4, 4),
        "inf": np.asarray([99 + i], dtype=np.int64),
    }


# ----------------------------------------------------------------------
# Format & integrity
# ----------------------------------------------------------------------
def test_publish_attach_round_trip(tmp_path):
    store = PoolStore(tmp_path)
    digest = store_digest("t", 1)
    handle = store.publish(digest, _bundle(1))
    assert handle.digest == digest
    views = store.attach(digest)
    assert views is not None
    assert np.array_equal(views["D"], _bundle(1)["D"])
    assert int(views["inf"][0]) == 100
    # memmap-backed views are read-only: corruption cannot flow back.
    with pytest.raises(ValueError):
        views["D"][0, 0] = 7
    # The picklable handle attaches too, digest-checked.
    assert np.array_equal(handle.attach()["D"], _bundle(1)["D"])


def test_publish_is_idempotent_and_content_addressed(tmp_path):
    store = PoolStore(tmp_path)
    digest = store_digest("t", 2)
    store.publish(digest, _bundle(2))
    mtime = os.path.getmtime(store._path(digest))
    store.publish(digest, _bundle(2))  # no rewrite of a valid entry
    assert os.path.getmtime(store._path(digest)) == mtime
    assert store.stats["published"] == 1


def test_store_digest_is_canonical_and_type_tagged():
    assert store_digest("a", 1, (2, 3)) == store_digest("a", 1, (2, 3))
    assert store_digest("a", 1) != store_digest("a", "1")  # int vs str
    assert store_digest((1, 2), 3) != store_digest(1, (2, 3))  # nesting
    assert store_digest(True) != store_digest(1)  # bool vs int
    with pytest.raises(PoolError):
        store_digest(object())


def test_census_graph_digest_is_content_addressed():
    g1 = OwnedDigraph.from_strategies([(1,), (2,), (0,)], 3)
    g2 = OwnedDigraph.from_strategies([(1,), (2,), (0,)], 3)
    g3 = OwnedDigraph.from_strategies([(2,), (2,), (0,)], 3)
    # Independently built instances of the same profile agree...
    assert census_graph_digest(g1) == census_graph_digest(g2)
    # ...different profiles do not.
    assert census_graph_digest(g1) != census_graph_digest(g3)


def test_census_graph_digest_bytes_are_pinned():
    """Served stores are keyed by these digests: a changed byte would
    orphan every matrix published before the change."""
    g1 = OwnedDigraph.from_strategies([(1,), (2,), (0,)], 3)
    g2 = OwnedDigraph.from_strategies([(1, 2), (2,), (0, 3), ()], 4)
    assert census_graph_digest(g1) == (
        "e075fcfa327362fef7e843770fd77894513b3e7756e1eb6b1d3b99e173aa0ca5"
    )
    assert census_graph_digest(g2) == (
        "3e9b67057db8aceb5141abdef34f8d7110eed49559aa9cb18319f3956c8fe057"
    )


@pytest.mark.parametrize(
    "corrupt",
    ["truncate", "flip_data", "flip_header", "clobber_magic"],
)
def test_corrupt_file_degrades_to_rebuild_never_wrong(tmp_path, corrupt):
    store = PoolStore(tmp_path)
    digest = store_digest("t", 3)
    path = store._path(digest)
    store.publish(digest, _bundle(3))
    blob = bytearray(path.read_bytes())
    if corrupt == "truncate":
        blob = blob[: len(blob) // 2]
    elif corrupt == "flip_data":
        blob[-5] ^= 0xFF  # payload bit flip: only the data CRC catches it
    elif corrupt == "flip_header":
        blob[9] ^= 0xFF
    else:
        blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    # Attach refuses and quarantines; it can never return a wrong matrix.
    assert store.attach(digest) is None
    assert store.stats["corrupt"] == 1
    assert not path.exists()
    # Republish recovers; the round-trip is exact again.
    store.publish(digest, _bundle(3))
    views = store.attach(digest)
    assert views is not None and np.array_equal(views["D"], _bundle(3)["D"])


def test_attach_store_file_rejects_foreign_digest(tmp_path):
    store = PoolStore(tmp_path)
    d3, d4 = store_digest("t", 3), store_digest("t", 4)
    store.publish(d3, _bundle(3))
    os.replace(store._path(d3), store._path(d4))  # misfiled entry
    with pytest.raises(PoolError):
        attach_store_file(store._path(d4), expected_digest=d4)
    assert store.attach(d4) is None  # quarantined, not served


# ----------------------------------------------------------------------
# LRU model: random interleavings against the store
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["publish", "attach", "evict", "gc"]),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=30,
    ),
)
def test_store_interleavings_match_model(ops):
    payloads = {i: np.arange(16, dtype=np.int64) * (i + 3) for i in range(5)}
    digests = {i: store_digest("model", i) for i in range(5)}
    nb = payloads[0].nbytes
    budget = 3 * nb + nb // 2  # holds exactly three entries
    with tempfile.TemporaryDirectory() as root:
        store = PoolStore(root, byte_budget=budget)
        disk: "dict[int, int]" = {}  # i -> LRU used stamp
        clock = 0
        for op, i in ops:
            if op == "publish":
                store.publish(digests[i], {"a": payloads[i]})
                clock += 1
                disk[i] = clock
                while len(disk) * nb > budget:
                    victim = min((d for d in disk if d != i), key=disk.__getitem__)
                    disk.pop(victim)
            elif op == "attach":
                views = store.attach(digests[i])
                if i in disk:
                    assert views is not None
                    assert np.array_equal(views["a"], payloads[i])
                    clock += 1
                    disk[i] = clock
                else:
                    assert views is None
            elif op == "evict":
                assert store.evict(digests[i]) == (i in disk)
                disk.pop(i, None)
            else:  # gc on a healthy directory is a no-op reconcile
                stats = store.gc()
                assert stats["removed_corrupt"] == 0
                assert stats["evicted"] == 0
                assert stats["files"] == len(disk)
                clock = max(disk.values(), default=0)
            # Store contents match the model exactly...
            on_disk = {
                f[: -len(".mat")] for f in os.listdir(root) if f.endswith(".mat")
            }
            assert on_disk == {digests[i] for i in disk}
            entries = store.entries()
            assert set(entries) == on_disk
            # ...including the LRU recency order.
            assert sorted(disk, key=disk.__getitem__) == sorted(
                disk, key=lambda d: int(entries[digests[d]]["used"])
            )


# ----------------------------------------------------------------------
# Cross-process survival
# ----------------------------------------------------------------------
def test_matrices_survive_hard_killed_publisher(tmp_path):
    child_code = textwrap.dedent(
        f"""
        import os, signal
        import numpy as np
        from repro.core import PoolStore, store_digest
        store = PoolStore({str(tmp_path)!r})
        for i in range(3):
            D = (np.arange(16, dtype=np.int64) * (i + 3)).reshape(4, 4)
            store.publish(store_digest("x", i), {{"D": D}})
        print("ready", flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child_code],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    assert proc.stdout is not None and proc.stdout.readline().strip() == "ready"
    proc.wait()
    assert proc.returncode == -signal.SIGKILL
    # A fresh store object (fresh process in spirit: content digests,
    # no shared state) attaches every bundle fully verified — 0 rebuilds.
    store = PoolStore(tmp_path)
    for i in range(3):
        views = store.attach(store_digest("x", i))
        assert views is not None
        assert np.array_equal(
            views["D"], (np.arange(16, dtype=np.int64) * (i + 3)).reshape(4, 4)
        )
    assert store.stats == {
        "published": 0,
        "hits": 3,
        "misses": 0,
        "evictions": 0,
        "corrupt": 0,
        "store_errors": 0,
    }


# ----------------------------------------------------------------------
# Maintenance: gc, budget, CLI
# ----------------------------------------------------------------------
def test_gc_reaps_dead_writers_and_rebuilds_index(tmp_path):
    store = PoolStore(tmp_path)
    d0, d1 = store_digest("t", 0), store_digest("t", 1)
    store.publish(d0, _bundle(0))
    store.publish(d1, _bundle(1))
    # A dead writer's torn temp file, a live (this-process) temp file,
    # a corrupt entry, and a lost index.
    dead = subprocess.Popen([sys.executable, "-c", ""])
    dead.wait()
    (tmp_path / f".tmp-{dead.pid}-0").write_bytes(b"torn")
    mine = tmp_path / f".tmp-{os.getpid()}-999"
    mine.write_bytes(b"in flight")
    blob = bytearray(store._path(d1).read_bytes())
    blob[9] ^= 0xFF  # header corruption: gc validates headers on scan
    store._path(d1).write_bytes(bytes(blob))
    (tmp_path / INDEX_NAME).unlink()
    stats = store.gc()
    assert stats == {
        "files": 1,
        "bytes": _bundle(0)["D"].nbytes + _bundle(0)["inf"].nbytes,
        "removed_tmp": 1,
        "removed_corrupt": 1,
        "evicted": 0,
    }
    assert mine.exists()  # live writers are never reaped
    assert store.attach(d0) is not None
    assert store.attach(d1) is None
    mine.unlink()


def test_gc_enforces_byte_budget_lru(tmp_path):
    store = PoolStore(tmp_path)
    digests = [store_digest("t", i) for i in range(4)]
    for i, d in enumerate(digests):
        store.publish(d, _bundle(i))
    store.lookup(digests[0])  # refresh 0: 1 becomes least recent
    nb = sum(a.nbytes for a in _bundle(0).values())
    stats = store.gc(byte_budget=2 * nb)
    assert stats["evicted"] == 2
    assert set(store.entries()) == {digests[0], digests[3]}


def test_index_is_advisory_not_authoritative(tmp_path):
    store = PoolStore(tmp_path)
    digest = store_digest("t", 5)
    store.publish(digest, _bundle(5))
    # Clobber the index: files are self-describing, attach still works
    # and gc rebuilds the manifest from the directory.
    (tmp_path / INDEX_NAME).write_text("{ not json")
    assert store.attach(digest) is not None
    store.gc()
    idx = json.loads((tmp_path / INDEX_NAME).read_text())
    assert set(idx["entries"]) == {digest}


def test_cli_pool_gc(tmp_path, capsys):
    from repro.cli import main

    store = PoolStore(tmp_path)
    store.publish(store_digest("t", 6), _bundle(6))
    dead = subprocess.Popen([sys.executable, "-c", ""])
    dead.wait()
    (tmp_path / f".tmp-{dead.pid}-0").write_bytes(b"torn")
    assert main(["pool", "gc", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 files" in out and "reaped 1 temp" in out
    assert not (tmp_path / f".tmp-{dead.pid}-0").exists()
