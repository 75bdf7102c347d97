"""Process-parallel map with deterministic per-task seeding.

Experiment sweeps fan out over (size, seed, version) tuples. The
executor follows the scatter/gather discipline of the MPI guides —
the work list is partitioned across workers, results are gathered in
task order — implemented on :mod:`multiprocessing` (mpi4py is not
available offline; the decomposition and determinism rules are the
same, so swapping the backend would not change results).

Determinism contract: every task receives an explicit integer seed
derived from ``(base_seed, task_index)`` via
:func:`repro.rng.derive_seed`, so results are bit-identical for any
worker count, including serial execution.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Sequence

from ..errors import ReproError

__all__ = ["parallel_map", "cpu_workers", "contiguous_shards", "fork_available"]


def fork_available() -> bool:
    """Whether worker processes are forked (inheriting parent memory).

    Forked workers inherit the parent's module globals and imported
    modules for free; spawned workers start from a fresh interpreter
    and re-import everything a task needs.
    """
    return hasattr(os, "fork")


def contiguous_shards(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous ranges.

    Ranges are half-open ``(lo, hi)`` pairs, cover ``[0, total)`` exactly,
    and differ in length by at most one (remainder spread over the first
    shards) — the scatter decomposition of the MPI guides applied to a
    rank space. Empty shards are never emitted, so fewer than ``parts``
    ranges come back when ``total < parts``.
    """
    if total < 0:
        raise ReproError(f"shard total must be nonnegative, got {total}")
    if parts < 1:
        raise ReproError(f"shard count must be positive, got {parts}")
    parts = min(parts, total) if total else 0
    shards = []
    lo = 0
    for i in range(parts):
        size = total // parts + (1 if i < total % parts else 0)
        shards.append((lo, lo + size))
        lo += size
    return shards


def cpu_workers(requested: "int | None" = None) -> int:
    """Sane worker count: ``requested`` clamped to the machine's CPUs."""
    available = os.cpu_count() or 1
    if requested is None:
        return max(1, available - 1)
    if requested < 1:
        raise ReproError(f"worker count must be positive, got {requested}")
    return min(requested, available)


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    processes: "int | None" = 1,
    chunksize: "int | None" = None,
) -> list[Any]:
    """Apply ``fn`` to every task, optionally across processes.

    Parameters
    ----------
    fn:
        A picklable (module-level) callable of one argument.
    tasks:
        The work list; results are returned in the same order
        (gather preserves scatter order).
    processes:
        ``1`` (default) runs serially in-process — no pickling, easy
        debugging, identical results. ``None`` uses all-but-one CPU.
    chunksize:
        Tasks per work unit handed to each worker; defaults to an even
        split into ~4 waves per worker.

    Notes
    -----
    Serial and parallel execution produce identical results as long as
    tasks carry their own seeds (see module docstring) — this is
    asserted by the test suite.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    nproc = cpu_workers(processes) if processes != 1 else 1
    if nproc == 1 or len(tasks) == 1:
        return [fn(t) for t in tasks]
    if chunksize is None:
        chunksize = max(1, len(tasks) // (nproc * 4))
    ctx = mp.get_context("fork" if fork_available() else "spawn")
    with ctx.Pool(processes=nproc) as pool:
        return pool.map(fn, tasks, chunksize=chunksize)
