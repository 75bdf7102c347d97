"""Declarative parameter sweeps over game instances.

A sweep is the cartesian product of named parameter axes plus a
replication axis of seeds; each grid point becomes one task with a
deterministic derived seed. The result is a flat list of records
(dicts) ready for aggregation — the pattern every Table 1 experiment
shares.

Workers that run best-response dynamics should fetch their distance
substrate via :func:`shared_distance_cache` instead of letting each
task build its own. Two reuse layers compose, cheapest first:

* **Live entries** — one :class:`DistanceCache` per graph *instance*
  (keyed by the process-unique
  :attr:`~repro.graphs.digraph.OwnedDigraph.instance_id`, so two
  same-size instances can never alias each other's engines — the
  keyed-by-size aliasing bug this replaces);
* **Retired buffers** — engines of evicted entries are recycled by
  rebinding, so matrices are reused across tasks of the same size.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..core.distance_cache import DistanceCache
from ..errors import ReproError
from ..graphs.digraph import OwnedDigraph
from ..rng import derive_seed
from .executor import parallel_map

__all__ = [
    "SweepSpec",
    "SweepTask",
    "run_sweep",
    "aggregate_max",
    "aggregate_mean",
    "shared_distance_cache",
    "clear_distance_caches",
]

#: Process-local pool of live distance caches, keyed by
#: ``graph.instance_id``. Worker processes are forked per sweep, so
#: entries never leak across runs with different configurations; serial
#: runs reuse them across tasks, which is the point. LRU-bounded; the
#: evicted caches' buffers survive in ``_RETIRED`` for recycling.
_PROCESS_CACHES: "OrderedDict[int, tuple[DistanceCache, tuple]]" = OrderedDict()

#: Evicted caches by ``(n, engine-kwargs key)``, ready to rebind to the
#: next same-shaped instance (buffer reuse without aliasing live
#: entries). Trimmed to their base engine on retirement, one per
#: bucket, LRU-bounded.
_RETIRED: "OrderedDict[tuple, DistanceCache]" = OrderedDict()

#: Live cache entries kept per process. Deliberately small: a live
#: entry stays bound to its instance (the no-aliasing contract), so
#: only the instances a worker genuinely interleaves need live slots —
#: everything older retires into ``_RETIRED`` for recycling.
_MAX_LIVE_CACHES: int = 2

#: Retired recycling buckets kept per process.
_MAX_RETIRED: int = 4

def shared_distance_cache(graph: OwnedDigraph, **kwargs) -> DistanceCache:
    """Process-local :class:`DistanceCache` for exactly this ``graph``.

    Entries are keyed by ``(instance id, engine kwargs)`` — instance
    ids are process-unique and never reused, so the returned cache is
    bound to this graph object until evicted and can never silently
    alias another same-size instance (revision sync remains the cache's
    own job, which is why the revision is not part of the key). Misses
    try, in order: a retired same-shape cache (buffer-reusing rebind),
    a fresh build. Least-recently-used entries
    retire beyond ``_MAX_LIVE_CACHES``, trimmed to their base engine so
    parked buffers stay cheap.
    """
    key = tuple(sorted(kwargs.items()))
    iid = graph.instance_id
    entry = _PROCESS_CACHES.get(iid)
    if entry is not None and entry[1] == key:
        cache = entry[0]
    else:
        retired = _RETIRED.pop((graph.n, key), None)
        if retired is not None:
            cache = retired
            cache.rebind(graph)
        else:
            cache = DistanceCache(graph, **kwargs)
        _PROCESS_CACHES[iid] = (cache, key)
    _PROCESS_CACHES.move_to_end(iid)
    while len(_PROCESS_CACHES) > _MAX_LIVE_CACHES:
        _, (old_cache, old_key) = _PROCESS_CACHES.popitem(last=False)
        old_cache.trim()  # drop player engines: park the base buffer only
        _RETIRED[(old_cache.graph.n, old_key)] = old_cache
        _RETIRED.move_to_end((old_cache.graph.n, old_key))
        while len(_RETIRED) > _MAX_RETIRED:
            _RETIRED.popitem(last=False)
    return cache


def clear_distance_caches() -> None:
    """Drop all process-local distance caches (frees their matrices)."""
    _PROCESS_CACHES.clear()
    _RETIRED.clear()


@dataclass(frozen=True)
class SweepTask:
    """One grid point of a sweep: parameters plus a derived seed."""

    index: int
    params: "dict[str, Any]"
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: named axes, replication count, base seed.

    Example
    -------
    >>> spec = SweepSpec(axes={"n": [10, 20], "version": ["sum", "max"]},
    ...                  replications=3, base_seed=7)
    >>> len(spec.tasks())
    12
    """

    axes: "Mapping[str, Sequence[Any]]"
    replications: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ReproError(f"replications must be >= 1, got {self.replications}")
        if not self.axes:
            raise ReproError("sweep needs at least one axis")
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ReproError(f"axis {name!r} is empty")

    def tasks(self) -> list[SweepTask]:
        """Materialise the full task list with deterministic seeds."""
        names = list(self.axes.keys())
        out: list[SweepTask] = []
        index = 0
        for combo in itertools.product(*(self.axes[k] for k in names)):
            for rep in range(self.replications):
                params = dict(zip(names, combo))
                params["replication"] = rep
                out.append(
                    SweepTask(
                        index=index,
                        params=params,
                        seed=derive_seed(self.base_seed, index),
                    )
                )
                index += 1
        return out


def run_sweep(
    worker: Callable[[SweepTask], "dict[str, Any]"],
    spec: SweepSpec,
    *,
    processes: "int | None" = 1,
) -> list[dict[str, Any]]:
    """Execute a sweep and return one record per grid point.

    ``worker`` must be a module-level function mapping a
    :class:`SweepTask` to a dict; the task's parameters are merged into
    the record so downstream aggregation has full context.
    """
    tasks = spec.tasks()
    results = parallel_map(worker, tasks, processes=processes)
    records = []
    for task, result in zip(tasks, results):
        record = dict(task.params)
        record["seed"] = task.seed
        record.update(result)
        records.append(record)
    return records


def aggregate_max(
    records: "list[dict[str, Any]]", key: str, value: str
) -> dict[Any, Any]:
    """Group records by ``key`` and take the max of ``value`` per group.

    The natural aggregation for price-of-anarchy sweeps (worst
    equilibrium per size).
    """
    out: dict[Any, Any] = {}
    for r in records:
        k = r[key]
        v = r[value]
        if k not in out or v > out[k]:
            out[k] = v
    return out


def aggregate_mean(
    records: "list[dict[str, Any]]", key: str, value: str
) -> dict[Any, float]:
    """Group records by ``key`` and average ``value`` per group."""
    sums: dict[Any, float] = {}
    counts: dict[Any, int] = {}
    for r in records:
        k = r[key]
        sums[k] = sums.get(k, 0.0) + float(r[value])
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}
