"""Declarative parameter sweeps over game instances.

A sweep is the cartesian product of named parameter axes plus a
replication axis of seeds; each grid point becomes one task with a
deterministic derived seed. The result is a flat list of records
(dicts) ready for aggregation — the pattern every Table 1 experiment
shares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..errors import ReproError
from ..rng import derive_seed
from .executor import parallel_map

__all__ = [
    "SweepSpec",
    "SweepTask",
    "run_sweep",
    "aggregate_max",
    "aggregate_mean",
]


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
