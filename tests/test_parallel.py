"""Tests for the parallel executor and sweep framework."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.parallel import (
    SweepSpec,
    SweepTask,
    aggregate_max,
    aggregate_mean,
    contiguous_shards,
    cpu_workers,
    parallel_map,
    run_sweep,
)


def _square(x: int) -> int:
    return x * x


def _seeded_random(task: SweepTask) -> dict:
    rng = np.random.default_rng(task.seed)
    return {"value": float(rng.random()), "n2": task.params["n"] ** 2}


def test_parallel_map_serial():
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert parallel_map(_square, []) == []


def test_parallel_map_processes_match_serial():
    tasks = list(range(24))
    serial = parallel_map(_square, tasks, processes=1)
    parallel = parallel_map(_square, tasks, processes=2)
    assert serial == parallel


def test_contiguous_shards_cover_exactly():
    shards = contiguous_shards(10, 3)
    assert shards == [(0, 4), (4, 7), (7, 10)]
    assert contiguous_shards(6, 3) == [(0, 2), (2, 4), (4, 6)]


def test_contiguous_shards_more_parts_than_items():
    """Regression guard: requesting more shards than rank-space items
    must clamp to one item per shard — an empty (lo == hi) shard would
    checkpoint/journal/merge as a vacuous unit of work downstream."""
    assert contiguous_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]
    assert contiguous_shards(1, 4) == [(0, 1)]
    assert contiguous_shards(0, 4) == []
    for total, parts in ((3, 8), (1, 4), (5, 5), (2, 7)):
        shards = contiguous_shards(total, parts)
        assert all(lo < hi for lo, hi in shards)
        assert [r for lo, hi in shards for r in range(lo, hi)] == list(
            range(total)
        )


def test_contiguous_shards_validation():
    with pytest.raises(ReproError):
        contiguous_shards(-1, 2)
    with pytest.raises(ReproError):
        contiguous_shards(5, 0)


def test_cpu_workers():
    assert cpu_workers(1) == 1
    assert cpu_workers(None) >= 1
    with pytest.raises(ReproError):
        cpu_workers(0)


def test_sweep_spec_tasks():
    spec = SweepSpec(axes={"n": [5, 10], "v": ["a"]}, replications=3, base_seed=1)
    tasks = spec.tasks()
    assert len(tasks) == 6
    # Unique deterministic seeds.
    seeds = [t.seed for t in tasks]
    assert len(set(seeds)) == 6
    assert tasks[0].params == {"n": 5, "v": "a", "replication": 0}
    # Rebuilding gives identical seeds.
    assert [t.seed for t in spec.tasks()] == seeds


def test_sweep_spec_validation():
    with pytest.raises(ReproError):
        SweepSpec(axes={}, replications=1)
    with pytest.raises(ReproError):
        SweepSpec(axes={"n": []}, replications=1)
    with pytest.raises(ReproError):
        SweepSpec(axes={"n": [1]}, replications=0)


def test_run_sweep_merges_params():
    spec = SweepSpec(axes={"n": [2, 3]}, replications=2, base_seed=9)
    records = run_sweep(_seeded_random, spec)
    assert len(records) == 4
    for r in records:
        assert r["n2"] == r["n"] ** 2
        assert "seed" in r and "replication" in r


def test_run_sweep_serial_parallel_identical():
    spec = SweepSpec(axes={"n": [2, 3, 4]}, replications=2, base_seed=3)
    serial = run_sweep(_seeded_random, spec, processes=1)
    parallel = run_sweep(_seeded_random, spec, processes=2)
    assert serial == parallel


def test_aggregations():
    records = [
        {"n": 5, "d": 3},
        {"n": 5, "d": 7},
        {"n": 10, "d": 4},
    ]
    assert aggregate_max(records, "n", "d") == {5: 7, 10: 4}
    assert aggregate_mean(records, "n", "d") == {5: 5.0, 10: 4.0}
