"""Tests for the parallel executor and sweep framework."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.graphs import OwnedDigraph, all_pairs_distances
from repro.parallel import (
    SweepSpec,
    SweepTask,
    aggregate_max,
    aggregate_mean,
    clear_distance_caches,
    contiguous_shards,
    cpu_workers,
    parallel_map,
    run_sweep,
    shared_distance_cache,
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


# ----------------------------------------------------------------------
# shared_distance_cache keying (regression: was keyed by instance size)
# ----------------------------------------------------------------------
def _path_graph(n: int) -> OwnedDigraph:
    g = OwnedDigraph(n)
    for i in range(n - 1):
        g.add_arc(i, i + 1)
    return g


def _star_graph(n: int) -> OwnedDigraph:
    g = OwnedDigraph(n)
    for i in range(1, n):
        g.add_arc(0, i)
    return g


def test_same_size_instances_get_distinct_caches():
    """Regression: the cache pool was keyed by instance *size*, so two
    same-size instances aliased one cache object — interleaved use kept
    rebinding it back and forth, and a caller holding "its" cache could
    silently find it bound to another task's graph."""
    clear_distance_caches()
    try:
        path = _path_graph(6)
        star = _star_graph(6)
        c_path = shared_distance_cache(path)
        c_star = shared_distance_cache(star)
        assert c_path is not c_star
        assert c_path.graph is path
        assert c_star.graph is star
        # Re-requesting either instance returns its own cache, still
        # bound to it, with no rebind thrash in between.
        assert shared_distance_cache(path) is c_path
        assert c_path.graph is path
        assert np.array_equal(
            c_path.base().distances(), all_pairs_distances(path.undirected_csr())
        )
        assert np.array_equal(
            c_star.base().distances(), all_pairs_distances(star.undirected_csr())
        )
    finally:
        clear_distance_caches()


def test_distinct_engine_kwargs_get_distinct_caches():
    clear_distance_caches()
    try:
        g = _path_graph(5)
        plain = shared_distance_cache(g)
        tuned = shared_distance_cache(g, dirty_fraction=0.25)
        assert plain is not tuned
        assert shared_distance_cache(g, dirty_fraction=0.25) is tuned
    finally:
        clear_distance_caches()


def test_evicted_cache_buffers_are_recycled():
    """Beyond the LRU bound, evicted caches retire and rebind to the
    next same-size request instead of being rebuilt from nothing."""
    clear_distance_caches()
    try:
        from repro.parallel.sweep import _MAX_LIVE_CACHES

        first = _path_graph(7)
        c_first = shared_distance_cache(first)
        c_first.base()
        c_first.player(0)
        # Push exactly one entry past the LRU bound: `first` retires.
        for _ in range(_MAX_LIVE_CACHES):
            shared_distance_cache(_star_graph(7))
        recycled = shared_distance_cache(_path_graph(7))
        assert recycled is c_first  # same object, rebound
        # Retirement trimmed the per-player family; the base buffer
        # survived and is resynced on access.
        assert recycled.stats()["player_engines"] == 0
        assert np.array_equal(
            recycled.base().distances(),
            all_pairs_distances(first.undirected_csr()),
        )
    finally:
        clear_distance_caches()


def test_aggregations():
    records = [
        {"n": 5, "d": 3},
        {"n": 5, "d": 7},
        {"n": 10, "d": 4},
    ]
    assert aggregate_max(records, "n", "d") == {5: 7, 10: 4}
    assert aggregate_mean(records, "n", "d") == {5: 5.0, 10: 4.0}
