"""Property-based tests for distance-cache coherence.

The metamorphic property throughout: any interleaving of strategy swaps
and distance queries through the shared cache must be indistinguishable
from recomputing every matrix from scratch — "sync equals recompute".
Plus the staleness contract: environments captured before a substrate
change must raise instead of answering from old distances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BestResponseEnvironment, DistanceCache
from repro.errors import StaleDistanceError
from repro.graphs import (
    OwnedDigraph,
    all_pairs_distances,
    csr_without_vertex,
)


def _random_graph(rng: np.random.Generator, n: int, p: float = 0.3) -> OwnedDigraph:
    g = OwnedDigraph(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_arc(u, v)
    return g


def _random_strategy(rng: np.random.Generator, n: int, u: int, size: int) -> list[int]:
    others = [v for v in range(n) if v != u]
    size = min(size, len(others))
    picked = rng.choice(others, size=size, replace=False) if size else []
    return [int(v) for v in np.atleast_1d(picked)]


@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_repair_equals_recompute_under_swap_sequences(n, seed):
    """Random swap/query interleavings: cached engines always agree with
    a from-scratch BFS of the same substrate."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n)
    cache = DistanceCache(g)
    for _ in range(6):
        u = int(rng.integers(n))
        g.set_strategy(u, _random_strategy(rng, n, u, int(rng.integers(0, n))))
        if rng.random() < 0.7:  # interleave queries with mutations
            probe = int(rng.integers(n))
            got = cache.player(probe).distances()
            ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), probe))
            assert np.array_equal(got, ref)
            base = cache.base().distances()
            assert np.array_equal(base, all_pairs_distances(g.undirected_csr()))
    # Final coherence across every substrate touched so far.
    for probe in range(n):
        got = cache.player(probe).distances()
        ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), probe))
        assert np.array_equal(got, ref)


# ----------------------------------------------------------------------
# Staleness / rollback
# ----------------------------------------------------------------------
def test_own_move_does_not_invalidate_own_environment():
    """U(G - u) is independent of u's strategy, so u's environment (and
    its best_swap) stays valid across u's own moves."""
    rng = np.random.default_rng(4)
    g = _random_graph(rng, 8, p=0.4)
    cache = DistanceCache(g)
    env = cache.environment(2, "sum")
    before = env.best_swap(tuple(int(v) for v in g.out_neighbors(2)))
    g.set_strategy(2, _random_strategy(rng, 8, 2, 2))
    # Re-syncing finds an identical substrate: same epoch, env still live.
    assert cache.player(2).epoch == env.engine.epoch
    after = env.best_swap(before[1])
    assert env.evaluate(before[1]) == before[0]
    assert after[0] <= before[0]


def test_other_player_move_invalidates_environment_even_after_rollback():
    """A change by another player bumps the epoch; rolling the change
    back (after the cache synced the intermediate state) does not
    un-bump it, so the stale environment keeps raising and best_swap
    must be re-run on a fresh environment."""
    # Path 0-1-2-3-4-5 with forward ownership; u evaluates, v deviates.
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    u, v = 1, 4
    cache = DistanceCache(g)
    cur = tuple(int(w) for w in g.out_neighbors(u))
    env = cache.environment(u, "max")
    cost_before, strat_before, _ = env.best_swap(cur)

    # v rewires 4->5 to 4->0: the substrate U(G - u) changes.
    g.set_strategy(v, [0])
    cache.player(u)  # sync the intermediate state
    assert not env.is_fresh()
    with pytest.raises(StaleDistanceError):
        env.best_swap(cur)
    with pytest.raises(StaleDistanceError):
        env.evaluate(cur)

    # Rollback: graph content identical to the original...
    g.set_strategy(v, [5])
    refreshed = cache.environment(u, "max")
    assert refreshed is not env
    # ...the old environment stays stale (its epoch was superseded
    # twice), but a fresh one reproduces the original best_swap.
    with pytest.raises(StaleDistanceError):
        env.evaluate(cur)
    assert refreshed.best_swap(cur)[:2] == (cost_before, strat_before)


def test_rollback_without_intermediate_sync_is_noop():
    """If nobody queried between a change and its rollback, the CSR diff
    sees no change: same epoch, the old environment is still valid."""
    rng = np.random.default_rng(6)
    g = _random_graph(rng, 7, p=0.4)
    cache = DistanceCache(g)
    u, v = 0, 3
    cur = tuple(int(w) for w in g.out_neighbors(u))
    env = cache.environment(u, "sum")
    baseline = env.evaluate(cur)
    old_v = [int(w) for w in g.out_neighbors(v)]
    g.set_strategy(v, _random_strategy(rng, 7, v, 3))
    g.set_strategy(v, old_v)  # rolled back before any cache access
    assert cache.player(u).epoch == env.engine.epoch
    assert env.evaluate(cur) == baseline


def test_standalone_environment_raises_on_any_relevant_mutation():
    # Path 0-1-2-3-4 with forward ownership; u = 0 has no in-arcs.
    g = OwnedDigraph(5)
    for i in range(4):
        g.add_arc(i, i + 1)
    env = BestResponseEnvironment(g, 0, "sum")
    cur = tuple(int(w) for w in g.out_neighbors(0))
    first = env.evaluate(cur)
    # u's own moves touch neither U(G - 0) nor In(0): still fresh.
    g.set_strategy(0, [2])
    assert env.is_fresh()
    assert env.evaluate(cur) == first
    # A substrate mutation (edge {3,4} removed) is detected even though
    # the private engine was never told about it.
    g.set_strategy(3, [2])
    assert not env.is_fresh()
    with pytest.raises(StaleDistanceError):
        env.evaluate(cur)
    # A fresh environment answers for the current graph.
    env2 = BestResponseEnvironment(g, 0, "sum")
    # An in-arc change alone (substrate untouched) is also detected.
    g.add_arc(3, 0)
    with pytest.raises(StaleDistanceError):
        env2.evaluate(cur)


def test_cache_rebind_keeps_buffers_but_resyncs():
    rng = np.random.default_rng(8)
    g1 = _random_graph(rng, 9, p=0.3)
    g2 = _random_graph(rng, 9, p=0.3)
    cache = DistanceCache(g1)
    e1 = cache.player(4)
    m1 = e1.distances()
    cache.rebind(g2)
    e2 = cache.player(4)
    assert e2 is e1  # engine object (and its matrix buffer) reused
    ref = all_pairs_distances(csr_without_vertex(g2.undirected_csr(), 4))
    assert np.array_equal(e2.distances(), ref)
    assert np.array_equal(
        cache.base().distances(), all_pairs_distances(g2.undirected_csr())
    )
    assert not np.array_equal(m1, e2.distances()) or g1 == g2


def test_lru_eviction_bounds_cached_engines():
    rng = np.random.default_rng(9)
    g = _random_graph(rng, 10, p=0.3)
    cache = DistanceCache(g, max_player_engines=3)
    for u in range(10):
        cache.player(u)
    stats = cache.stats()
    assert stats["player_engines"] == 3
    assert stats["evictions"] == 7
    # Evicted engines are rebuilt on demand and still correct.
    got = cache.player(0).distances()
    ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), 0))
    assert np.array_equal(got, ref)


# ----------------------------------------------------------------------
# Cache point queries: cold, synced, and lazy paths agree (PR-6)
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_cache_query_matches_matrices_across_modes(n, seed, steps):
    """DistanceCache.query must be bit-identical to the maintained-matrix
    entries in every rows mode, interleaved with strategy swaps — and a
    cold full-mode cache must answer without building its engines."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n)
    cold = DistanceCache(g)
    full = DistanceCache(g)
    lazy = DistanceCache(g, rows="lazy")
    for _ in range(steps + 1):
        ref = all_pairs_distances(g.undirected_csr())
        ref[ref == -1] = n * n
        u, v = int(rng.integers(n)), int(rng.integers(n))
        base_stats = cold.stats()["rebuilds"]
        for c in (cold, full, lazy):
            assert c.query(u, v) == int(ref[u, v])
        # The cold cache answered by bounded search, not an engine build.
        assert cold.stats()["rebuilds"] == base_stats
        full.base()  # keep one cache fully synced for the next round
        u2 = int(rng.integers(n))
        others = [x for x in range(n) if x != u2]
        k = min(g.out_degree(u2), len(others))
        picked = rng.choice(others, size=k, replace=False) if k else []
        g.set_strategy(u2, [int(x) for x in np.atleast_1d(picked)])
