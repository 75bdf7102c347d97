"""Property-based tests for the distance cache and environment guards.

A :class:`~repro.core.DistanceCache` freezes its graph, so its engines
stay exact for the cache's life: every read must equal a from-scratch
BFS of the same substrate, and any mutation of the cached graph must
raise. Environments built privately over a mutable graph snapshot its
revision and raise :class:`~repro.errors.StaleDistanceError` once it
moves on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_vertex_cost

from repro.analysis.weighted import WeightedRealization, WeightedSwapEnvironment
from repro.core import BestResponseEnvironment, DistanceCache
from repro.errors import GraphError, StaleDistanceError
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


# ----------------------------------------------------------------------
# Frozen graphs
# ----------------------------------------------------------------------
def test_cache_freezes_graph_and_copy_is_mutable():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(1, 2)
    cache = DistanceCache(g)
    arcs = list(g.arcs())
    revision = g.revision
    with pytest.raises(GraphError, match="frozen"):
        g.add_arc(2, 3)
    with pytest.raises(GraphError, match="frozen"):
        g.remove_arc(0, 1)
    with pytest.raises(GraphError, match="frozen"):
        g.set_strategy(1, [3])
    assert list(g.arcs()) == arcs
    assert g.revision == revision
    # A copy is an ordinary mutable graph; the cache still serves g.
    h = g.copy()
    h.add_arc(2, 3)
    h.set_strategy(1, [3])
    assert cache.query(0, 2) == 2
    assert np.array_equal(
        cache.base().distances(), all_pairs_distances(g.undirected_csr())
    )


@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_cache_engines_equal_fresh_bfs(n, seed):
    """Every engine a cache hands out, in either rows mode, equals a
    from-scratch BFS of its substrate."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n)
    ref_base = all_pairs_distances(g.undirected_csr())
    for cache in (DistanceCache(g), DistanceCache(g, rows="lazy")):
        for probe in rng.permutation(n)[:3].tolist():
            got = cache.player(probe).distances()
            ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), probe))
            assert np.array_equal(got, ref)
        assert np.array_equal(cache.base().distances(), ref_base)


# ----------------------------------------------------------------------
# Staleness: any mutation stales a private environment
# ----------------------------------------------------------------------
def test_other_player_move_invalidates_environment_even_after_rollback():
    """A change by another player stales the environment; rolling the
    change back does not un-stale it, and a fresh environment
    reproduces the original best_swap."""
    # Path 0-1-2-3-4-5 with forward ownership; u evaluates, v deviates.
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    u, v = 1, 4
    cur = tuple(int(w) for w in g.out_neighbors(u))
    env = BestResponseEnvironment(g, u, "max")
    cost_before, strat_before, _ = env.best_swap(cur)

    # v rewires 4->5 to 4->0: the substrate U(G - u) changes.
    g.set_strategy(v, [0])
    with pytest.raises(StaleDistanceError):
        env.best_swap(cur)
    with pytest.raises(StaleDistanceError):
        env.evaluate(cur)

    # Rollback: graph content identical to the original...
    g.set_strategy(v, [5])
    # ...the old environment stays stale, a fresh one reproduces the
    # original best_swap.
    with pytest.raises(StaleDistanceError):
        env.evaluate(cur)
    refreshed = BestResponseEnvironment(g, u, "max")
    assert refreshed.best_swap(cur)[:2] == (cost_before, strat_before)


def test_standalone_environment_raises_on_any_relevant_mutation():
    """Own moves, substrate changes and in-arc changes alike: every
    mutation after a private BestResponseEnvironment or
    WeightedSwapEnvironment is built makes its next evaluation raise."""
    mutations = [
        lambda g: g.set_strategy(0, [2]),  # u's own move
        lambda g: g.set_strategy(3, [2]),  # substrate U(G - 0) changes
        lambda g: g.add_arc(3, 0),  # In(0) changes, substrate intact
        lambda g: g.remove_arc(2, 3),
    ]
    for mutate in mutations:
        # Path 0-1-2-3-4 with forward ownership; u = 0 has no in-arcs.
        g = OwnedDigraph(5)
        for i in range(4):
            g.add_arc(i, i + 1)
        wr = WeightedRealization(graph=g, weights=np.arange(1, 6))
        env = BestResponseEnvironment(g, 0, "sum")
        wenv = WeightedSwapEnvironment(wr, 0)
        cur = (1,)
        assert env.evaluate(cur) == naive_vertex_cost(g, 0, "sum")
        wenv.swap_improves()
        mutate(g)
        for call in (
            lambda: env.evaluate(cur),
            lambda: env.best_swap(cur),
            lambda: env.greedy(1),
            lambda: env.distances_for(cur),
            lambda: wenv.swap_improves(),
            lambda: wenv.check_swap(1, 3),
            lambda: wenv.distances_for(cur),
        ):
            with pytest.raises(StaleDistanceError):
                call()
        # A fresh environment answers for the current graph.
        now = tuple(int(w) for w in g.out_neighbors(0))
        fresh = BestResponseEnvironment(g, 0, "sum").evaluate(now)
        assert fresh == naive_vertex_cost(g, 0, "sum")


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
# Cache point queries: cold, built, and lazy paths agree
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_cache_query_matches_matrices_across_modes(n, seed, steps):
    """DistanceCache.query must be bit-identical to the matrix entries
    in every rows mode along a sequence of strategy swaps, each step
    served by fresh caches over a frozen copy — and a cold full-mode
    cache must answer without building its engines."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n)
    for _ in range(steps + 1):
        snap = g.copy()
        cold = DistanceCache(snap)
        built = DistanceCache(snap)
        built.base()
        lazy = DistanceCache(snap, rows="lazy")
        ref = all_pairs_distances(g.undirected_csr())
        ref[ref == -1] = n * n
        u, v = int(rng.integers(n)), int(rng.integers(n))
        for c in (cold, built, lazy):
            assert c.query(u, v) == int(ref[u, v])
        # The cold cache answered by bounded search, not an engine build.
        assert cold.stats()["rebuilds"] == 0
        u2 = int(rng.integers(n))
        others = [x for x in range(n) if x != u2]
        k = min(g.out_degree(u2), len(others))
        picked = rng.choice(others, size=k, replace=False) if k else []
        g.set_strategy(u2, [int(x) for x in np.atleast_1d(picked)])
