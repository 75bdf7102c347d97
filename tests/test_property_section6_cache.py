"""Property-based tests for the Section 6 machinery on a distance cache.

The metamorphic property throughout, mirroring
``test_property_engine.py``: any interleaving of strategy swaps and
vertex weight transfers with distance queries through the shared
:class:`~repro.core.distance_cache.DistanceCache` must be
indistinguishable from recomputing every matrix from scratch — "repair
equals recompute" — and every cached Section 6 checker must answer
exactly like the loop reference. Plus the staleness contract:
environments captured before a substrate change *or a weights-revision
bump* must raise instead of answering from old state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.weighted import (
    WeightedRealization,
    WeightedSwapEnvironment,
    _weighted_swap_improves,
    fold_all_poor_leaves,
    is_weighted_weak_equilibrium,
    poor_leaves,
    weighted_sum_cost,
    weighted_swap_sweep,
)
from repro.core import DistanceCache
from repro.errors import GameError, StaleDistanceError
from repro.graphs import DistanceEngine, OwnedDigraph


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


def _fresh_reference(graph: OwnedDigraph, probe: "int | None") -> np.ndarray:
    """From-scratch distance matrix of U(G) (or U(G - probe))."""
    if probe is None:
        return DistanceEngine(graph.undirected_csr()).distances()
    return DistanceEngine(graph.undirected_csr_without(probe)).distances()


@given(
    n=st.integers(min_value=2, max_value=11),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_repair_equals_recompute_under_mixed_mutation_sequences(n, seed):
    """Random swap / weight-transfer interleavings: cached engines
    always agree with a from-scratch build of the same substrate."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n)
    wr = WeightedRealization(
        graph=g, weights=rng.integers(1, 5, size=n).astype(np.int64)
    )
    cache = DistanceCache(g)
    for _ in range(6):
        if rng.random() < 0.5:
            u = int(rng.integers(n))
            g.set_strategy(u, _random_strategy(rng, n, u, int(rng.integers(0, n))))
        else:
            src, dst = rng.choice(n, size=2, replace=False)
            if wr.weights[int(src)] > 0:
                wr.transfer_weight(int(src), int(dst))
        if rng.random() < 0.7:  # interleave queries with mutations
            probe = int(rng.integers(n))
            got = cache.player(probe).distances()
            assert np.array_equal(got, _fresh_reference(g, probe))
            base = cache.base().distances()
            assert np.array_equal(base, _fresh_reference(g, None))
    for probe in range(n):
        got = cache.player(probe).distances()
        assert np.array_equal(got, _fresh_reference(g, probe))


@given(
    n=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_cached_section6_checkers_equal_reference(n, seed):
    """Swap verdicts, weighted costs and fold cascades are bit-identical
    between the loop path and the engine path on random instances."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n, p=0.35)
    w = rng.integers(0, 5, size=n).astype(np.int64)
    if w.sum() == 0:
        w[int(rng.integers(n))] = 1
    wr = WeightedRealization(graph=g, weights=w)
    cache = DistanceCache(g)
    for u in range(n):
        assert weighted_sum_cost(wr, u) == weighted_sum_cost(wr, u, cache=cache)
        assert _weighted_swap_improves(wr, u) == _weighted_swap_improves(
            wr, u, cache=cache
        )
    assert is_weighted_weak_equilibrium(wr) == is_weighted_weak_equilibrium(
        wr, cache=cache
    )
    assert weighted_swap_sweep(wr) == weighted_swap_sweep(wr, cache=cache)
    ref = fold_all_poor_leaves(wr)
    eng = fold_all_poor_leaves(wr, cache=cache)
    assert ref.graph == eng.graph
    assert ref.weights.tolist() == eng.weights.tolist()
    assert poor_leaves(eng) == []
    # The rebound cache serves the folded working graph coherently.
    assert np.array_equal(
        cache.base().distances(), _fresh_reference(eng.graph, None)
    )


@given(
    n=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
    max_rounds=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_bounded_fold_rounds_match_reference(n, seed, max_rounds):
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n, p=0.3)
    wr = WeightedRealization(graph=g, weights=np.ones(n, dtype=np.int64))
    cache = DistanceCache(g)
    ref = fold_all_poor_leaves(wr, max_rounds=max_rounds)
    eng = fold_all_poor_leaves(wr, max_rounds=max_rounds, cache=cache)
    assert ref.graph == eng.graph
    assert ref.weights.tolist() == eng.weights.tolist()


# ----------------------------------------------------------------------
# Staleness / guards
# ----------------------------------------------------------------------
def test_weights_revision_bump_stales_environment():
    """A vertex weight transfer must invalidate every environment built
    before it, even though the distance matrices are untouched."""
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    wr = WeightedRealization(graph=g, weights=np.ones(6, dtype=np.int64))
    cache = DistanceCache(g)
    env = WeightedSwapEnvironment(wr, 1, cache=cache)
    assert env.is_fresh()
    verdict = env.swap_improves()
    wr.transfer_weight(5, 4)
    assert wr.weights_revision == 1
    assert not env.is_fresh()
    with pytest.raises(StaleDistanceError):
        env.swap_improves()
    with pytest.raises(StaleDistanceError):
        env.distances_for((2,))
    # A fresh environment answers for the new weights.
    env2 = WeightedSwapEnvironment(wr, 1, cache=cache)
    assert isinstance(env2.swap_improves(), bool)
    assert isinstance(verdict, bool)


def test_substrate_change_stales_environment_via_epoch():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 7, p=0.4)
    wr = WeightedRealization(graph=g, weights=np.ones(7, dtype=np.int64))
    cache = DistanceCache(g)
    u, v = 1, 4
    env = WeightedSwapEnvironment(wr, u, cache=cache)
    env.swap_improves()
    g.set_strategy(v, _random_strategy(rng, 7, v, 2))
    cache.player(u)  # sync the new substrate: epoch moves on
    if env.engine.epoch != env._epoch:
        with pytest.raises(StaleDistanceError):
            env.swap_improves()
    else:
        # The strategy change happened to leave U(G - u) intact.
        assert env.is_fresh()


def test_own_move_keeps_environment_fresh():
    """U(G - u) and In(u) are independent of u's strategy, so u's own
    moves never stale u's weighted environment."""
    g = OwnedDigraph(5)
    for i in range(4):
        g.add_arc(i, i + 1)
    wr = WeightedRealization(graph=g, weights=np.arange(1, 6, dtype=np.int64))
    cache = DistanceCache(g)
    env = WeightedSwapEnvironment(wr, 0, cache=cache)
    before = env.swap_improves()
    g.set_strategy(0, [2])
    assert env.is_fresh()
    assert isinstance(before, bool)


def test_cache_graph_identity_guard():
    g1 = OwnedDigraph(4)
    g1.add_arc(0, 1)
    g2 = g1.copy()
    wr = WeightedRealization(graph=g1, weights=np.ones(4, dtype=np.int64))
    cache = DistanceCache(g2)
    with pytest.raises(GameError):
        weighted_sum_cost(wr, 0, cache=cache)
    with pytest.raises(GameError):
        is_weighted_weak_equilibrium(wr, cache=cache)


def test_transfer_weight_validation():
    g = OwnedDigraph(3)
    wr = WeightedRealization(graph=g, weights=np.ones(3, dtype=np.int64))
    from repro.errors import GraphError

    with pytest.raises(GraphError):
        wr.transfer_weight(0, 0)
    with pytest.raises(GraphError):
        wr.transfer_weight(0, 5)
    assert wr.weights_revision == 0


def test_lru_eviction_bounds_cached_engines():
    rng = np.random.default_rng(9)
    g = _random_graph(rng, 10, p=0.3)
    cache = DistanceCache(g, max_player_engines=3)
    for u in range(10):
        cache.player(u)
    stats = cache.stats()
    assert stats["player_engines"] == 3
    assert stats["evictions"] == 7
    got = cache.player(0).distances()
    assert np.array_equal(got, _fresh_reference(g, 0))
