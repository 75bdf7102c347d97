"""Property-based tests for the Section 6 checkers against oracles.

On random graphs with random vertex weights (weight-0 ghosts
included), every Section 6 checker must answer exactly like the
test-local oracles of ``conftest.py``: a brute-force swap oracle, scipy
distances and a copy-and-rescan fold loop. Plus the distance cache's
LRU bound on player engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_lemma_6_4,
    brute_weighted_sum_cost,
    brute_weighted_swap_improves,
    brute_weighted_weak_equilibrium,
    rescan_fold_all,
)

from repro.analysis.weighted import (
    WeightedRealization,
    _weighted_swap_improves,
    check_lemma_6_4,
    fold_all_poor_leaves,
    is_weighted_weak_equilibrium,
    poor_leaves,
    weighted_sum_cost,
    weighted_swap_sweep,
)
from repro.core import DistanceCache
from repro.graphs import DistanceEngine, OwnedDigraph


def _random_graph(rng: np.random.Generator, n: int, p: float = 0.3) -> OwnedDigraph:
    g = OwnedDigraph(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_arc(u, v)
    return g


@given(
    n=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_section6_checkers_equal_oracles(n, seed):
    """Swap verdicts, weighted costs, Lemma 6.4 reports and fold
    cascades equal the oracles on random instances."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, n, p=0.35)
    w = rng.integers(0, 5, size=n).astype(np.int64)
    if w.sum() == 0:
        w[int(rng.integers(n))] = 1
    wr = WeightedRealization(graph=g, weights=w)
    truth = [brute_weighted_swap_improves(wr, u) for u in range(n)]
    for u in range(n):
        assert weighted_sum_cost(wr, u) == brute_weighted_sum_cost(wr, u)
        assert _weighted_swap_improves(wr, u) == truth[u]
    assert is_weighted_weak_equilibrium(wr) == brute_weighted_weak_equilibrium(wr)
    assert weighted_swap_sweep(wr) == [truth[u] for u in wr.active.tolist()]
    assert check_lemma_6_4(wr) == brute_lemma_6_4(wr)
    ref = rescan_fold_all(wr)
    got = fold_all_poor_leaves(wr)
    assert ref.graph == got.graph
    assert ref.weights.tolist() == got.weights.tolist()
    assert poor_leaves(got) == []


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
    ref = rescan_fold_all(wr, max_rounds=max_rounds)
    got = fold_all_poor_leaves(wr, max_rounds=max_rounds)
    assert ref.graph == got.graph
    assert ref.weights.tolist() == got.weights.tolist()


def test_transfer_weight_validation():
    g = OwnedDigraph(3)
    wr = WeightedRealization(graph=g, weights=np.ones(3, dtype=np.int64))
    from repro.errors import GraphError

    with pytest.raises(GraphError):
        wr.transfer_weight(0, 0)
    with pytest.raises(GraphError):
        wr.transfer_weight(0, 5)
    assert wr.weights.tolist() == [1, 1, 1]


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
    assert np.array_equal(got, DistanceEngine.from_graph(g, isolate=0).distances())
