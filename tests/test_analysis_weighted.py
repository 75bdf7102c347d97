"""Tests for the Section 6 weighted weak-equilibrium machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    WeightedRealization,
    check_lemma_6_4,
    fold_all_poor_leaves,
    fold_poor_leaf,
    is_weighted_weak_equilibrium,
    poor_leaves,
    rich_leaves,
    weighted_sum_cost,
)
from repro.core import BoundedBudgetGame, best_response_dynamics
from repro.errors import GraphError
from repro.graphs import OwnedDigraph, path_realization, star_realization


def test_unit_weights_cost_matches_unweighted():
    from repro.core import vertex_cost

    g = path_realization(6)
    wr = WeightedRealization.unit(g)
    for u in range(6):
        assert weighted_sum_cost(wr, u) == vertex_cost(g, u, "sum")


def test_weights_validation():
    g = path_realization(3)
    with pytest.raises(GraphError):
        WeightedRealization(graph=g, weights=np.array([1, 1]))
    with pytest.raises(GraphError):
        WeightedRealization(graph=g, weights=np.array([1, -1, 1]))


def test_weighted_cost_scales_with_weights():
    g = path_realization(3)  # 0 - 1 - 2
    wr = WeightedRealization(graph=g.copy(), weights=np.array([1, 1, 10]))
    # c(0) = w(1)*1 + w(2)*2 = 21.
    assert weighted_sum_cost(wr, 0) == 21
    assert weighted_sum_cost(wr, 2) == 10 * 0 + 1 * 1 + 1 * 2


def test_poor_and_rich_leaves():
    # 0 -> 1 (1 is a poor leaf), 2 -> 0 (2 is a rich leaf); star-ish.
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    g.add_arc(2, 0)
    wr = WeightedRealization.unit(g)
    assert poor_leaves(wr) == [1]
    assert rich_leaves(wr) == [2]


def test_fold_poor_leaf_transfers_weight():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(0, 2)
    g.add_arc(3, 0)
    wr = WeightedRealization.unit(g)
    assert set(poor_leaves(wr)) == {1, 2}
    folded = fold_poor_leaf(wr, 1)
    assert folded.weights.tolist() == [2, 0, 1, 1]
    assert not folded.graph.has_arc(0, 1)
    assert folded.total_weight() == wr.total_weight()
    # Original is untouched.
    assert wr.weights.tolist() == [1, 1, 1, 1]


def test_fold_rejects_non_poor_vertices():
    g = path_realization(4)
    wr = WeightedRealization.unit(g)
    with pytest.raises(GraphError):
        fold_poor_leaf(wr, 1)  # interior vertex


def test_fold_all_poor_leaves_terminates():
    # A directed star: all leaves poor; folding collapses to the center.
    g = star_realization(6, 0, center_owns=True)
    wr = WeightedRealization.unit(g)
    folded = fold_all_poor_leaves(wr)
    assert poor_leaves(folded) == []
    assert folded.weights[0] == 6
    assert folded.total_weight() == 6


def test_folding_preserves_weak_equilibrium():
    # Take a SUM equilibrium found by exact dynamics, fold poor leaves,
    # and verify weak equilibrium is preserved at every step (the paper's
    # claim after Lemma 6.2).
    game = BoundedBudgetGame([1, 1, 1, 1, 2, 0, 0])
    res = best_response_dynamics(
        game, game.random_realization(seed=2, connected=True), "sum", max_rounds=100
    )
    assert res.converged
    wr = WeightedRealization.unit(res.graph)
    assert is_weighted_weak_equilibrium(wr)
    current = wr
    while poor_leaves(current):
        current = fold_poor_leaf(current, poor_leaves(current)[0])
        assert is_weighted_weak_equilibrium(current), "folding broke weak equilibrium"


def test_lemma_6_4_on_equilibria():
    # Rich leaves of (weighted) weak equilibria are within distance 2.
    for seed in range(4):
        game = BoundedBudgetGame([1] * 9)
        res = best_response_dynamics(
            game, game.random_realization(seed=seed), "sum", max_rounds=100
        )
        assert res.converged
        wr = WeightedRealization.unit(res.graph)
        report = check_lemma_6_4(wr)
        assert report.holds, (seed, report)


def test_lemma_6_4_violated_on_non_equilibrium():
    # A long path has rich leaves far apart — and is not an equilibrium.
    g = OwnedDigraph(6)
    g.add_arc(0, 1)
    for i in range(1, 5):
        g.add_arc(i, i + 1)
    g_rev = OwnedDigraph(6)
    g_rev.add_arc(0, 1)
    g_rev.add_arc(5, 4)
    for i in range(1, 4):
        g_rev.add_arc(i, i + 1)
    wr = WeightedRealization.unit(g_rev)
    assert set(rich_leaves(wr)) == {0, 5}
    report = check_lemma_6_4(wr)
    assert not report.holds
    assert not is_weighted_weak_equilibrium(wr)


# ----------------------------------------------------------------------
# weighted_swap_check: the Section 6 point verdict (PR-6)
# ----------------------------------------------------------------------
def test_weighted_swap_check_grid_matches_swap_improves():
    """Every legal (drop, add) verdict agrees across the cold lazy entry
    point and environments on shared full and lazy cache engines, and
    their disjunction is the brute oracle's swap verdict."""
    from conftest import brute_weighted_swap_improves, random_owned_digraph

    from repro.analysis.weighted import (
        WeightedRealization,
        WeightedSwapEnvironment,
        _weighted_swap_improves,
        weighted_swap_check,
    )
    from repro.core.distance_cache import DistanceCache

    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(4, 10))
        g = random_owned_digraph(rng, n, p=0.35)
        weights = rng.integers(1, 6, n)
        wr = WeightedRealization(graph=g, weights=weights)
        caches = [DistanceCache(g), DistanceCache(g, rows="lazy")]
        for u in range(n):
            cur = tuple(int(v) for v in g.out_neighbors(u))
            if not cur:
                continue
            envs = [WeightedSwapEnvironment(wr, u, engine=c.player(u)) for c in caches]
            pool = [v for v in range(n) if v != u and v not in cur]
            found = False
            for drop in cur:
                for add in pool:
                    verdicts = {weighted_swap_check(wr, u, drop, add)}
                    verdicts |= {env.check_swap(drop, add) for env in envs}
                    assert len(verdicts) == 1, (u, drop, add)
                    found = found or verdicts.pop()
            assert found == _weighted_swap_improves(wr, u)
            assert found == brute_weighted_swap_improves(wr, u)


def test_weighted_swap_check_validates_move_set():
    from repro.analysis.weighted import WeightedRealization, weighted_swap_check
    from repro.errors import GameError

    g = path_realization(5)
    wr = WeightedRealization.unit(g)
    wr.weights[4] = 0  # a folded ghost
    with pytest.raises(GameError):
        weighted_swap_check(wr, 0, 3, 2)  # 0 owns no arc to 3
    with pytest.raises(GameError):
        weighted_swap_check(wr, 0, 1, 0)  # self-link
    with pytest.raises(GameError):
        weighted_swap_check(wr, 1, 2, 2)  # already owned
    with pytest.raises(GameError):
        weighted_swap_check(wr, 0, 1, 4)  # ghost target


def test_weighted_swap_check_cold_path_touches_few_rows():
    """A one-off cold verdict must materialise only the rows of
    cur ∪ In(u) ∪ {add}, never promote to a full matrix."""
    from repro.analysis.weighted import WeightedRealization, WeightedSwapEnvironment
    from repro.graphs import DistanceEngine

    g = path_realization(64)
    wr = WeightedRealization.unit(g)
    u = 5
    engine = DistanceEngine(g.undirected_csr_without(u), rows="lazy")
    env = WeightedSwapEnvironment(wr, u, engine=engine)
    env.check_swap(6, 40)
    assert engine.lazy
    assert engine.hot_rows().size <= 4  # cur(1) + In(u)(1) + add(1) + slack


def test_check_lemma_6_4_star_matches_oracle():
    from conftest import brute_lemma_6_4

    from repro.analysis.weighted import WeightedRealization, check_lemma_6_4

    wr = WeightedRealization.unit(star_realization(6))
    report = check_lemma_6_4(wr)
    assert report == brute_lemma_6_4(wr)
    assert report.holds
