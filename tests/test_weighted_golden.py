"""Golden equivalence: engine-backed Section 6 machinery vs loop path.

Every fixture exercised by ``test_analysis_weighted.py`` and
``test_section6_checkers.py`` — dynamics-converged equilibria, stars,
paths, fold cascades, Lemma 6.4 graphs — is re-run here through a
:class:`~repro.core.distance_cache.DistanceCache`, and every verdict,
cost, fold sequence and report must be *bit-identical* to the retained
loop path. The
weighted census gets the same treatment: the bitset-evaluated Gray walk
(one worker, sharded, checkpointed) vs the rebuild-per-profile oracle
of ``conftest.py``.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_weighted_census

from repro.analysis.weighted import (
    WeightedRealization,
    _weighted_swap_improves,
    check_lemma_6_4,
    fold_all_poor_leaves,
    fold_poor_leaf,
    is_weighted_weak_equilibrium,
    poor_leaves,
    rich_leaves,
    weighted_sum_cost,
)
from repro.core import (
    BoundedBudgetGame,
    DistanceCache,
    best_response_dynamics,
    weighted_census_scan,
)
from repro.errors import GraphError
from repro.graphs import OwnedDigraph, path_realization, star_realization


def both_paths(wr: WeightedRealization):
    """A fresh cache bound to ``wr.graph`` for the engine path."""
    return DistanceCache(wr.graph)


def assert_checkers_identical(wr: WeightedRealization) -> None:
    """Every public checker answers the same with and without engines."""
    cache = both_paths(wr)
    for u in range(wr.graph.n):
        assert weighted_sum_cost(wr, u) == weighted_sum_cost(wr, u, cache=cache)
        assert _weighted_swap_improves(wr, u) == _weighted_swap_improves(
            wr, u, cache=cache
        ), u
    assert is_weighted_weak_equilibrium(wr) == is_weighted_weak_equilibrium(
        wr, cache=cache
    )
    assert check_lemma_6_4(wr) == check_lemma_6_4(wr, cache=cache)


# ----------------------------------------------------------------------
# Fixtures from test_analysis_weighted.py
# ----------------------------------------------------------------------
def test_path_fixture_bit_identical():
    for n in (3, 6):
        assert_checkers_identical(WeightedRealization.unit(path_realization(n)))


def test_scaled_weights_fixture_bit_identical():
    g = path_realization(3)
    wr = WeightedRealization(graph=g.copy(), weights=np.array([1, 1, 10]))
    assert_checkers_identical(wr)
    cache = both_paths(wr)
    assert weighted_sum_cost(wr, 0, cache=cache) == 21


def test_leaf_classification_fixture_bit_identical():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    g.add_arc(2, 0)
    wr = WeightedRealization.unit(g)
    assert poor_leaves(wr) == [1]
    assert rich_leaves(wr) == [2]
    assert_checkers_identical(wr)


def test_fold_poor_leaf_engine_path_matches_reference():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(0, 2)
    g.add_arc(3, 0)
    wr = WeightedRealization.unit(g)
    cache = both_paths(wr)
    ref = fold_poor_leaf(wr, 1)
    eng = fold_poor_leaf(wr, 1, cache=cache)
    assert ref.graph == eng.graph
    assert ref.weights.tolist() == eng.weights.tolist() == [2, 0, 1, 1]
    # The cache now tracks the folded working copy.
    assert cache.graph is eng.graph
    assert is_weighted_weak_equilibrium(eng, cache=cache) == is_weighted_weak_equilibrium(ref)
    # Originals untouched on both paths.
    assert wr.weights.tolist() == [1, 1, 1, 1]
    assert wr.graph.has_arc(0, 1)


def test_fold_rejects_non_poor_vertices_both_paths():
    g = path_realization(4)
    wr = WeightedRealization.unit(g)
    cache = both_paths(wr)
    with pytest.raises(GraphError):
        fold_poor_leaf(wr, 1)
    with pytest.raises(GraphError):
        fold_poor_leaf(wr, 1, cache=cache)


def test_star_fold_all_engine_path_matches_reference():
    g = star_realization(6, 0, center_owns=True)
    wr = WeightedRealization.unit(g)
    cache = both_paths(wr)
    ref = fold_all_poor_leaves(wr)
    eng = fold_all_poor_leaves(wr, cache=cache)
    assert ref.graph == eng.graph
    assert ref.weights.tolist() == eng.weights.tolist()
    assert eng.weights[0] == 6
    assert poor_leaves(eng) == []


def test_folding_preserves_weak_equilibrium_engine_path():
    # The dynamics-converged fixture of test_analysis_weighted, folded
    # step by step with cached verification after every fold; fold
    # sequence and verdicts must match the loop path exactly.
    game = BoundedBudgetGame([1, 1, 1, 1, 2, 0, 0])
    res = best_response_dynamics(
        game, game.random_realization(seed=2, connected=True), "sum", max_rounds=100
    )
    assert res.converged
    wr_ref = WeightedRealization.unit(res.graph)
    wr_eng = WeightedRealization.unit(res.graph)
    cache = both_paths(wr_eng)
    assert is_weighted_weak_equilibrium(wr_eng, cache=cache)
    while poor_leaves(wr_ref):
        leaf_ref = poor_leaves(wr_ref)[0]
        leaf_eng = poor_leaves(wr_eng)[0]
        assert leaf_ref == leaf_eng
        wr_ref = fold_poor_leaf(wr_ref, leaf_ref)
        wr_eng = fold_poor_leaf(wr_eng, leaf_eng, cache=cache)
        assert wr_ref.graph == wr_eng.graph
        assert wr_ref.weights.tolist() == wr_eng.weights.tolist()
        ref_verdict = is_weighted_weak_equilibrium(wr_ref)
        assert is_weighted_weak_equilibrium(wr_eng, cache=cache) == ref_verdict
        assert ref_verdict, "folding broke weak equilibrium"


def test_lemma_6_4_on_equilibria_engine_path():
    for seed in range(4):
        game = BoundedBudgetGame([1] * 9)
        res = best_response_dynamics(
            game, game.random_realization(seed=seed), "sum", max_rounds=100
        )
        assert res.converged
        wr = WeightedRealization.unit(res.graph)
        cache = both_paths(wr)
        ref = check_lemma_6_4(wr)
        eng = check_lemma_6_4(wr, cache=cache)
        assert ref == eng
        assert eng.holds, (seed, eng)


def test_lemma_6_4_violated_on_non_equilibrium_engine_path():
    g_rev = OwnedDigraph(6)
    g_rev.add_arc(0, 1)
    g_rev.add_arc(5, 4)
    for i in range(1, 4):
        g_rev.add_arc(i, i + 1)
    wr = WeightedRealization.unit(g_rev)
    cache = both_paths(wr)
    ref = check_lemma_6_4(wr)
    eng = check_lemma_6_4(wr, cache=cache)
    assert ref == eng
    assert not eng.holds
    assert not is_weighted_weak_equilibrium(wr, cache=cache)


def test_disconnected_fixture_bit_identical():
    # Cross-component terms must hit the same Cinf on both paths.
    g = OwnedDigraph(5)
    g.add_arc(0, 1)
    g.add_arc(2, 3)
    wr = WeightedRealization(graph=g, weights=np.array([1, 2, 3, 4, 5]))
    assert_checkers_identical(wr)
    cache = both_paths(wr)
    assert weighted_sum_cost(wr, 0, cache=cache) == weighted_sum_cost(wr, 0)


def test_weight_zero_ghosts_bit_identical():
    g = path_realization(5)
    wr = WeightedRealization(graph=g.copy(), weights=np.array([1, 0, 2, 0, 3]))
    assert_checkers_identical(wr)


# ----------------------------------------------------------------------
# Weighted census golden
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "budgets,weights",
    [
        ((1, 1, 1), (1, 2, 3)),
        ((1, 1, 1, 1), (5, 1, 1, 1)),
        ((2, 1, 1, 0), (3, 1, 1, 1)),
        ((1, 1, 1, 0), (2, 1, 1, 0)),
    ],
)
def test_weighted_census_incremental_equals_reference(budgets, weights):
    game = BoundedBudgetGame(list(budgets))
    ref, eq_ref = brute_weighted_census(game, weights)
    inc, eq_inc = weighted_census_scan(game, weights, collect_equilibria=True)
    assert inc == ref
    assert eq_inc == eq_ref
    for workers in (2, 3):
        sharded, eq_sharded = weighted_census_scan(
            game, weights, workers=workers, collect_equilibria=True
        )
        assert sharded == ref
        assert eq_sharded == eq_ref


def test_weighted_census_unit_weights_contain_nash_equilibria():
    # With all-ones weights every (SUM) Nash equilibrium is in
    # particular stable under weighted single-arc swaps.
    from repro.core import enumerate_equilibria

    game = BoundedBudgetGame([1, 1, 1, 1])
    report, eqs = weighted_census_scan(game, (1, 1, 1, 1), collect_equilibria=True)
    nash = {g.profile_key() for g in enumerate_equilibria(game, "sum")}
    assert nash <= set(eqs)
    assert report.num_weak_equilibria >= len(nash)


def test_weighted_census_validates_inputs():
    from repro.errors import GameError

    game = BoundedBudgetGame([1, 1, 1])
    with pytest.raises(GameError):
        weighted_census_scan(game, (1, 2))  # wrong length
    with pytest.raises(GameError):
        weighted_census_scan(game, (1, -1, 2))
    with pytest.raises(GameError):
        weighted_census_scan(game, (1, 1, 1), workers=0)
    with pytest.raises(GameError, match="int64"):
        weighted_census_scan(BoundedBudgetGame([0] * 64), (1,) * 64)


@st.composite
def _weighted_games(draw, cap: int = 200):
    """``(budgets, weights)``, n = 1..6, at most ``cap`` profiles,
    weights 0..4 (all-zero vectors included)."""
    n = draw(st.integers(min_value=1, max_value=6))
    budgets = []
    size = 1
    for _ in range(n):
        fits = [b for b in range(n) if size * math.comb(n - 1, b) <= cap]
        b = draw(st.sampled_from(fits))
        budgets.append(b)
        size *= math.comb(n - 1, b)
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
    )
    return budgets, tuple(weights)


@settings(max_examples=30, deadline=None)
@given(case=_weighted_games())
@example(case=([0], (1,)))
@example(case=([1, 1], (0, 0)))
# A weight-0 hub owning arcs to three heavy vertices: moving player 0's
# arc onto it would pay, but folded ghosts are never swap targets.
@example(case=([1, 3, 0, 0, 0], (1, 0, 4, 4, 4)))
def test_weighted_census_matches_rebuild_oracle(case):
    budgets, weights = case
    game = BoundedBudgetGame(budgets)
    expected = brute_weighted_census(game, weights)
    got = weighted_census_scan(game, weights, collect_equilibria=True, workers=1)
    assert got == expected
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = weighted_census_scan(
            game,
            weights,
            collect_equilibria=True,
            checkpoint_dir=tmp,
            runtime_opts={"checkpoint_interval": 3},
        )
    assert ckpt == expected


def test_weighted_experiment_rows():
    from repro.experiments.exact_census import (
        DEFAULT_INSTANCES,
        WEIGHTED_INSTANCES,
        exact_census_experiment,
    )

    report = exact_census_experiment(
        instances=DEFAULT_INSTANCES[:1], weighted=True
    )
    weighted_rows = [r for r in report.rows if r["version"] == "sum/weak"]
    assert len(weighted_rows) == len(WEIGHTED_INSTANCES)
    for row in weighted_rows:
        assert row["profiles"] > 0
        assert row["equilibria"] >= 0
