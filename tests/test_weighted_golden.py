"""Golden equivalence: Section 6 machinery vs test-local oracles.

Every fixture exercised by ``test_analysis_weighted.py`` and
``test_section6_checkers.py`` — dynamics-converged equilibria, stars,
paths, fold cascades, Lemma 6.4 graphs — is re-checked here against
the oracles of ``conftest.py``: a brute-force swap oracle (apply each
legal swap to a copy, BFS, weighted sum), scipy distances for costs
and Lemma 6.4, and a copy-and-rescan fold loop. Every verdict, cost,
fold sequence and report must be *bit-identical*. The weighted census
gets the same treatment: the bitset-evaluated Gray walk (one worker,
sharded, checkpointed) vs the rebuild-per-profile oracle.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_lemma_6_4,
    brute_weighted_census,
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
    fold_poor_leaf,
    is_weighted_weak_equilibrium,
    poor_leaves,
    rich_leaves,
    weighted_sum_cost,
    weighted_swap_sweep,
)
from repro.core import (
    BoundedBudgetGame,
    best_response_dynamics,
    weighted_census_scan,
)
from repro.graphs import OwnedDigraph, path_realization, star_realization


def assert_checkers_match_oracles(wr: WeightedRealization) -> None:
    """Every public checker answers exactly like the oracles."""
    truth = [brute_weighted_swap_improves(wr, u) for u in range(wr.graph.n)]
    for u in range(wr.graph.n):
        assert weighted_sum_cost(wr, u) == brute_weighted_sum_cost(wr, u)
        assert _weighted_swap_improves(wr, u) == truth[u], u
    assert weighted_swap_sweep(wr) == [truth[u] for u in wr.active.tolist()]
    assert is_weighted_weak_equilibrium(wr) == brute_weighted_weak_equilibrium(wr)
    assert check_lemma_6_4(wr) == brute_lemma_6_4(wr)


# ----------------------------------------------------------------------
# Fixtures from test_analysis_weighted.py
# ----------------------------------------------------------------------
def test_path_fixture_bit_identical():
    for n in (3, 6):
        assert_checkers_match_oracles(WeightedRealization.unit(path_realization(n)))


def test_scaled_weights_fixture_bit_identical():
    g = path_realization(3)
    wr = WeightedRealization(graph=g.copy(), weights=np.array([1, 1, 10]))
    assert_checkers_match_oracles(wr)
    assert weighted_sum_cost(wr, 0) == 21


def test_leaf_classification_fixture_bit_identical():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    g.add_arc(2, 0)
    wr = WeightedRealization.unit(g)
    assert poor_leaves(wr) == [1]
    assert rich_leaves(wr) == [2]
    assert_checkers_match_oracles(wr)


def test_fold_poor_leaf_engine_path_matches_reference():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(0, 2)
    g.add_arc(3, 0)
    wr = WeightedRealization.unit(g)
    folded = fold_poor_leaf(wr, 1)
    expected = g.copy()
    expected.remove_arc(0, 1)
    assert folded.graph == expected
    assert folded.weights.tolist() == [2, 0, 1, 1]
    assert_checkers_match_oracles(folded)
    # The original is untouched.
    assert wr.weights.tolist() == [1, 1, 1, 1]
    assert wr.graph.has_arc(0, 1)


def test_star_fold_all_engine_path_matches_reference():
    g = star_realization(6, 0, center_owns=True)
    wr = WeightedRealization.unit(g)
    ref = rescan_fold_all(wr)
    got = fold_all_poor_leaves(wr)
    assert ref.graph == got.graph
    assert ref.weights.tolist() == got.weights.tolist()
    assert got.weights[0] == 6
    assert poor_leaves(got) == []
    assert wr.weights.tolist() == [1] * 6  # folded on a working copy


def test_folding_preserves_weak_equilibrium_engine_path():
    # The dynamics-converged fixture of test_analysis_weighted, folded
    # step by step with a verification after every fold; the cascade
    # and every verdict must match the oracles exactly.
    game = BoundedBudgetGame([1, 1, 1, 1, 2, 0, 0])
    res = best_response_dynamics(
        game, game.random_realization(seed=2, connected=True), "sum", max_rounds=100
    )
    assert res.converged
    wr = WeightedRealization.unit(res.graph)
    assert is_weighted_weak_equilibrium(wr)
    assert brute_weighted_weak_equilibrium(wr)
    current = wr
    while poor_leaves(current):
        current = fold_poor_leaf(current, poor_leaves(current)[0])
        assert_checkers_match_oracles(current)
        assert is_weighted_weak_equilibrium(current), "folding broke weak equilibrium"
    folded = fold_all_poor_leaves(wr)
    assert folded.graph == current.graph
    assert folded.weights.tolist() == current.weights.tolist()


def test_lemma_6_4_on_equilibria_engine_path():
    for seed in range(4):
        game = BoundedBudgetGame([1] * 9)
        res = best_response_dynamics(
            game, game.random_realization(seed=seed), "sum", max_rounds=100
        )
        assert res.converged
        wr = WeightedRealization.unit(res.graph)
        report = check_lemma_6_4(wr)
        assert report == brute_lemma_6_4(wr)
        assert report.holds, (seed, report)


def test_lemma_6_4_violated_on_non_equilibrium_engine_path():
    g_rev = OwnedDigraph(6)
    g_rev.add_arc(0, 1)
    g_rev.add_arc(5, 4)
    for i in range(1, 4):
        g_rev.add_arc(i, i + 1)
    wr = WeightedRealization.unit(g_rev)
    report = check_lemma_6_4(wr)
    assert report == brute_lemma_6_4(wr)
    assert not report.holds
    assert_checkers_match_oracles(wr)
    assert not is_weighted_weak_equilibrium(wr)


def test_disconnected_fixture_bit_identical():
    # Cross-component terms must hit the same Cinf as the oracles.
    g = OwnedDigraph(5)
    g.add_arc(0, 1)
    g.add_arc(2, 3)
    wr = WeightedRealization(graph=g, weights=np.array([1, 2, 3, 4, 5]))
    assert_checkers_match_oracles(wr)
    assert weighted_sum_cost(wr, 0) == 2 * 1 + (3 + 4 + 5) * 25


def test_weight_zero_ghosts_bit_identical():
    g = path_realization(5)
    wr = WeightedRealization(graph=g.copy(), weights=np.array([1, 0, 2, 0, 3]))
    assert_checkers_match_oracles(wr)


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
