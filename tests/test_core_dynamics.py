"""Unit tests for best-response dynamics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    BoundedBudgetGame,
    Version,
    best_response_dynamics,
    is_equilibrium,
)
from repro.errors import DynamicsError, StrategyError
from repro.graphs import (
    diameter,
    path_realization,
    random_budgets_with_sum,
    unit_budgets,
)


def test_converged_fixed_point_is_equilibrium():
    game = BoundedBudgetGame(unit_budgets(8))
    start = game.random_realization(seed=0)
    res = best_response_dynamics(game, start, "sum", max_rounds=100)
    assert res.converged
    assert not res.cycled
    assert is_equilibrium(res.graph, "sum")


def test_initial_graph_not_mutated():
    game = BoundedBudgetGame(unit_budgets(6))
    start = game.random_realization(seed=1)
    key = start.profile_key()
    best_response_dynamics(game, start, "max", max_rounds=50)
    assert start.profile_key() == key


def test_moves_are_strict_improvements():
    game = BoundedBudgetGame([1, 1, 1, 1, 1, 1])
    start = game.random_realization(seed=2)
    res = best_response_dynamics(game, start, "sum", max_rounds=50)
    for move in res.moves:
        assert move.gain > 0
        assert move.new_cost < move.old_cost


def test_round_counting_and_social_costs():
    game = BoundedBudgetGame(unit_budgets(7))
    start = game.random_realization(seed=3)
    res = best_response_dynamics(game, start, "sum", max_rounds=60)
    assert res.rounds == len(res.social_costs)
    assert res.social_costs[-1] == diameter(res.graph)


def test_equilibrium_start_converges_immediately():
    from repro.constructions import binary_tree_equilibrium

    inst = binary_tree_equilibrium(2)
    game = BoundedBudgetGame(inst.graph.out_degrees())
    res = best_response_dynamics(game, inst.graph, "sum", max_rounds=10)
    assert res.converged
    assert res.rounds == 1
    assert res.num_moves == 0
    assert res.graph == inst.graph


def test_max_rounds_cap():
    game = BoundedBudgetGame(unit_budgets(12))
    start = game.random_realization(seed=4)
    res = best_response_dynamics(game, start, "sum", max_rounds=1, detect_cycles=False)
    assert res.rounds == 1


def test_random_schedule_deterministic_seed():
    game = BoundedBudgetGame(unit_budgets(9))
    start = game.random_realization(seed=5)
    r1 = best_response_dynamics(game, start, "sum", schedule="random", seed=11)
    r2 = best_response_dynamics(game, start, "sum", schedule="random", seed=11)
    assert r1.graph == r2.graph
    assert r1.rounds == r2.rounds


def test_invalid_schedule_and_rounds():
    game = BoundedBudgetGame([1, 1])
    start = game.random_realization(seed=0)
    with pytest.raises(DynamicsError):
        best_response_dynamics(game, start, "sum", schedule="sorted")
    with pytest.raises(DynamicsError):
        best_response_dynamics(game, start, "sum", max_rounds=0)


def test_realization_validated():
    game = BoundedBudgetGame([1, 1, 1])
    wrong = path_realization(3)  # out-degrees (1, 1, 0) != (1, 1, 1)
    with pytest.raises(StrategyError):
        best_response_dynamics(game, wrong, "sum")


def test_swap_dynamics_converges():
    game = BoundedBudgetGame(unit_budgets(10))
    start = game.random_realization(seed=6)
    res = best_response_dynamics(game, start, "max", method="swap", max_rounds=100)
    assert res.converged
    # For unit budgets a swap move set equals the exact move set, so the
    # fixed point is a true equilibrium.
    assert is_equilibrium(res.graph, "max")


def test_greedy_dynamics_stabilises():
    game = BoundedBudgetGame([2, 2, 1, 1, 0, 1])
    start = game.random_realization(seed=7, connected=True)
    res = best_response_dynamics(game, start, "sum", method="greedy", max_rounds=100)
    assert res.converged


def test_record_moves_off():
    game = BoundedBudgetGame(unit_budgets(8))
    start = game.random_realization(seed=8)
    res = best_response_dynamics(game, start, "sum", record_moves=False)
    assert res.moves == []
    assert res.converged


def test_connectivity_restored_by_dynamics():
    # Start disconnected with enough budget: equilibria are connected
    # (Lemma 3.1), so dynamics must reconnect.
    from repro.graphs import is_connected

    game = BoundedBudgetGame([1, 1, 1, 1, 1, 1])
    start = game.realization([{1}, {0}, {3}, {2}, {5}, {4}])
    assert not is_connected(start)
    res = best_response_dynamics(game, start, "sum", max_rounds=100)
    assert res.converged
    assert is_connected(res.graph)


#: Swap dynamics on one n=80 tree-case game (Σb = n - 1), the game and
#: starts of the ``dynamics`` benchmark workload: (start seed, version,
#: moves, rounds, sha256 of repr(final profile_key())). Recorded from
#: the cache-backed dynamics that ran before the distance cache was
#: taken out of this path, so it pins the trajectory across that change.
_N80_SWAP_GOLDEN = (
    (0, "sum", 43, 3, "c45cb7e3920263a49d94ecab0598b3d2b30a02dc68d3e54962608a1ce77977a1"),
    (1, "max", 58, 4, "92d870d2f6ff6416d31b04a0aa9e1ed489639a8e8f12119f382430d4a09feff1"),
    (2, "sum", 59, 3, "64a60596a6573e5d7713b88cd9ede0fe0faf1e5d26648f42f54acf835566c7df"),
    (3, "max", 60, 4, "b31348fafa75b996306bd6b48a579481aef1cc079fe88c6824e78975ebf838cf"),
)


def test_swap_dynamics_n80_matches_golden():
    game = BoundedBudgetGame(random_budgets_with_sum(80, 79, seed=1))
    for seed, version, moves, rounds, digest in _N80_SWAP_GOLDEN:
        res = best_response_dynamics(
            game, game.random_realization(seed=seed), version,
            method="swap", seed=seed, max_rounds=200,
        )
        assert res.converged and not res.cycled
        assert (res.num_moves, res.rounds) == (moves, rounds)
        key = repr(res.graph.profile_key()).encode()
        assert hashlib.sha256(key).hexdigest() == digest
        assert res.engine_stats is None
