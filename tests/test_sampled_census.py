"""Monte Carlo sampled census: determinism, estimators, checkpoints.

The sampled scan must be a *statistical* instrument with *exact*
reproducibility: the same seed yields bit-identical reports at any
worker count or shard decomposition, its histogram equals one built
draw by draw from an independent graph / exact-equilibrium oracle,
intervals cover known exact counts at the sizes where the exhaustive
census can arbitrate, and a full stratified draw degenerates to the
exact census.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import (
    _gray_digits,
    _gray_rank,
    _profile_tables,
    _sampled_ranks,
    _wilson_interval,
    census_scan,
    profile_space_size,
    sampled_census_scan,
)
from repro.core.deviations import is_equilibrium
from repro.core.game import BoundedBudgetGame
from repro.errors import CheckpointError, GameError
from repro.experiments.exact_census import exact_census_experiment
from repro.graphs import UNREACHABLE, OwnedDigraph

from conftest import scipy_distance_oracle


# ----------------------------------------------------------------------
# Gray-rank inverse
# ----------------------------------------------------------------------
@st.composite
def _budget_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    budgets=_budget_vectors(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_gray_rank_inverts_gray_digits(budgets, seed):
    game = BoundedBudgetGame(budgets)
    _, radices, rests = _profile_tables(game)
    total = profile_space_size(game)
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, total, size=min(total, 32))
    for r in map(int, ranks):
        assert _gray_rank(_gray_digits(r, radices, rests), rests) == r


# ----------------------------------------------------------------------
# Rank draws
# ----------------------------------------------------------------------
def test_sampled_ranks_sorted_in_range_and_deterministic():
    for method in ("uniform", "stratified"):
        a = _sampled_ranks(10_000, 200, seed=9, method=method)
        b = _sampled_ranks(10_000, 200, seed=9, method=method)
        assert a == b
        assert len(a) == 200
        assert a == sorted(a)
        assert all(0 <= r < 10_000 for r in a)
    assert _sampled_ranks(10_000, 200, 9, "uniform") != _sampled_ranks(
        10_000, 200, 10, "uniform"
    )


def test_stratified_draw_takes_one_rank_per_stratum():
    total, samples = 1000, 40
    ranks = _sampled_ranks(total, samples, seed=3, method="stratified")
    # Stratum i is [i*25, (i+1)*25): exactly one draw lands in each.
    assert [r // 25 for r in ranks] == list(range(samples))


def test_sampled_ranks_handle_huge_totals():
    total = 10**40  # far past uint64: draws must stay exact Python ints
    ranks = _sampled_ranks(total, 50, seed=0, method="stratified")
    assert all(0 <= r < total for r in ranks)
    assert max(ranks) > 2**64  # the draw genuinely reaches the far strata


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
def test_wilson_interval_brackets_the_point_estimate():
    for k, n in ((0, 50), (1, 50), (25, 50), (50, 50)):
        lo, hi = _wilson_interval(k, n, 0.95)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
    assert _wilson_interval(0, 0, 0.95) == (0.0, 1.0)
    # Never collapses to a point at the extremes.
    assert _wilson_interval(0, 50, 0.95)[1] > 0.0
    assert _wilson_interval(50, 50, 0.95)[0] < 1.0


# ----------------------------------------------------------------------
# Estimates vs the exact census
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, version",
    [
        pytest.param(5, "sum", id="sum"),
        pytest.param(5, "max", id="max"),
        # Exact unit n=9 counts (504 / 332,208 of 8^9 profiles) come
        # from the orbit generator behind the symmetric unit census.
        pytest.param(9, "sum", id="n9-sum"),
        pytest.param(9, "max", id="n9-max"),
    ],
)
def test_ci_covers_exact_count_unit_n5(n, version):
    game = BoundedBudgetGame([1] * n)
    exact = census_scan(
        game, version, symmetry=True, max_profiles=(n - 1) ** n
    ).report.num_equilibria
    rep = sampled_census_scan(
        game, version, samples=300, seed=11, method="stratified"
    )
    lo, hi = rep.eq_count_ci
    assert lo <= exact <= hi
    assert rep.samples_evaluated == 300
    assert rep.eq_density == rep.eq_samples / 300
    assert sum(c for _, _, c in rep.histogram) == 300


def _assert_wilson_coverage(n: int, version: str, exact: int) -> None:
    """The nominal 95% Wilson interval covers the exact census count in
    at least 34 of 40 fixed seeds of 200 uniform draws each."""
    game = BoundedBudgetGame([1] * n)
    covered = 0
    for seed in range(40):
        rep = sampled_census_scan(game, version, samples=200, seed=seed)
        lo, hi = rep.eq_count_ci
        covered += lo <= exact <= hi
    assert covered >= 34, f"{covered}/40 seeds covered {exact}"


@pytest.mark.parametrize("version, exact", [("sum", 84), ("max", 104)])
def test_wilson_ci_coverage_over_many_seeds_unit_n5(version, exact):
    _assert_wilson_coverage(5, version, exact)


@pytest.mark.parametrize("version, exact", [("sum", 120), ("max", 480)])
def test_wilson_ci_coverage_over_many_seeds_unit_n6(version, exact):
    _assert_wilson_coverage(6, version, exact)


def test_full_stratified_draw_is_the_exact_census():
    game = BoundedBudgetGame([1] * 4)
    total = profile_space_size(game)
    exact = census_scan(game, "sum").report
    rep = sampled_census_scan(
        game, "sum", samples=total, seed=0, method="stratified"
    )
    # One stratum per profile: the "sample" is the whole space.
    assert rep.eq_samples == exact.num_equilibria
    assert rep.eq_count_estimate == pytest.approx(exact.num_equilibria)
    assert rep.opt_diameter_seen == exact.opt_diameter
    assert rep.worst_equilibrium_diameter_seen == exact.worst_equilibrium_diameter
    assert rep.poa_estimate is not None


# ----------------------------------------------------------------------
# Histogram vs an independent per-draw oracle (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def _sampled_budgets(draw):
    """Budget vectors, n = 1..7, budget-0 players included."""
    n = draw(st.integers(min_value=1, max_value=7))
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
        )
    )


def _oracle_histogram(game, version, samples, seed, method):
    """The ``(diameter, is_eq, count)`` histogram of the run's draw,
    built one graph and one exact equilibrium check per drawn rank."""
    n = game.n
    combos, radices, rests = _profile_tables(game)
    hist: "dict[tuple[int, int], int]" = {}
    for rank in _sampled_ranks(profile_space_size(game), samples, seed, method):
        digits = _gray_digits(rank, radices, rests)
        graph = OwnedDigraph.from_strategies(
            [combos[u][digits[u]] for u in range(n)], n
        )
        dist = scipy_distance_oracle(graph)
        diam = n * n if (dist == UNREACHABLE).any() else int(dist.max())
        eq = int(is_equilibrium(graph, version, method="exact"))
        hist[(diam, eq)] = hist.get((diam, eq), 0) + 1
    return tuple((d, e, c) for (d, e), c in sorted(hist.items()))


@settings(max_examples=25, deadline=None)
@given(
    budgets=_sampled_budgets(),
    version=st.sampled_from(["sum", "max"]),
    method=st.sampled_from(["uniform", "stratified"]),
    samples=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sampled_histogram_matches_per_draw_oracle(
    budgets, version, method, samples, seed
):
    game = BoundedBudgetGame(budgets)
    if method == "stratified":
        samples = min(samples, profile_space_size(game))
    expected = _oracle_histogram(game, version, samples, seed, method)
    rep = sampled_census_scan(
        game, version, samples=samples, seed=seed, method=method, workers=1
    )
    assert rep.histogram == expected
    assert rep.eq_samples == sum(c for _, e, c in expected if e)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = sampled_census_scan(
            game,
            version,
            samples=samples,
            seed=seed,
            method=method,
            checkpoint_dir=tmp,
            runtime_opts={"checkpoint_interval": 3},
        )
    assert ckpt == rep


# ----------------------------------------------------------------------
# Determinism across execution shapes
# ----------------------------------------------------------------------
def test_estimate_invariant_under_workers_and_shards(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    base = sampled_census_scan(game, "sum", samples=120, seed=4)
    multi = sampled_census_scan(game, "sum", samples=120, seed=4, workers=3)
    ckpt = sampled_census_scan(
        game,
        "sum",
        samples=120,
        seed=4,
        checkpoint_dir=str(tmp_path),
        shard_count=5,
        workers=2,
    )
    assert multi == base
    assert ckpt == base


def test_checkpointed_resume_replays_bit_identically(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    first = sampled_census_scan(
        game, "sum", samples=60, seed=8, checkpoint_dir=str(tmp_path)
    )
    again = sampled_census_scan(
        game, "sum", samples=60, seed=8, checkpoint_dir=str(tmp_path), resume=True
    )
    assert again == first


def test_resume_manifest_pins_seed_and_method(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    sampled_census_scan(
        game, "sum", samples=60, seed=8, checkpoint_dir=str(tmp_path)
    )
    with pytest.raises(CheckpointError, match="manifest mismatch"):
        sampled_census_scan(
            game,
            "sum",
            samples=60,
            seed=9,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
    with pytest.raises(CheckpointError, match="manifest mismatch"):
        sampled_census_scan(
            game,
            "sum",
            samples=60,
            seed=8,
            method="stratified",
            checkpoint_dir=str(tmp_path),
            resume=True,
        )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_sampled_scan_validates_arguments(tmp_path):
    game = BoundedBudgetGame([1] * 4)
    with pytest.raises(GameError, match="samples must be positive"):
        sampled_census_scan(game, "sum", samples=0)
    with pytest.raises(GameError, match="unknown sampling method"):
        sampled_census_scan(game, "sum", samples=5, method="bogus")
    with pytest.raises(GameError, match="confidence"):
        sampled_census_scan(game, "sum", samples=5, confidence=1.0)
    with pytest.raises(GameError, match="workers"):
        sampled_census_scan(game, "sum", samples=5, workers=0)
    with pytest.raises(GameError, match="one rank per stratum"):
        sampled_census_scan(game, "sum", samples=10**6, method="stratified")
    with pytest.raises(GameError, match="require checkpoint_dir"):
        sampled_census_scan(game, "sum", samples=5, resume=True)
    with pytest.raises(GameError, match="unknown sampling method"):
        sampled_census_scan(game, "sum", samples=5, method="orbit")
    with pytest.raises(GameError, match="capped at n = 63"):
        sampled_census_scan(BoundedBudgetGame([1] * 64), "sum", samples=5)


# ----------------------------------------------------------------------
# Experiment wiring
# ----------------------------------------------------------------------
def test_experiment_appends_sampled_rows_with_covering_cis():
    report = exact_census_experiment(
        instances=(("unit n=4", (1, 1, 1, 1)),), samples=40, seed=3
    )
    sampled_rows = [
        r for r in report.rows if str(r["version"]).endswith("/sampled")
    ]
    assert len(sampled_rows) == 2  # one per cost version
    assert all("of 81" in str(r["profiles"]) for r in sampled_rows)
    # A CI missing its exact count would have appended a loud note.
    assert not any("misses the exact count" in n for n in report.notes)
