"""Golden-equivalence and property tests for the incremental census.

The incremental Gray-order kernel (engine delta repair, symmetry orbit
pruning, sharded workers) must be *bit-identical* to the rebuild-per-
profile brute force on every default instance — these tests pin that
contract, plus the structural invariants it rests on: revolving-door
adjacency, Gray-walk coverage, engine-repaired distances matching fresh
BFS at every step, and the budget-symmetry orbit decomposition.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundedBudgetGame,
    DistanceCache,
    census_scan,
    enumerate_equilibria,
    exact_prices,
    gray_profile_walk,
    profile_space_size,
    revolving_door_combinations,
    satisfies_lemma_2_2,
    screen_best_responders,
)
from repro.core.enumeration import _budget_symmetry_group, _OrbitKeys
from repro.errors import GameError
from repro.graphs import DistanceEngine, distance_matrix
from repro.graphs.digraph import OwnedDigraph
from repro.parallel.executor import contiguous_shards

from repro.experiments.exact_census import DEFAULT_INSTANCES, GOLDEN_INSTANCES


# ----------------------------------------------------------------------
# Gray-order machinery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m,t", [(m, t) for m in range(8) for t in range(m + 1)])
def test_revolving_door_complete_and_adjacent(m, t):
    combos = revolving_door_combinations(range(m), t)
    assert len(combos) == math.comb(m, t)
    assert len(set(combos)) == len(combos)
    for a, b in zip(combos, combos[1:]):
        sa, sb = set(a), set(b)
        assert len(sa - sb) == 1 and len(sb - sa) == 1  # one swap apart


def test_gray_walk_covers_profile_space_once():
    game = BoundedBudgetGame([2, 1, 1, 0])
    seen = set()
    last_key = None
    for rank, graph, swap in gray_profile_walk(game):
        key = graph.profile_key()
        assert key not in seen
        seen.add(key)
        if last_key is not None:
            # Exactly one player changed, by exactly one arc swap.
            changed = [i for i, (a, b) in enumerate(zip(last_key, key)) if a != b]
            assert len(changed) == 1
            (j,) = changed
            assert swap is not None and swap[0] == j
            assert len(set(last_key[j]) - set(key[j])) == 1
        last_key = key
    assert len(seen) == profile_space_size(game)


def test_gray_walk_sharding_is_a_partition():
    game = BoundedBudgetGame([1, 1, 1, 1])
    total = profile_space_size(game)
    full = [g.profile_key() for _, g, _ in gray_profile_walk(game)]
    for parts in (1, 2, 3, 7):
        shards = contiguous_shards(total, parts)
        assert shards[0][0] == 0 and shards[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))
        stitched = []
        for lo, hi in shards:
            stitched.extend(
                g.profile_key() for _, g, _ in gray_profile_walk(game, start=lo, stop=hi)
            )
        assert stitched == full


@pytest.mark.parametrize(
    "budgets", [(1, 1, 1), (2, 1, 0), (1, 1, 1, 1), (2, 2, 1, 1, 0), (0, 0, 1, 0)]
)
def test_gray_digit_stream_matches_unranking(budgets):
    """The amortised-O(1) successor stream must reproduce the exact
    digit sequence of per-rank unranking, from any start rank."""
    from repro.core.enumeration import (
        _gray_digit_stream,
        _gray_digits,
        _profile_tables,
    )

    game = BoundedBudgetGame(list(budgets))
    _, radices, rests = _profile_tables(game)
    total = rests[0]
    for start in sorted({0, 1, total // 2, total - 2} & set(range(total))):
        digits = _gray_digits(start, radices, rests)
        stream = _gray_digit_stream(radices, digits)
        for rank in range(start + 1, total):
            j, old, new = next(stream)
            assert abs(new - old) == 1
            assert digits == _gray_digits(rank, radices, rests)
        with pytest.raises(StopIteration):
            next(stream)


@pytest.mark.parametrize("budgets", [(1, 1, 1, 1), (2, 2, 1, 1, 0), (1, 1, 1, 1, 1)])
def test_orbit_advance_block_matches_per_step_scan(budgets):
    """The vectorised block advance (probe keys + exact recheck) must
    make exactly the per-step canonical decisions with exactly the
    per-step orbit sizes."""
    game = BoundedBudgetGame(list(budgets))
    perms = _budget_symmetry_group(budgets)
    n = game.n
    # Reference: an independent from-scratch scan per profile (the walk
    # reuses one mutable graph, so the reference must run in-loop).
    ref_sizes = []
    swaps = []
    orbit = None
    for rank, graph, swap in gray_profile_walk(game):
        keys = _OrbitKeys(n, perms)
        for a, b in graph.arcs():
            keys.toggle(a, b, True)
        size = keys.canonical_orbit_size()
        ref_sizes.append(0 if size is None else size)
        if swap is None:
            orbit = _OrbitKeys(n, perms)
            for a, b in graph.arcs():
                orbit.toggle(a, b, True)
        else:
            swaps.append(swap)
    got = [orbit.canonical_orbit_size() or 0]
    for chunk_start in range(0, len(swaps), 7):  # odd block size on purpose
        chunk = swaps[chunk_start : chunk_start + 7]
        js = np.asarray([s[0] for s in chunk], dtype=np.int64)
        drops = np.asarray([s[1] for s in chunk], dtype=np.int64)
        adds = np.asarray([s[2] for s in chunk], dtype=np.int64)
        got.extend(int(x) for x in orbit.advance_block(js, drops, adds))
    assert got == ref_sizes
    total = sum(got)
    assert total == profile_space_size(game)


def test_contiguous_shards_edge_cases():
    assert contiguous_shards(0, 3) == []
    assert contiguous_shards(5, 1) == [(0, 5)]
    assert contiguous_shards(5, 8) == [(i, i + 1) for i in range(5)]
    with pytest.raises(Exception):
        contiguous_shards(5, 0)


# ----------------------------------------------------------------------
# Engine-repaired distances along the walk (hypothesis)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    budgets=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=4),
    start_frac=st.floats(min_value=0.0, max_value=0.9),
    data=st.data(),
)
def test_gray_walk_engine_distances_match_fresh_bfs(budgets, start_frac, data):
    budgets = [min(b, len(budgets) - 1) for b in budgets]
    game = BoundedBudgetGame(budgets)
    total = profile_space_size(game)
    start = int(start_frac * total)
    stop = min(total, start + data.draw(st.integers(min_value=1, max_value=40)))
    cache = None
    steps = 0
    for rank, graph, swap in gray_profile_walk(game, start=start, stop=stop):
        if cache is None:
            cache = DistanceCache(graph, dirty_fraction="adaptive")
        engine = cache.base()
        assert np.array_equal(np.asarray(engine.matrix), distance_matrix(graph))
        steps += 1
    assert steps == stop - start


def test_adaptive_dirty_fraction_repair_equals_recompute(rng):
    n = 24
    game = BoundedBudgetGame([2] * n)
    graph = game.random_realization(seed=3)
    engine = DistanceEngine.from_graph(graph, dirty_fraction="adaptive")
    assert engine.adaptive
    for step in range(30):
        u = int(rng.integers(n))
        targets = [v for v in range(n) if v != u]
        graph.set_strategy(u, rng.choice(targets, size=2, replace=False))
        engine.update(graph.undirected_csr())
        assert np.array_equal(np.asarray(engine.matrix), distance_matrix(graph))
    assert 1.0 <= engine.row_budget() <= n


def test_engine_rejects_bad_dirty_fraction_string():
    from repro.errors import GraphError

    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    with pytest.raises(GraphError):
        DistanceEngine.from_graph(g, dirty_fraction="auto")


# ----------------------------------------------------------------------
# Vectorized Lemma 2.2 screen
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_screen_agrees_with_lemma_2_2(seed):
    game = BoundedBudgetGame([1, 2, 1, 0, 2])
    graph = game.random_realization(seed=seed)
    engine = DistanceEngine.from_graph(graph)
    mask = screen_best_responders(graph, engine)
    for u in range(graph.n):
        assert bool(mask[u]) == satisfies_lemma_2_2(graph, u, engine=engine)


# ----------------------------------------------------------------------
# Symmetry orbits
# ----------------------------------------------------------------------
def test_budget_symmetry_group_structure():
    perms = _budget_symmetry_group((1, 1, 2, 1, 0))
    assert perms.shape == (6, 5)  # Sym({0,1,3}) x Sym({2}) x Sym({4})
    assert np.array_equal(perms[0], np.arange(5))
    for perm in perms:
        assert sorted(perm.tolist()) == list(range(5))
        assert all(
            (1, 1, 2, 1, 0)[i] == (1, 1, 2, 1, 0)[perm[i]] for i in range(5)
        )


def test_orbit_decomposition_partitions_profile_space():
    # Every profile lies in exactly one orbit; canonical reps' orbit
    # sizes must therefore sum to the whole space.
    game = BoundedBudgetGame([1, 1, 1, 1])
    perms = _budget_symmetry_group((1, 1, 1, 1))
    total = 0
    reps = 0
    for rank, graph, swap in gray_profile_walk(game):
        orbit = _OrbitKeys(game.n, perms)
        for a, b in graph.arcs():
            orbit.toggle(a, b, True)
        size = orbit.canonical_orbit_size()
        if size is not None:
            total += size
            reps += 1
    assert total == profile_space_size(game) == 81
    assert reps < 81  # pruning actually prunes


def test_symmetry_capped_by_key_width():
    # n = 9..11 became legal with the two-word (128-bit) keys; the cap
    # now binds at n = 12 (n^2 = 144 > 128).
    game = BoundedBudgetGame([1] * 12)
    with pytest.raises(GameError, match="128-bit"):
        census_scan(game, "sum", symmetry=True, max_profiles=10**12)


# ----------------------------------------------------------------------
# Golden equivalence: incremental == brute force, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,budgets", GOLDEN_INSTANCES)
@pytest.mark.parametrize("version", ["sum", "max"])
def test_exact_prices_golden_equivalence(label, budgets, version):
    game = BoundedBudgetGame(list(budgets))
    brute = exact_prices(game, version, incremental=False)
    assert exact_prices(game, version) == brute
    assert exact_prices(game, version, symmetry=True) == brute
    assert exact_prices(game, version, workers=2) == brute
    assert exact_prices(game, version, workers=3, symmetry=True) == brute


@pytest.mark.parametrize("budgets", [(1, 1, 1), (2, 1, 0), (1, 1, 1, 1), (2, 1, 1, 0)])
@pytest.mark.parametrize("version", ["sum", "max"])
def test_enumerate_equilibria_golden_equivalence(budgets, version):
    game = BoundedBudgetGame(list(budgets))
    brute = enumerate_equilibria(game, version, incremental=False)
    for kwargs in ({}, {"symmetry": True}, {"workers": 2, "symmetry": True}):
        fast = enumerate_equilibria(game, version, **kwargs)
        assert len(fast) == len(brute)
        assert [g.profile_key() for g in fast] == [g.profile_key() for g in brute]


def test_census_scan_collects_sorted_equilibria():
    game = BoundedBudgetGame([1, 1, 1])
    result = census_scan(game, "sum", collect_equilibria=True)
    assert result.equilibria == tuple(sorted(result.equilibria))
    assert result.report.num_equilibria == len(result.equilibria)
    graphs = result.equilibrium_graphs()
    assert all(game.is_realization(g) for g in graphs)


def test_census_scan_without_collection_has_no_equilibria_payload():
    game = BoundedBudgetGame([1, 1, 1])
    result = census_scan(game, "sum")
    assert result.equilibria is None
    with pytest.raises(GameError):
        result.equilibrium_graphs()


def test_brute_force_path_rejects_kernel_knobs():
    game = BoundedBudgetGame([1, 1, 1])
    with pytest.raises(GameError):
        exact_prices(game, "sum", incremental=False, symmetry=True)
    with pytest.raises(GameError):
        enumerate_equilibria(game, "sum", incremental=False, workers=2)


# ----------------------------------------------------------------------
# Golden equivalence: sharded census == single-shard census, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,budgets", GOLDEN_INSTANCES)
@pytest.mark.parametrize("version", ["sum", "max"])
def test_warm_started_shards_bit_identical(label, budgets, version):
    """Shards start from their own cold-built matrices at any rank; the
    sharded census must not change a single bit of the one-shard one."""
    game = BoundedBudgetGame(list(budgets))
    ref = census_scan(game, version, workers=1, collect_equilibria=True)
    for workers in (2, 4):
        got = census_scan(
            game, version, workers=workers, collect_equilibria=True
        )
        assert got.report == ref.report, f"{label}/{version}/workers={workers}"
        assert got.equilibria == ref.equilibria


def test_weighted_warm_started_shards_bit_identical():
    from repro.core import weighted_census_scan
    from repro.experiments.exact_census import WEIGHTED_INSTANCES

    for label, budgets, w in WEIGHTED_INSTANCES:
        game = BoundedBudgetGame(list(budgets))
        ref = weighted_census_scan(game, w, workers=1, collect_equilibria=True)
        got = weighted_census_scan(game, w, workers=3, collect_equilibria=True)
        assert got == ref, f"{label}/workers=3"


# ----------------------------------------------------------------------
# Experiment surface
# ----------------------------------------------------------------------
def test_run_experiment_forwards_supported_overrides():
    from repro.experiments.exact_census import exact_census_experiment
    from repro.experiments.runner import run_experiment

    # Sharding through the runner surface never changes the numbers
    # (the promoted n=6 instance stays on the pruned kernel: the
    # unpruned walk belongs in benches, not tier-1).
    rep = run_experiment("EXACT-tiny", workers=2)
    baseline = run_experiment("EXACT-tiny")
    assert rep.rows == baseline.rows
    # symmetry=False forwards through the signature filter too; checked
    # on the golden battery where the unpruned walk is cheap.
    plain = run_experiment(
        "EXACT-tiny", instances=GOLDEN_INSTANCES, symmetry=False
    )
    pruned = exact_census_experiment(instances=GOLDEN_INSTANCES)
    assert plain.rows == pruned.rows


def test_extended_battery_includes_unit_n6():
    from repro.experiments.exact_census import exact_census_experiment

    rep = exact_census_experiment(
        instances=(("unit n=6", (1,) * 6),), max_profiles=20_000
    )
    by_version = {r["version"]: r for r in rep.rows}
    assert by_version["sum"]["equilibria"] == 120
    assert by_version["max"]["equilibria"] == 480
    assert by_version["sum"]["structure_thms"] is True
    assert by_version["max"]["structure_thms"] is True


def test_default_battery_is_the_promoted_extended_battery():
    """The formerly opt-in instances (unit n=6, mixed n=5) are default
    now; the golden battery stays the brute-force-affordable prefix."""
    labels = [label for label, _ in DEFAULT_INSTANCES]
    assert "unit n=6" in labels and "mixed n=5" in labels
    assert DEFAULT_INSTANCES[: len(GOLDEN_INSTANCES)] == GOLDEN_INSTANCES


@pytest.mark.parametrize("version", ["sum", "max"])
def test_promoted_mixed_n5_knob_invariance(version):
    """mixed n=5 (576 profiles) is cheap enough to bridge the unpruned
    walk against every knob combination right here; the n=6 unpruned
    bridge lives in the census bench lane (it costs ~15 s/version)."""
    game = BoundedBudgetGame([2, 2, 1, 1, 0])
    reference = exact_prices(game, version)
    assert exact_prices(game, version, symmetry=True) == reference
    assert exact_prices(game, version, workers=3, symmetry=True) == reference
    assert exact_prices(game, version, workers=2, symmetry=True) == reference


@pytest.mark.parametrize("version", ["sum", "max"])
def test_promoted_unit_n6_knob_invariance(version):
    """unit n=6's pruned-kernel knob combinations agree bit for bit
    (count-pinned at 120/480 elsewhere; the symmetry-off bridge runs in
    the census bench lane)."""
    game = BoundedBudgetGame([1] * 6)
    reference = exact_prices(game, version, symmetry=True, max_profiles=20_000)
    for kwargs in ({"workers": 3}, {"workers": 2}, {"workers": 4}):
        got = exact_prices(
            game, version, symmetry=True, max_profiles=20_000, **kwargs
        )
        assert got == reference, kwargs


# ----------------------------------------------------------------------
# Stale census stats (regression): counters must describe the LAST run
# ----------------------------------------------------------------------
def _checkpointed_scan(tmp_path):
    """A runtime-path scan, so the runtime side-channel is non-empty."""
    from repro.core import last_census_runtime_stats

    game = BoundedBudgetGame([1] * 4)
    census_scan(game, "sum", checkpoint_dir=tmp_path, shard_count=2)
    assert last_census_runtime_stats()["shards"] == 2


def test_unchecked_scan_clears_runtime_stats(tmp_path):
    # Regression: a plain scan after a checkpointed one used to leave the
    # earlier run's supervision numbers in place for a later reader.
    from repro.core import last_census_runtime_stats

    _checkpointed_scan(tmp_path)
    census_scan(BoundedBudgetGame([1] * 5), "sum", workers=4)
    assert last_census_runtime_stats() == {}


def test_weighted_unchecked_scan_clears_runtime_stats(tmp_path):
    from repro.core import last_census_runtime_stats, weighted_census_scan
    from repro.experiments.exact_census import WEIGHTED_INSTANCES

    _, budgets, w = WEIGHTED_INSTANCES[0]
    _checkpointed_scan(tmp_path)
    weighted_census_scan(BoundedBudgetGame(list(budgets)), w, workers=1)
    assert last_census_runtime_stats() == {}


def test_raising_scan_does_not_leak_prior_stats(tmp_path):
    from repro.core import last_census_runtime_stats

    _checkpointed_scan(tmp_path)
    with pytest.raises(GameError):
        census_scan(BoundedBudgetGame([1] * 5), "no-such-version", workers=1)
    # The failed scan reset the side-channel at entry: nothing stale.
    assert last_census_runtime_stats() == {}


def test_census_stats_accessors_return_copies(tmp_path):
    from repro.core import last_census_runtime_stats
    from repro.core.enumeration import LAST_CENSUS_RUNTIME_STATS

    _checkpointed_scan(tmp_path)
    snap = last_census_runtime_stats()
    assert snap is not LAST_CENSUS_RUNTIME_STATS
    snap["shards"] = snap["shards"] + 777
    assert last_census_runtime_stats()["shards"] != snap["shards"]
