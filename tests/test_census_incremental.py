"""Golden-equivalence and property tests for the incremental census.

The incremental Gray-order kernel (batched bitset evaluation, symmetry
orbit pruning, sharded workers) must be *bit-identical* to the rebuild-
per-profile brute force on every default instance — these tests pin
that contract, plus the structural invariants it rests on: revolving-
door adjacency, Gray-walk coverage, bitset costs matching the
independent cost functions, and the budget-symmetry orbit
decomposition.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundedBudgetGame,
    DistanceCache,
    Version,
    census_scan,
    enumerate_equilibria,
    exact_prices,
    gray_profile_walk,
    profile_space_size,
    revolving_door_combinations,
    satisfies_lemma_2_2,
    screen_best_responders,
)
from conftest import brute_exact_prices
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


@pytest.mark.parametrize("block", [1, 7, 2048])
@pytest.mark.parametrize(
    "budgets", [(1, 1, 1), (2, 1, 0), (1, 1, 1, 1), (2, 2, 1, 1, 0), (0, 0, 1, 0)]
)
def test_gray_block_decoder_matches_unranking(budgets, block, monkeypatch):
    """The block decoder must reproduce per-rank unranking row by row,
    from any start rank and for any block size, and its swaps must be
    the revolving-door steps between consecutive rows."""
    from repro.core import enumeration as en

    monkeypatch.setattr(en, "_ORBIT_BLOCK", block)
    game = BoundedBudgetGame(list(budgets))
    combos, radices, rests = en._profile_tables(game)
    table = en._swap_table(combos)
    total = rests[0]
    for start in sorted({0, 1, total // 2, total - 2} & set(range(total))):
        prev = en._gray_digits(start, radices, rests)
        expect = start + 1
        for rank, digits, js, drops, adds in en._gray_blocks(
            rests, table, start + 1, total, prev
        ):
            assert rank == expect
            assert digits.dtype == np.int64 and digits.shape[0] <= block
            for t, row in enumerate(digits.tolist()):
                assert row == en._gray_digits(rank + t, radices, rests)
                changed = [i for i in range(len(row)) if row[i] != prev[i]]
                assert changed == [int(js[t])]
                j = changed[0]
                assert abs(row[j] - prev[j]) == 1
                old, new = set(combos[j][prev[j]]), set(combos[j][row[j]])
                assert old - new == {int(drops[t])}
                assert new - old == {int(adds[t])}
                prev = row
            expect = rank + digits.shape[0]
        assert expect == total


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


def test_orbit_advance_block_two_word_keys_n9():
    """At n = 9 (n^2 = 81 > 64) probe keys use the hi word: the block
    advance must match freshly toggled keys at every profile of a Gray
    window near the middle of the rank space, and the whole-group
    reference must confirm every probe-stage survivor."""
    from repro.core.enumeration import _ORBIT_BLOCK

    budgets = [1] * 8 + [0]
    game = BoundedBudgetGame(budgets)
    n = game.n
    perms = _budget_symmetry_group(budgets)
    total = profile_space_size(game)
    # 76125 ranks below total // 2; this window holds probe survivors
    # and a canonical profile.
    start = 8_312_483
    stop = start + 3000
    assert abs(start - total // 2) < total // 100
    fresh = _OrbitKeys(n, perms)
    orbit = None
    keys, ref, swaps = [], [], []
    for rank, graph, swap in gray_profile_walk(
        game, start=start, stop=stop, max_profiles=total
    ):
        fresh.restore_state([0] * len(fresh.export_state()))
        for a, b in graph.arcs():
            fresh.toggle(a, b, True)
        keys.append((fresh._vals_hi.copy(), fresh._vals_lo.copy()))
        ref.append(fresh.canonical_orbit_size() or 0)
        if swap is None:
            orbit = _OrbitKeys(n, perms)
            for a, b in graph.arcs():
                orbit.toggle(a, b, True)
        else:
            swaps.append(swap)
    got = []
    steps = np.asarray(swaps, dtype=np.int64)
    for s in range(0, len(steps), _ORBIT_BLOCK):
        chunk = steps[s : s + _ORBIT_BLOCK]
        got.extend(orbit.advance_block(chunk[:, 0], chunk[:, 1], chunk[:, 2]).tolist())
    assert got == ref[1:]
    assert np.array_equal(orbit._vals_hi, keys[-1][0])
    assert np.array_equal(orbit._vals_lo, keys[-1][1])
    assert sum(1 for hi, _ in keys if hi[0]) > len(keys) // 2  # hi word in use
    survivors = 0
    for (his, los), size in zip(keys, ref):
        lt = (his < his[0]) | ((his == his[0]) & (los < los[0]))
        if lt.any():
            assert size == 0
            continue
        survivors += 1
        assert (fresh._reference_orbit_size(int(his[0]), int(los[0])) or 0) == size
    assert survivors >= 1 and any(ref)


def test_exact_walk_rejects_ranks_beyond_int64():
    """252^11 profiles overflow the block decoder's int64 ranks: the
    census must refuse with a typed error instead of wrapping."""
    game = BoundedBudgetGame([5] * 11)
    assert profile_space_size(game) >= 2**63
    for symmetry in (False, True):
        with pytest.raises(GameError, match=r"int64.*2\*\*63 - 1"):
            census_scan(game, "sum", symmetry=symmetry, max_profiles=10**40)
    with pytest.raises(GameError, match="int64"):
        next(gray_profile_walk(game, max_profiles=10**40))


def test_contiguous_shards_edge_cases():
    assert contiguous_shards(0, 3) == []
    assert contiguous_shards(5, 1) == [(0, 5)]
    assert contiguous_shards(5, 8) == [(i, i + 1) for i in range(5)]
    with pytest.raises(Exception):
        contiguous_shards(5, 0)


# ----------------------------------------------------------------------
# Cache-synced distances along the walk (hypothesis)
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
            cache = DistanceCache(graph)
        engine = cache.base()
        assert np.array_equal(np.asarray(engine.matrix), distance_matrix(graph))
        steps += 1
    assert steps == stop - start


# ----------------------------------------------------------------------
# Bitset evaluator against the independent cost functions (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def _profiles(draw):
    """Random strategy profiles, n = 1..7, budget-0 players included."""
    n = draw(st.integers(min_value=1, max_value=7))
    profile = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        budget = draw(st.integers(min_value=0, max_value=n - 1))
        profile.append(tuple(sorted(draw(st.permutations(pool))[:budget])))
    return profile


@settings(max_examples=60, deadline=None)
@given(profile=_profiles())
@example(profile=[(), ()])
@example(profile=[(1,), (0,), (3,), ()])
@example(profile=[()])
def test_bitset_evaluator_matches_independent_costs(profile):
    """Per-player costs equal :func:`all_costs`, the diameter equals
    :func:`social_cost` (disconnected profiles included), and the Nash
    verdict equals the exact :func:`is_equilibrium`."""
    from repro.core import all_costs, is_equilibrium, social_cost
    from repro.core.census_eval import (
        diameters,
        evaluate_block,
        neighbour_masks,
        out_mask_tables,
        source_costs,
    )
    from repro.core.enumeration import _profile_tables

    n = len(profile)
    graph = OwnedDigraph.from_strategies(profile, n)
    combos, _, _ = _profile_tables(BoundedBudgetGame([len(s) for s in profile]))
    tables = out_mask_tables(combos)
    digits = np.asarray([[combos[u].index(s) for u, s in enumerate(profile)]])
    out = np.asarray([[t[d] for t, d in zip(tables, digits[0])]], dtype=np.int64)
    nbr, _ = neighbour_masks(out)
    assert int(diameters(nbr)[0]) == social_cost(graph)
    for version in ("sum", "max"):
        v = Version.coerce(version)
        costs = [int(source_costs(nbr, i, v)[0]) for i in range(n)]
        assert costs == all_costs(graph, version).tolist()
        is_nash, diam = evaluate_block(digits, tables, v)
        assert bool(is_nash[0]) == is_equilibrium(graph, version, method="exact")
        assert int(diam[0]) == social_cost(graph)


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


def test_census_capped_by_bitset_width():
    # One profile (every budget 0), so the refusal allocates nothing.
    game = BoundedBudgetGame([0] * 64)
    assert profile_space_size(game) == 1
    with pytest.raises(GameError, match="int64 neighbour masks"):
        census_scan(game, "sum")


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
    brute = brute_exact_prices(game, version)
    assert exact_prices(game, version) == brute
    assert exact_prices(game, version, symmetry=True) == brute
    assert exact_prices(game, version, workers=2) == brute
    assert exact_prices(game, version, workers=3, symmetry=True) == brute


@pytest.mark.parametrize(
    "budgets",
    [
        (1, 1, 1),
        (2, 1, 0),
        (1, 1, 1, 1),
        (2, 1, 1, 0),
        (0,),
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 1, 1, 1, 0),
    ],
)
@pytest.mark.parametrize("version", ["sum", "max"])
def test_enumerate_equilibria_golden_equivalence(budgets, version):
    """Collected equilibria equal the rebuild-per-profile list exactly
    (n = 1 and n = 2 included), and so do the reports."""
    game = BoundedBudgetGame(list(budgets))
    brute = enumerate_equilibria(game, version, incremental=False)
    keys = tuple(g.profile_key() for g in brute)
    report = brute_exact_prices(game, version)
    for kwargs in ({}, {"symmetry": True}, {"workers": 2, "symmetry": True}):
        fast = enumerate_equilibria(game, version, **kwargs)
        assert [g.profile_key() for g in fast] == list(keys)
        got = census_scan(game, version, collect_equilibria=True, **kwargs)
        assert got.equilibria == keys
        assert got.report == report


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
    """mixed n=5 (576 profiles): the unpruned walk against every knob
    combination."""
    game = BoundedBudgetGame([2, 2, 1, 1, 0])
    reference = exact_prices(game, version)
    assert exact_prices(game, version, symmetry=True) == reference
    assert exact_prices(game, version, workers=3, symmetry=True) == reference
    assert exact_prices(game, version, workers=2, symmetry=True) == reference


@pytest.mark.parametrize("version", ["sum", "max"])
def test_promoted_unit_n6_knob_invariance(version):
    """unit n=6's pruned-kernel knob combinations agree bit for bit
    (count-pinned at 120/480 elsewhere), and so does the unpruned walk,
    which evaluates all 15625 profiles: the bridge that checks the
    pruned census's orbit weighting."""
    game = BoundedBudgetGame([1] * 6)
    reference = exact_prices(game, version, symmetry=True, max_profiles=20_000)
    for kwargs in ({"workers": 3}, {"workers": 2}, {"workers": 4}):
        got = exact_prices(
            game, version, symmetry=True, max_profiles=20_000, **kwargs
        )
        assert got == reference, kwargs
    unpruned = census_scan(game, version, symmetry=False, max_profiles=20_000)
    assert unpruned.report == reference


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
