"""Incremental exact census vs rebuild-per-profile brute force.

Seven claims, each asserted (not just timed):

* the Gray-order incremental kernel with symmetry pruning beats the
  brute-force census on the unit n=5 instance by >= 5x, with a
  bit-identical :class:`ExactPriceReport`;
* sharded execution (``workers > 1``) returns the same report;
* unit n=6 — 15625 profiles, far beyond what rebuild-per-profile
  affords in a smoke lane — completes in seconds under the cap, with
  its exact equilibrium counts pinned as regression anchors;
* unit n=7 — 279936 profiles, group order 5040 — completes in
  single-digit seconds on the canonical-rep-only walk (probe keys +
  vectorised block advance), with its exact counts pinned (they were
  cross-validated once against the unpruned sharded walk, which takes
  ~10 minutes);
* unit n=8 — 5764801 profiles, group order 40320 — completes in well
  under two minutes on the stabilizer-chain canonical walk (128-bit
  orbit keys), and a Gray-rank window of the pruned run's collected
  equilibria matches an unpruned shard walked over the same window
  exactly (the cross-validation is a subrange because the full
  unpruned space measures ~70 minutes);
* the weighted weak-equilibrium census of unit n=6 with all-ones
  weights (15625 profiles, 120 weak equilibria) runs on the bitset
  evaluator in under a second;
* the Monte Carlo sampled census covers the known exact equilibrium
  counts at n=6 and n=7 within its stated confidence intervals, in a
  small fraction of the exhaustive walk's time.

Timings land in ``.bench_out/BENCH_census.json`` (see ``conftest.py``);
the tracked ``BENCH_census.json`` at the repo root is the baseline.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import pytest

from repro.core import (
    BoundedBudgetGame,
    ExactPriceReport,
    Version,
    census_scan,
    enumerate_equilibria,
    enumerate_realizations,
    exact_prices,
    profile_space_size,
    sampled_census_scan,
    weighted_census_scan,
)
from repro.core.enumeration import _census_shard, _gray_rank, _profile_tables
from repro.graphs import diameter

#: Wall-clock comparisons are meaningful on a quiet machine; on shared
#: CI runners a noisy neighbour can invert margins with no code defect,
#: so the timing asserts are advisory there (correctness always runs).
_STRICT_TIMING = not os.environ.get("CI")

BENCH_NAME = "census"


@pytest.mark.paper_artifact("exact census / incremental kernel speedup")
@pytest.mark.parametrize("version", ["sum", "max"])
def test_incremental_census_beats_bruteforce_unit_n5(
    benchmark, version, bench_record
):
    """Unit n=5 (1024 profiles): the shipped census configuration
    (Gray walk + bitset evaluator + symmetry orbit pruning) must be
    >= 5x faster than the rebuild-per-profile baseline and bit-identical."""
    game = BoundedBudgetGame([1] * 5)

    def incremental():
        return exact_prices(game, version, symmetry=True)

    fast_report = benchmark.pedantic(incremental, rounds=3, iterations=1, warmup_rounds=1)

    t0 = time.perf_counter()
    fast_report = incremental()
    incremental_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plain_report = exact_prices(game, version)
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    # Rebuild-per-profile baseline: a fresh graph per profile, its
    # diameter, and the exact best-response search for membership.
    eq_diams = [
        diameter(g) for g in enumerate_equilibria(game, version, incremental=False)
    ]
    brute_report = ExactPriceReport(
        version=Version.coerce(version),
        num_profiles=profile_space_size(game),
        num_equilibria=len(eq_diams),
        opt_diameter=min(diameter(g) for g in enumerate_realizations(game)),
        best_equilibrium_diameter=min(eq_diams),
        worst_equilibrium_diameter=max(eq_diams),
    )
    brute_s = time.perf_counter() - t0

    assert fast_report == brute_report
    assert plain_report == brute_report
    assert exact_prices(game, version, workers=2, symmetry=True) == brute_report

    speedup = brute_s / incremental_s
    bench_record(
        f"unit_n5_{version}",
        {
            "profiles": brute_report.num_profiles,
            "equilibria": brute_report.num_equilibria,
            "bruteforce_s": round(brute_s, 4),
            "incremental_s": round(plain_s, 4),
            "incremental_symmetry_s": round(incremental_s, 4),
            "speedup_vs_bruteforce": round(speedup, 1),
        },
    )
    assert not _STRICT_TIMING or speedup >= 5.0, (
        f"incremental census ({incremental_s * 1e3:.1f} ms) should be >= 5x "
        f"faster than brute force ({brute_s * 1e3:.1f} ms); got {speedup:.1f}x"
    )


@pytest.mark.paper_artifact("exact census / unit n=6 unlocked")
def test_unit_n6_census_under_cap(benchmark, bench_record):
    """Unit n=6: 15625 profiles, infeasible for the smoke lane on the
    brute path (~2 ms/profile), well under a second on the incremental
    kernel. The exact counts are pinned: they are deterministic
    whole-space facts."""
    game = BoundedBudgetGame([1] * 6)

    def run():
        return {
            v: census_scan(game, v, symmetry=True, max_profiles=20_000).report
            for v in ("sum", "max")
        }

    t0 = time.perf_counter()
    reports = run()
    elapsed = time.perf_counter() - t0
    benchmark.pedantic(run, rounds=1, iterations=1)

    assert reports["sum"].num_profiles == reports["max"].num_profiles == 5**6
    assert reports["sum"].num_equilibria == 120
    assert reports["sum"].poa == Fraction(1)
    assert reports["max"].num_equilibria == 480
    assert reports["max"].poa == Fraction(3, 2)
    # Knob bridge beyond the brute-force budget: the unpruned walk
    # (every profile evaluated) must agree with the pruned kernel bit
    # for bit. About 0.1 s/version on the bitset evaluator; tier-1
    # runs the same bridge (test_promoted_unit_n6_knob_invariance).
    for v in ("sum", "max"):
        unpruned = census_scan(game, v, symmetry=False, max_profiles=20_000).report
        assert unpruned == reports[v]
    bench_record(
        "unit_n6",
        {
            "profiles": 5**6,
            "equilibria": {"sum": 120, "max": 480},
            "incremental_symmetry_s": round(elapsed, 4),
            "bruteforce_s": None,  # not run: ~2 ms/profile puts it at ~30 s
        },
    )


@pytest.mark.paper_artifact("weighted census / unit n=6 on the bitset evaluator")
def test_weighted_unit_n6_census_under_a_second(benchmark, bench_record):
    """Weighted unit n=6, all-ones weights: 15625 profiles, every one
    evaluated (weights break the orbit pruning). The counts are pinned
    always; the one-second bound is advisory under CI."""
    game = BoundedBudgetGame([1] * 6)

    def run():
        return weighted_census_scan(game, (1,) * 6, max_profiles=20_000)[0]

    t0 = time.perf_counter()
    report = run()
    elapsed = time.perf_counter() - t0
    benchmark.pedantic(run, rounds=1, iterations=1)

    assert report.num_profiles == 5**6
    assert report.num_weak_equilibria == 120
    assert report.opt_social_cost == 48
    bench_record(
        "weighted_unit_n6",
        {
            "profiles": report.num_profiles,
            "weak_equilibria": report.num_weak_equilibria,
            "seconds": round(elapsed, 4),
        },
    )
    assert not _STRICT_TIMING or elapsed <= 1.0, (
        f"weighted unit n=6 census took {elapsed:.2f} s; expected <= 1 s"
    )


@pytest.mark.paper_artifact("exact census / unit n=7 unlocked")
def test_unit_n7_census_single_digit_seconds(benchmark, bench_record):
    """Unit n=7: 279936 profiles under the S7 budget symmetry group
    (order 5040) — infeasible per-profile (the unpruned sharded walk
    measures ~10 minutes), single-digit seconds on the canonical-rep-
    only walk. Counts pinned; they match the unpruned walk exactly."""
    game = BoundedBudgetGame([1] * 7)

    def run():
        return {
            v: census_scan(game, v, symmetry=True, max_profiles=300_000).report
            for v in ("sum", "max")
        }

    t0 = time.perf_counter()
    reports = run()
    elapsed = time.perf_counter() - t0
    benchmark.pedantic(run, rounds=1, iterations=1)

    assert reports["sum"].num_profiles == reports["max"].num_profiles == 6**7
    assert reports["sum"].num_equilibria == 210
    assert reports["sum"].poa == Fraction(1)
    assert reports["max"].num_equilibria == 10212
    assert reports["max"].poa == Fraction(3, 2)
    assert reports["sum"].pos == reports["max"].pos == Fraction(1)
    bench_record(
        "unit_n7",
        {
            "profiles": 6**7,
            "group_order": 5040,
            "equilibria": {"sum": 210, "max": 10212},
            "incremental_symmetry_s": round(elapsed, 4),
            "bruteforce_s": None,  # cross-validated once: ~625 s unpruned
        },
    )
    assert not _STRICT_TIMING or elapsed < 10.0, (
        f"unit n=7 sum+max census took {elapsed:.1f} s; the canonical-rep "
        f"walk should land it in single-digit seconds"
    )


#: The n=8 census (~20 s for sum+max on one core) runs by default on a
#: developer machine but is opt-in under CI: the ``census-n8`` lane
#: (workflow_dispatch / nightly) sets ``RUN_N8=1``; the push/PR smoke
#: lanes skip it to stay fast.
_RUN_N8 = os.environ.get("RUN_N8") == "1" or not os.environ.get("CI")


@pytest.mark.skipif(
    not _RUN_N8, reason="n=8 census is opt-in under CI (set RUN_N8=1)"
)
@pytest.mark.paper_artifact("exact census / unit n=8 unlocked")
def test_unit_n8_census_cross_validated(benchmark, bench_record):
    """Unit n=8: 5764801 profiles under the S8 budget symmetry group
    (order 40320). The stabilizer-chain canonical walk with two-word
    128-bit orbit keys lands sum+max well under the 'minutes' bar; the
    counts are pinned and cross-validated in-test: every collected
    equilibrium of the pruned run that unranks into a 20000-rank Gray
    window must be found — and nothing else — by an unpruned shard
    walked over exactly that window (the full unpruned space measures
    ~70 minutes, hence the subrange)."""
    game = BoundedBudgetGame([1] * 8)
    budgets = tuple(int(b) for b in game.budgets)

    def run():
        return {
            v: census_scan(
                game,
                v,
                symmetry=True,
                max_profiles=6_000_000,
                collect_equilibria=(v == "max"),
            )
            for v in ("sum", "max")
        }

    t0 = time.perf_counter()
    results = run()
    elapsed = time.perf_counter() - t0
    benchmark.pedantic(run, rounds=1, iterations=1)

    reports = {v: r.report for v, r in results.items()}
    assert reports["sum"].num_profiles == reports["max"].num_profiles == 7**8
    assert reports["sum"].num_equilibria == 336
    assert reports["sum"].poa == Fraction(1)
    assert reports["max"].num_equilibria == 65632
    assert reports["max"].opt_diameter == 2
    assert reports["max"].worst_equilibrium_diameter == 3
    assert reports["max"].poa == Fraction(3, 2)

    # Cross-validation: unrank every collected max-equilibrium into its
    # Gray rank, centre a window on the median so it is guaranteed
    # non-empty, and replay that window with symmetry pruning OFF.
    combos, _, rests = _profile_tables(game)
    index = [{c: i for i, c in enumerate(cu)} for cu in combos]
    eq_ranks = sorted(
        _gray_rank([index[u][p[u]] for u in range(8)], rests)
        for p in results["max"].equilibria
    )
    assert len(eq_ranks) == 65632
    window = 20_000
    mid = eq_ranks[len(eq_ranks) // 2]
    lo = max(0, min(mid - window // 2, 7**8 - window))
    hi = lo + window
    in_window = sum(1 for r in eq_ranks if lo <= r < hi)
    assert in_window > 0
    t0 = time.perf_counter()
    part = _census_shard((budgets, "max", lo, hi, False, False, 6_000_000))
    unpruned_s = time.perf_counter() - t0
    assert part["count"] == window
    assert part["eq_count"] == in_window
    assert part["opt"] >= reports["max"].opt_diameter

    bench_record(
        "unit_n8",
        {
            "profiles": 7**8,
            "group_order": 40320,
            "equilibria": {"sum": 336, "max": 65632},
            "incremental_symmetry_s": round(elapsed, 4),
            "bruteforce_s": None,  # unpruned full space measures ~70 min
            "crossval_window": [lo, hi],
            "crossval_window_eq": int(part["eq_count"]),
            "crossval_unpruned_s": round(unpruned_s, 4),
        },
    )
    assert not _STRICT_TIMING or elapsed < 120.0, (
        f"unit n=8 sum+max census took {elapsed:.1f} s; the stabilizer-"
        f"chain walk should land it well under two minutes"
    )


@pytest.mark.paper_artifact("sampled census / CI coverage at arbitrated sizes")
def test_sampled_census_covers_exact_counts(benchmark, bench_record):
    """Monte Carlo sampled census at the sizes where the exhaustive
    census can arbitrate: the Wilson interval on the equilibrium count
    must cover the known exact values (n=6: 120 sum / 480 max; n=7:
    210 sum / 10212 max) while evaluating only a few hundred of the
    15625 / 279936 profiles. Estimates are seed-deterministic, so the
    coverage asserts are stable regressions, not flaky statistics."""
    cases = [
        # (n, version, samples, exact equilibria)
        (6, "sum", 400, 120),
        (6, "max", 400, 480),
        (7, "sum", 500, 210),
        (7, "max", 500, 10212),
    ]

    def run():
        out = {}
        for n, version, samples, _ in cases:
            game = BoundedBudgetGame([1] * n)
            out[(n, version)] = sampled_census_scan(
                game, version, samples=samples, seed=11, method="stratified"
            )
        return out

    t0 = time.perf_counter()
    reports = run()
    elapsed = time.perf_counter() - t0
    benchmark.pedantic(run, rounds=1, iterations=1)

    payload = {"elapsed_s": round(elapsed, 4), "seed": 11, "cases": {}}
    for n, version, samples, exact in cases:
        rep = reports[(n, version)]
        lo, hi = rep.eq_count_ci
        assert rep.samples_evaluated == samples
        assert lo <= exact <= hi, (
            f"unit n={n} {version}: sampled CI [{lo:.0f}, {hi:.0f}] "
            f"misses the exact count {exact}"
        )
        payload["cases"][f"unit_n{n}_{version}"] = {
            "samples": samples,
            "total_profiles": rep.total_profiles,
            "exact_equilibria": exact,
            "eq_count_estimate": round(rep.eq_count_estimate, 1),
            "eq_count_ci": [round(lo, 1), round(hi, 1)],
            "poa_estimate": (
                str(rep.poa_estimate) if rep.poa_estimate is not None else None
            ),
        }
    bench_record("sampled_census", payload)
    # 1800 evaluated profiles across four instances: the sampled scan
    # must stay far below the exhaustive walks it stands in for.
    assert not _STRICT_TIMING or elapsed < 30.0, (
        f"sampled census sweep took {elapsed:.1f} s for 1800 samples"
    )


@pytest.mark.paper_artifact("exact census / shard merge determinism")
def test_sharded_census_is_worker_count_invariant(benchmark):
    """The merged report must not depend on how the rank space splits."""
    game = BoundedBudgetGame([2, 1, 1, 0])

    def run(workers):
        return exact_prices(game, "max", workers=workers)

    reference = benchmark.pedantic(run, args=(1,), rounds=3, iterations=1)
    for workers in (2, 3, 5):
        assert run(workers) == reference
