"""Fault-tolerant census: kill-and-resume overhead vs uninterrupted.

Three claims, each asserted (not just timed):

* the checkpointed work-stealing runtime reproduces the plain
  symmetric census **bit-identically** on the budget class
  ``(2, 1, 1, 1, 1, 1)`` (31250 profiles) — uninterrupted, under
  injected worker kills recovered in-run, and across a quarantine +
  resume cycle (symmetric unit games run on the orbit generator, in
  one process, so the walk is exercised on a non-unit class);
* a weighted census (unit n=5, pairwise-distinct weights, 1024
  profiles) killed and resumed at injected fault points is
  bit-identical to its uninterrupted run;
* the journaling overhead of an uninterrupted checkpointed run and the
  total cost of a kill-and-resume cycle are bounded multiples of the
  plain scan (advisory on CI, where noisy neighbours own the clock).

Timings land in ``.bench_out/BENCH_resume.json`` (see ``conftest.py``);
the tracked ``BENCH_resume.json`` at the repo root is the baseline.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import BoundedBudgetGame, census_scan, weighted_census_scan
from repro.core.enumeration import profile_space_size
from repro.parallel import Fault, FaultPlan, contiguous_shards

#: Wall-clock comparisons are meaningful on a quiet machine; on shared
#: CI runners a noisy neighbour can invert margins with no code defect,
#: so the timing asserts are advisory there (correctness always runs).
_STRICT_TIMING = not os.environ.get("CI")

BENCH_NAME = "resume"

_RUNTIME_OPTS = {"backoff_base": 0.01, "timeout": 600.0}


def _kill_plan(shards, *, attempts=(0,)):
    """One mid-range kill per shard, for each of the given attempts."""
    return FaultPlan(
        faults=tuple(
            Fault(kind="kill", shard_id=i, rank=(lo + hi) // 2, attempt=a)
            for i, (lo, hi) in enumerate(shards)
            for a in attempts
        )
    )


@pytest.mark.paper_artifact("fault tolerance / n=6 symmetric walk kill-and-resume")
def test_n6_symmetric_walk_kill_and_resume_bit_identical(
    benchmark, tmp_path, bench_record
):
    """Budgets ``(2, 1, 1, 1, 1, 1)``, 31250 profiles: the checkpointed
    symmetric walk must match the plain census bit for bit —
    uninterrupted, with every shard's worker killed once mid-range, and
    across quarantine + resume."""
    game = BoundedBudgetGame([2, 1, 1, 1, 1, 1])
    total = profile_space_size(game)
    shards = contiguous_shards(total, 4)

    t0 = time.perf_counter()
    ref = census_scan(game, "max", symmetry=True)
    plain_s = time.perf_counter() - t0

    def checkpointed(subdir, **kwargs):
        return census_scan(
            game,
            "max",
            symmetry=True,
            workers=2,
            checkpoint_dir=tmp_path / subdir,
            shard_count=4,
            runtime_opts=dict(_RUNTIME_OPTS, **kwargs.pop("runtime_opts", {})),
            **kwargs,
        )

    t0 = time.perf_counter()
    clean = checkpointed("clean")
    clean_s = time.perf_counter() - t0
    assert clean.report == ref.report and clean.incomplete is None

    benchmark.pedantic(
        lambda: checkpointed("bench"), rounds=1, iterations=1
    )

    # Every shard's worker killed once mid-range: recovered in-run from
    # the journals, still bit-identical.
    t0 = time.perf_counter()
    faulted = checkpointed("faulted", fault_plan=_kill_plan(shards))
    faulted_s = time.perf_counter() - t0
    assert faulted.report == ref.report and faulted.incomplete is None

    # Kill one shard past its retry budget: the run degrades to an
    # explicit incompleteness manifest; resuming heals it exactly.
    poison = _kill_plan(shards[:1], attempts=range(4))
    t0 = time.perf_counter()
    partial = checkpointed(
        "poisoned", fault_plan=poison, runtime_opts={"max_retries": 1}
    )
    interrupted_s = time.perf_counter() - t0
    assert partial.incomplete is not None
    assert partial.incomplete.covered < total

    t0 = time.perf_counter()
    healed = checkpointed("poisoned", resume=True)
    resume_s = time.perf_counter() - t0
    assert healed.report == ref.report and healed.incomplete is None

    overhead = clean_s / plain_s
    bench_record(
        "mixed_n6_max",
        {
            "profiles": total,
            "equilibria": ref.report.num_equilibria,
            "plain_s": round(plain_s, 4),
            "checkpointed_s": round(clean_s, 4),
            "killed_recovered_s": round(faulted_s, 4),
            "interrupted_s": round(interrupted_s, 4),
            "resume_s": round(resume_s, 4),
            "kill_resume_total_s": round(interrupted_s + resume_s, 4),
            "checkpoint_overhead_x": round(overhead, 2),
            "bit_identical": True,
        },
    )
    # The runtime forks workers and journals checkpoints; 25x over a
    # ~0.1 s in-process scan is a generous ceiling that still catches a
    # runaway regression (e.g. re-walking resumed prefixes).
    assert not _STRICT_TIMING or overhead < 25.0, (
        f"checkpointed census took {clean_s:.2f}s vs plain {plain_s:.2f}s "
        f"({overhead:.1f}x); journaling overhead has regressed"
    )


@pytest.mark.paper_artifact("fault tolerance / weighted census kill-and-resume")
def test_weighted_kill_and_resume_bit_identical(benchmark, tmp_path, bench_record):
    """Weighted unit n=5 (pairwise-distinct weights, 1024 profiles):
    killed at injected fault points and resumed, bit-identical."""
    game = BoundedBudgetGame([1] * 5)
    weights = (1, 2, 3, 4, 5)
    total = profile_space_size(game)
    shards = contiguous_shards(total, 4)

    t0 = time.perf_counter()
    ref, _ = weighted_census_scan(game, weights)
    plain_s = time.perf_counter() - t0

    def checkpointed(subdir, **kwargs):
        wc, _ = weighted_census_scan(
            game,
            weights,
            workers=2,
            checkpoint_dir=tmp_path / subdir,
            shard_count=4,
            runtime_opts=dict(_RUNTIME_OPTS, **kwargs.pop("runtime_opts", {})),
            **kwargs,
        )
        return wc

    benchmark.pedantic(
        lambda: checkpointed("bench"), rounds=1, iterations=1
    )

    t0 = time.perf_counter()
    faulted = checkpointed(
        "faulted",
        fault_plan=FaultPlan.random(
            seed=23, shards=shards, kinds=("kill", "drop_checkpoint")
        ),
        runtime_opts={"checkpoint_interval": 64},
    )
    faulted_s = time.perf_counter() - t0
    assert faulted == ref

    poison = _kill_plan(shards[2:3], attempts=range(4))
    t0 = time.perf_counter()
    weighted_census_scan(
        game,
        weights,
        workers=2,
        checkpoint_dir=tmp_path / "poisoned",
        shard_count=4,
        fault_plan=poison,
        runtime_opts=dict(_RUNTIME_OPTS, max_retries=1),
    )
    interrupted_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    healed = checkpointed("poisoned", resume=True)
    resume_s = time.perf_counter() - t0
    assert healed == ref

    bench_record(
        "weighted_unit_n5_ramp",
        {
            "profiles": total,
            "weak_equilibria": ref.num_weak_equilibria,
            "plain_s": round(plain_s, 4),
            "killed_recovered_s": round(faulted_s, 4),
            "interrupted_s": round(interrupted_s, 4),
            "resume_s": round(resume_s, 4),
            "kill_resume_total_s": round(interrupted_s + resume_s, 4),
            "bit_identical": True,
        },
    )
