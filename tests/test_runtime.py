"""Tests for the fault-tolerant checkpointed work-stealing runtime.

Exercises genuine process death, not mocks: injected faults kill
workers with ``os._exit`` mid-shard, stall them past the heartbeat
timeout, and drop or corrupt their checkpoint writes. The invariant
under test throughout is *bit-identity* — any fault plan, worker
count, and kill/resume schedule must reproduce the uninterrupted
result exactly, because shard aggregates are pure functions of the
rank range and recovery replays only journaled state.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core import (
    BoundedBudgetGame,
    census_scan,
    sampled_census_scan,
    weighted_census_scan,
)
from repro.core import enumeration as en
from repro.core.checkpoint import append_record, replay_journal, shard_journal_path
from repro.errors import CheckpointError, GameError
from repro.parallel import Fault, FaultPlan, contiguous_shards, run_shards


# ----------------------------------------------------------------------
# A tiny checkpoint-aware shard function for direct run_shards tests
# ----------------------------------------------------------------------
def _sum_shard(payload, ctx=None):
    """Sum of squares over ``range(lo, hi)``, checkpointed like a census."""
    lo, hi, poison_attempts = payload
    start, total = lo, 0
    if ctx is not None and ctx.resume_state is not None:
        start = ctx.resume_state.next_rank
        total = ctx.resume_state.counters["total"]
    if ctx is not None and ctx.attempt < poison_attempts:
        raise RuntimeError(f"poisoned attempt {ctx.attempt}")
    interval = ctx.interval if ctx is not None else hi - lo + 1
    next_cp = start + interval
    for rank in range(start, hi):
        if ctx is not None:
            ctx.tick(rank)
        total += rank * rank
        if ctx is not None and next_cp <= rank + 1 < hi:
            ctx.checkpoint(
                lo=lo, hi=hi, next_rank=rank + 1, counters={"total": total}
            )
            next_cp = rank + 1 + interval
    if ctx is not None:
        ctx.checkpoint(
            lo=lo, hi=hi, next_rank=hi, counters={"total": total}, done=True
        )
    return {"lo": lo, "total": total}


def _sum_result_from_record(record):
    return {"lo": record.lo, "total": record.counters["total"]}


_SHARDS = [(0, 100, 0), (100, 200, 0), (200, 300, 0), (300, 400, 0)]
_EXPECT = [
    {"lo": lo, "total": sum(r * r for r in range(lo, hi))}
    for lo, hi, _ in _SHARDS
]


def _run(tmp_path, payloads=_SHARDS, shard_fn=_sum_shard, **kwargs):
    opts = dict(
        checkpoint_dir=tmp_path,
        workers=2,
        checkpoint_interval=10,
        backoff_base=0.01,
        timeout=120.0,
    )
    opts.update(kwargs)
    return run_shards(shard_fn, payloads, **opts)


def test_run_shards_clean(tmp_path):
    report = _run(tmp_path)
    assert report.results() == _EXPECT
    assert report.stats["crashes"] == 0
    assert report.stats["quarantined"] == 0
    assert report.incomplete() == []
    # Every shard journaled a done record.
    for i in range(len(_SHARDS)):
        last = replay_journal(shard_journal_path(tmp_path, i)).last
        assert last is not None and last.done


def test_run_shards_kill_and_recover_bit_identical(tmp_path):
    plan = FaultPlan(
        faults=(
            Fault(kind="kill", shard_id=0, rank=57),
            Fault(kind="kill", shard_id=2, rank=203),
        )
    )
    report = _run(tmp_path, fault_plan=plan)
    assert report.results() == _EXPECT
    assert report.stats["crashes"] == 2
    assert report.stats["retries"] == 2
    # The retries resumed from journaled progress, not from scratch.
    outcome = report.outcomes[0]
    assert outcome.attempts == 1 and outcome.resumed


def test_run_shards_dropped_and_corrupt_checkpoints(tmp_path):
    # Shard 1 loses its first checkpoint write, gets its second write
    # corrupted on disk, and is then killed: recovery must fall back to
    # whatever intact prefix remains and still converge exactly.
    plan = FaultPlan(
        faults=(
            Fault(kind="drop_checkpoint", shard_id=1, checkpoint_index=0),
            Fault(kind="corrupt_checkpoint", shard_id=1, checkpoint_index=1),
            Fault(kind="kill", shard_id=1, rank=140),
        )
    )
    report = _run(tmp_path, fault_plan=plan)
    assert report.results() == _EXPECT
    assert report.stats["crashes"] == 1


def test_run_shards_stall_detected_and_reclaimed(tmp_path):
    plan = FaultPlan(
        faults=(Fault(kind="stall", shard_id=3, rank=350),),
        stall_seconds=60.0,
    )
    report = _run(tmp_path, fault_plan=plan, heartbeat_timeout=1.0)
    assert report.results() == _EXPECT
    assert report.stats["stalls"] == 1
    assert report.stats["retries"] == 1


def test_run_shards_worker_exception_retries(tmp_path):
    payloads = list(_SHARDS)
    payloads[2] = (200, 300, 2)  # raises on attempts 0 and 1
    report = _run(tmp_path, payloads=payloads)
    assert report.results() == _EXPECT
    assert report.stats["worker_errors"] == 2
    assert report.outcomes[2].attempts == 2


def _sysexit_shard(payload, ctx=None):
    """Like ``_sum_shard`` but poisoned attempts raise SystemExit."""
    lo, hi, poison_attempts = payload
    if ctx is not None and ctx.attempt < poison_attempts:
        raise SystemExit(3)
    return _sum_shard((lo, hi, 0), ctx)


def test_run_shards_systemexit_reported_as_error_event(tmp_path):
    # Regression: the worker loop used to catch only Exception, so a
    # SystemExit inside a shard fn killed the worker with no "error"
    # event and the shard waited out a full heartbeat-timeout
    # reclamation. It must surface as a fast error-event retry instead.
    payloads = list(_SHARDS)
    payloads[1] = (100, 200, 2)  # SystemExit on attempts 0 and 1
    report = _run(
        tmp_path,
        payloads=payloads,
        shard_fn=_sysexit_shard,
        heartbeat_timeout=600.0,  # reclamation would blow the timeout
        timeout=60.0,
    )
    assert report.results() == _EXPECT
    assert report.stats["worker_errors"] == 2
    assert report.stats["crashes"] == 0
    assert report.stats["stalls"] == 0
    assert report.outcomes[1].attempts == 2


def test_run_shards_quarantines_poison_shard(tmp_path):
    plan = FaultPlan(
        faults=tuple(
            Fault(kind="kill", shard_id=1, rank=160, attempt=a)
            for a in range(6)
        )
    )
    report = _run(tmp_path, fault_plan=plan, max_retries=2)
    assert report.stats["quarantined"] == 1
    outcome = report.outcomes[1]
    assert outcome.quarantined and outcome.result is None
    # The quarantined shard still contributes its journaled prefix, and
    # the report names exactly the uncovered rank range.
    assert outcome.last_record is not None
    assert outcome.last_record.next_rank <= 160
    assert report.incomplete() == [(1, outcome.last_record.next_rank, 200)]
    # The healthy shards are unaffected.
    assert [r for r in report.results()] == [
        e for i, e in enumerate(_EXPECT) if i != 1
    ]


def test_run_shards_resume_skips_done_shards(tmp_path):
    _run(tmp_path)
    report = _run(
        tmp_path, resume=True, result_from_record=_sum_result_from_record
    )
    assert report.results() == _EXPECT
    assert report.stats["shards_skipped_done"] == len(_SHARDS)
    assert report.stats["workers_spawned"] == 0  # nothing left to run


def test_run_shards_resume_done_requires_rebuild_hook(tmp_path):
    _run(tmp_path)
    with pytest.raises(CheckpointError):
        _run(tmp_path, resume=True)


def test_run_shards_timeout_keeps_journals(tmp_path):
    plan = FaultPlan(
        faults=(Fault(kind="stall", shard_id=0, rank=50),),
        stall_seconds=60.0,
    )
    with pytest.raises(CheckpointError):
        _run(
            tmp_path,
            fault_plan=plan,
            workers=1,
            heartbeat_timeout=30.0,
            timeout=1.0,
        )
    # The interrupted run's journals replay cleanly for a later resume.
    report = _run(
        tmp_path, resume=True, result_from_record=_sum_result_from_record
    )
    assert report.results() == _EXPECT


# ----------------------------------------------------------------------
# Checkpointed census scans: bit-identity under injected faults
# ----------------------------------------------------------------------
_RUNTIME_OPTS = {
    "checkpoint_interval": 16,
    "backoff_base": 0.01,
    "timeout": 300.0,
}


def _unit_ref(game, version, **kwargs):
    return census_scan(game, version, collect_equilibria=True, **kwargs)


def test_census_fault_matrix_bit_identical(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    ref = _unit_ref(game, "max")
    plan = FaultPlan(
        faults=(
            Fault(kind="kill", shard_id=0, rank=70),
            Fault(kind="drop_checkpoint", shard_id=1, checkpoint_index=1),
            Fault(kind="kill", shard_id=1, rank=400),
            Fault(kind="corrupt_checkpoint", shard_id=2, checkpoint_index=0),
            Fault(kind="kill", shard_id=2, rank=600),
            Fault(kind="stall", shard_id=3, rank=900),
        ),
        stall_seconds=60.0,
    )
    res = census_scan(
        game,
        "max",
        workers=2,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        shard_count=4,
        fault_plan=plan,
        runtime_opts=dict(_RUNTIME_OPTS, heartbeat_timeout=1.5),
    )
    assert res.report == ref.report
    assert res.equilibria == ref.equilibria
    assert res.incomplete is None
    stats = en.LAST_CENSUS_RUNTIME_STATS
    assert stats["crashes"] == 3 and stats["stalls"] == 1
    assert stats["covered"] == 1024 and stats["missing"] == []


def test_census_random_fault_plan_with_symmetry(tmp_path):
    # A non-unit class: symmetric unit games run on the orbit generator,
    # which has no shards to fault.
    game = BoundedBudgetGame([2, 1, 1, 1, 1])
    ref = _unit_ref(game, "sum", symmetry=True)
    plan = FaultPlan.random(seed=7, shards=contiguous_shards(1536, 4))
    res = census_scan(
        game,
        "sum",
        workers=2,
        symmetry=True,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        shard_count=4,
        fault_plan=plan,
        runtime_opts=dict(_RUNTIME_OPTS, heartbeat_timeout=1.5),
    )
    assert res.report == ref.report
    assert res.equilibria == ref.equilibria


def test_unpruned_census_checkpoints_at_interval_ranks(tmp_path):
    """Blocks end at checkpoint ranks, so records land every
    ``checkpoint_interval`` ranks, then a done record at ``hi``."""
    game = BoundedBudgetGame([2, 1, 1, 1, 0])
    ref = census_scan(game, "sum", collect_equilibria=True)
    got = census_scan(
        game,
        "sum",
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        runtime_opts=dict(_RUNTIME_OPTS, checkpoint_interval=100),
    )
    assert got == ref
    records = replay_journal(shard_journal_path(tmp_path, 0)).records
    assert [r.next_rank for r in records] == [100, 200, 300, 384]
    assert [r.done for r in records] == [False, False, False, True]


@pytest.mark.parametrize(
    "budgets,symmetry,interval,kill,journaled",
    [
        ((2, 1, 1, 1, 0), False, 100, 150, [100]),
        # The symmetric walk checkpoints on Gray-block boundaries only
        # (a non-unit class: symmetric unit games skip the walk).
        ((2, 1, 1, 1, 1, 1), True, 2048, 5000, [2049, 4097]),
    ],
)
def test_census_kill_inside_block_then_resume_bit_identical(
    tmp_path, budgets, symmetry, interval, kill, journaled
):
    """A kill at a rank inside an evaluated block loses that block's
    work; the resume restarts from the last record and matches the
    uninterrupted census exactly."""
    game = BoundedBudgetGame(list(budgets))
    kwargs = dict(symmetry=symmetry, collect_equilibria=True)
    ref = census_scan(game, "max", **kwargs)
    opts = dict(_RUNTIME_OPTS, checkpoint_interval=interval, max_retries=0)
    partial = census_scan(
        game,
        "max",
        checkpoint_dir=tmp_path,
        fault_plan=FaultPlan(faults=(Fault(kind="kill", shard_id=0, rank=kill),)),
        runtime_opts=opts,
        **kwargs,
    )
    assert partial.incomplete is not None
    records = replay_journal(shard_journal_path(tmp_path, 0)).records
    assert [r.next_rank for r in records] == journaled
    healed = census_scan(
        game, "max", checkpoint_dir=tmp_path, resume=True, runtime_opts=opts, **kwargs
    )
    assert healed == ref
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_resumed"] == 1


def test_weighted_census_random_fault_plan(tmp_path):
    game = BoundedBudgetGame([1, 1, 1, 1])
    weights = (5, 1, 1, 1)
    ref, _ = weighted_census_scan(game, weights)
    from repro.core.enumeration import profile_space_size

    plan = FaultPlan.random(
        seed=11, shards=contiguous_shards(profile_space_size(game), 4)
    )
    res, _ = weighted_census_scan(
        game,
        weights,
        workers=2,
        checkpoint_dir=tmp_path,
        shard_count=4,
        fault_plan=plan,
        runtime_opts=dict(_RUNTIME_OPTS, heartbeat_timeout=1.5),
    )
    assert res == ref


def test_weighted_census_checkpoints_at_interval_ranks(tmp_path):
    """The weighted walk cuts its blocks at checkpoint ranks too, so
    records land every ``checkpoint_interval`` ranks, then a done record
    at ``hi``."""
    game = BoundedBudgetGame([2, 1, 1, 1, 0])
    weights = (3, 1, 1, 1, 1)
    ref = weighted_census_scan(game, weights, collect_equilibria=True)
    got = weighted_census_scan(
        game,
        weights,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        runtime_opts=dict(_RUNTIME_OPTS, checkpoint_interval=100),
    )
    assert got == ref
    records = replay_journal(shard_journal_path(tmp_path, 0)).records
    assert [r.next_rank for r in records] == [100, 200, 300, 384]
    assert [r.done for r in records] == [False, False, False, True]


def test_weighted_census_kill_inside_block_then_resume_bit_identical(tmp_path):
    """A kill at a rank inside an evaluated block loses that block's
    work; the resume restarts from the last record and matches the
    uninterrupted weighted census exactly."""
    game = BoundedBudgetGame([1] * 5)
    weights = (1, 2, 3, 4, 5)
    ref = weighted_census_scan(game, weights, collect_equilibria=True)
    opts = dict(_RUNTIME_OPTS, checkpoint_interval=100, max_retries=0)
    weighted_census_scan(
        game,
        weights,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        fault_plan=FaultPlan(faults=(Fault(kind="kill", shard_id=0, rank=150),)),
        runtime_opts=opts,
    )
    assert en.LAST_CENSUS_RUNTIME_STATS["missing"] == [[0, 100, 1024]]
    records = replay_journal(shard_journal_path(tmp_path, 0)).records
    assert [r.next_rank for r in records] == [100]
    healed = weighted_census_scan(
        game,
        weights,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        resume=True,
        runtime_opts=opts,
    )
    assert healed == ref
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_resumed"] == 1


def test_census_quarantine_degrades_then_resume_heals(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    ref = _unit_ref(game, "max")
    poison = FaultPlan(
        faults=tuple(
            Fault(kind="kill", shard_id=0, rank=96, attempt=a)
            for a in range(6)
        )
    )
    partial = census_scan(
        game,
        "max",
        workers=2,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        shard_count=4,
        fault_plan=poison,
        runtime_opts=dict(_RUNTIME_OPTS, max_retries=2),
    )
    # Degraded, not wedged: an explicit manifest of the uncovered ranks.
    assert partial.incomplete is not None
    assert partial.incomplete.total == 1024
    assert partial.incomplete.covered < 1024
    (missing,) = partial.incomplete.missing
    assert missing[0] == 0 and missing[2] == 256
    assert en.LAST_CENSUS_RUNTIME_STATS["quarantined"] == 1
    # Resuming without the poison heals to the exact reference.
    healed = census_scan(
        game,
        "max",
        workers=2,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        resume=True,
        runtime_opts=_RUNTIME_OPTS,
    )
    assert healed.report == ref.report
    assert healed.equilibria == ref.equilibria
    assert healed.incomplete is None
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_resumed"] == 1
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_skipped_done"] == 3


def test_census_resume_manifest_mismatch_rejected(tmp_path):
    game = BoundedBudgetGame([1, 1, 1, 1])
    census_scan(
        game, "max", workers=2, checkpoint_dir=tmp_path, shard_count=2
    )
    with pytest.raises(CheckpointError):
        census_scan(
            game,
            "max",
            workers=2,
            collect_equilibria=True,  # differs from the journaled run
            checkpoint_dir=tmp_path,
            resume=True,
        )


def test_census_checkpoint_kwargs_validation(tmp_path):
    game = BoundedBudgetGame([1, 1, 1])
    with pytest.raises(GameError):
        census_scan(game, "max", resume=True)
    with pytest.raises(GameError):
        census_scan(game, "max", fault_plan=FaultPlan())
    with pytest.raises(GameError):
        census_scan(game, "max", shard_count=2)


def test_census_cross_process_kill_and_resume(tmp_path):
    """SIGKILL a whole checkpointed run mid-flight; resume it in a
    fresh process and recover the bit-identical census."""
    child_code = textwrap.dedent(
        f"""
        from repro.core import BoundedBudgetGame, census_scan
        from repro.parallel import Fault, FaultPlan
        plan = FaultPlan(faults=tuple(
            Fault(kind="stall", shard_id=s, rank=r, attempt=a)
            for s, r in ((0, 120), (2, 580)) for a in range(4)
        ), stall_seconds=600.0)
        census_scan(BoundedBudgetGame([1]*5), "max", workers=2,
                    checkpoint_dir={str(tmp_path)!r}, shard_count=4,
                    fault_plan=plan, collect_equilibria=True,
                    runtime_opts={{"checkpoint_interval": 16,
                                   "heartbeat_timeout": 600.0}})
        """
    )
    # start_new_session + killpg takes the stalled workers down with the
    # parent — a clean SIGKILL of the entire process tree.
    proc = subprocess.Popen(
        [sys.executable, "-c", child_code],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        time.sleep(7)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert os.path.exists(os.path.join(tmp_path, "MANIFEST.json"))

    game = BoundedBudgetGame([1] * 5)
    ref = _unit_ref(game, "max")
    res = census_scan(
        game,
        "max",
        workers=2,
        collect_equilibria=True,
        checkpoint_dir=tmp_path,
        resume=True,
        runtime_opts=_RUNTIME_OPTS,
    )
    assert res.report == ref.report
    assert res.equilibria == ref.equilibria
    assert res.incomplete is None


# ----------------------------------------------------------------------
# Journal compatibility: records carrying the retired "warm" counter
# ----------------------------------------------------------------------
#: kind -> (scan, positional args, keyword args, checkpoint interval)
_LEGACY_SCANS = {
    "unit": (
        census_scan,
        (BoundedBudgetGame([1] * 5), "max"),
        {"collect_equilibria": True},
        32,
    ),
    "weighted": (
        weighted_census_scan,
        (BoundedBudgetGame([1, 1, 1, 1]), (5, 1, 1, 1)),
        {"collect_equilibria": True},
        4,
    ),
    "sampled": (
        sampled_census_scan,
        (BoundedBudgetGame([1] * 5), "sum"),
        {"samples": 90, "seed": 3, "method": "stratified"},
        4,
    ),
}


@pytest.mark.parametrize("kind", sorted(_LEGACY_SCANS))
def test_resume_accepts_journals_with_legacy_warm_counter(tmp_path, kind):
    """Journals written while shards still counted pool warm starts
    carry a ``"warm"`` counter; resuming from them must stay bit-
    identical (both a mid-shard resume and a replayed done record)."""
    from dataclasses import replace

    scan, args, kwargs, interval = _LEGACY_SCANS[kind]
    ref = scan(*args, **kwargs)
    opts = dict(_RUNTIME_OPTS, checkpoint_interval=interval)
    scan(*args, checkpoint_dir=tmp_path, shard_count=3, runtime_opts=opts, **kwargs)
    for shard_id, keep in ((0, 2), (1, None), (2, 1)):
        path = shard_journal_path(tmp_path, shard_id)
        records = replay_journal(path).records
        assert len(records) > 2 and records[-1].done
        path.unlink()
        for rec in records[:keep]:
            append_record(path, replace(rec, counters={**rec.counters, "warm": 1}))
    assert all(
        "warm" in rec.counters
        for shard_id in range(3)
        for rec in replay_journal(shard_journal_path(tmp_path, shard_id)).records
    )
    got = scan(
        *args, checkpoint_dir=tmp_path, resume=True, runtime_opts=opts, **kwargs
    )
    assert got == ref
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_resumed"] == 2
    assert en.LAST_CENSUS_RUNTIME_STATS["shards_skipped_done"] == 1


# ----------------------------------------------------------------------
# Shutdown event drain (regression): events queued at teardown apply
# ----------------------------------------------------------------------
def _slow_finish_shard(payload, ctx=None):
    """Heartbeats, then deliberately outlives the runtime deadline."""
    lo, hi, _ = payload
    if ctx is not None:
        ctx.tick(lo)
    time.sleep(0.6)
    total = sum(r * r for r in range(lo, hi))
    if ctx is not None:
        ctx.checkpoint(
            lo=lo, hi=hi, next_rank=hi, counters={"total": total}, done=True
        )
    return {"lo": lo, "total": total}


def test_drain_pending_events_applies_backlog():
    from queue import Empty

    from repro.parallel.runtime import _drain_pending_events

    class _FakeQueue:
        def __init__(self, items):
            self.items = list(items)

        def get_nowait(self):
            if not self.items:
                raise Empty
            return self.items.pop(0)

    seen = []
    q = _FakeQueue([("hb", 0, 0, None), ("done", 0, 1, {"total": 1})])
    assert _drain_pending_events(q, seen.append) == 2
    assert seen == [("hb", 0, 0, None), ("done", 0, 1, {"total": 1})]
    assert _drain_pending_events(q, seen.append) == 0


def test_event_pipes_drop_a_torn_pipe_and_keep_the_rest():
    # Regression: workers shared one event queue, so a worker killed
    # halfway through a send silenced every other worker for the rest
    # of the run. A torn pipe now reads as closed and only it is dropped.
    import multiprocessing as mp
    import struct
    from queue import Empty

    from repro.parallel.runtime import _EventPipes

    events = _EventPipes()
    torn_r, torn_w = mp.Pipe(duplex=False)
    ok_r, ok_w = mp.Pipe(duplex=False)
    events.add(torn_r)
    events.add(ok_r)
    # A length header promising more bytes than the dead writer sent.
    os.write(torn_w.fileno(), struct.pack("!i", 100) + b"partial")
    torn_w.close()
    ok_w.send(("hb", 1, 0, 5))
    seen = []
    with pytest.raises(Empty):
        while True:
            seen.append(events.get(timeout=0.2))
    assert seen == [("hb", 1, 0, 5)]
    assert torn_r.closed
    ok_w.send(("done", 1, 0, {"total": 1}))
    assert events.get(timeout=1.0) == ("done", 1, 0, {"total": 1})
    events.close()
    assert ok_r.closed
    ok_w.close()


def test_shutdown_drain_applies_late_done(tmp_path):
    # Regression: a "done" event emitted while the scheduler was tearing
    # down (here: forced by a deadline shorter than the shard) was
    # silently dropped — the run raised timeout despite the shard having
    # completed and journaled. The shutdown drain must apply it and
    # return a complete report instead.
    report = _run(
        tmp_path,
        payloads=[(0, 50, 0)],
        shard_fn=_slow_finish_shard,
        workers=1,
        timeout=0.25,
    )
    assert report.results() == [
        {"lo": 0, "total": sum(r * r for r in range(0, 50))}
    ]
    assert report.incomplete() == []
