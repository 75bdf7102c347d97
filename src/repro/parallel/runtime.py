"""Fault-tolerant work-stealing runtime for checkpointed shard scans.

:func:`repro.parallel.executor.parallel_map` statically partitions work
and dies with its slowest (or unluckiest) worker. This runtime replaces
that for census scans: shards live in a shared pending queue, idle
workers steal the next runnable shard, and a supervisor keeps the whole
run alive through worker deaths:

* **Checkpointed shards.** Workers periodically append engine-free
  progress records to per-shard journals
  (:mod:`repro.core.checkpoint`); every recovery decision reads *only*
  the journal, so it survives the worker, the supervisor, and the
  process tree.
* **Heartbeat supervision.** Workers emit rate-limited heartbeats from
  inside the shard loop; a shard whose worker stops heartbeating for
  ``heartbeat_timeout`` (hung, stalled, livelocked) is declared dead,
  its process killed, and the shard reclaimed — same path as an
  outright crash.
* **Reclaim + bounded exponential-backoff retry.** A reclaimed shard's
  journal is compacted (torn/corrupt tail dropped atomically), its last
  good record becomes the resume state, and the shard re-enters the
  queue after ``backoff_base * 2**(attempt-1)`` seconds (capped). The
  restart runs the shard's original payload; the resume record alone
  tells it where to continue.
* **Poison-shard quarantine.** A shard that keeps dying past
  ``max_retries`` is quarantined instead of wedging the run: its last
  checkpoint still contributes partial aggregates, and the
  :class:`RuntimeReport` names exactly which rank ranges are missing so
  the caller can degrade to an explicitly-incomplete result.

Workers are real processes (fork where available, spawn otherwise);
fault injection (:mod:`repro.parallel.faults`) kills them with
``os._exit`` mid-shard, so what the tests exercise is genuine process
death, not a mock. Results are bit-identical for any worker count,
any fault plan, and any kill/resume schedule: shard aggregates are
pure functions of the rank range, and the merge is order-independent.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty
from typing import Any, Callable, Sequence

from ..core.checkpoint import (
    ShardCheckpoint,
    append_encoded,
    compact_journal,
    encode_record,
    shard_journal_path,
)
from ..errors import CheckpointError, ReproError
from .executor import fork_available
from .faults import KILL_EXIT_CODE, FaultPlan, corrupt_frame

__all__ = ["ShardContext", "ShardOutcome", "RuntimeReport", "run_shards"]


class ShardContext:
    """Worker-side handle a checkpoint-aware shard function drives.

    The shard body calls :meth:`tick` as its walk advances (heartbeats
    + kill/stall fault triggers) and :meth:`checkpoint` at its progress
    boundaries (journal append + drop/corrupt fault triggers).
    ``resume_state`` carries the last good
    :class:`~repro.core.checkpoint.ShardCheckpoint` when this execution
    is a resume, else ``None``; ``interval`` is the requested rank
    spacing between checkpoints.
    """

    __slots__ = (
        "shard_id",
        "attempt",
        "interval",
        "resume_state",
        "_journal_path",
        "_emit",
        "_hb_interval",
        "_last_hb",
        "_kill_rank",
        "_stall_rank",
        "_stall_seconds",
        "_drop_cps",
        "_corrupt_cps",
        "_cp_index",
        "checkpoints_written",
    )

    def __init__(
        self,
        *,
        shard_id: int,
        attempt: int,
        interval: int,
        journal_path: "str | os.PathLike",
        resume_state: "ShardCheckpoint | None" = None,
        fault_plan: "FaultPlan | None" = None,
        emit_heartbeat: "Callable[[int], None] | None" = None,
        heartbeat_interval: float = 0.5,
    ) -> None:
        self.shard_id = int(shard_id)
        self.attempt = int(attempt)
        self.interval = max(1, int(interval))
        self.resume_state = resume_state
        self._journal_path = Path(journal_path)
        self._emit = emit_heartbeat
        self._hb_interval = float(heartbeat_interval)
        self._last_hb = 0.0
        self._kill_rank: "int | None" = None
        self._stall_rank: "int | None" = None
        self._stall_seconds = 30.0
        self._drop_cps: "set[int]" = set()
        self._corrupt_cps: "set[int]" = set()
        self._cp_index = 0
        self.checkpoints_written = 0
        if fault_plan is not None:
            self._stall_seconds = float(fault_plan.stall_seconds)
            for fault in fault_plan.shard_faults(self.shard_id, self.attempt):
                if fault.kind == "kill":
                    self._kill_rank = (
                        fault.rank
                        if self._kill_rank is None
                        else min(self._kill_rank, fault.rank)
                    )
                elif fault.kind == "stall":
                    self._stall_rank = (
                        fault.rank
                        if self._stall_rank is None
                        else min(self._stall_rank, fault.rank)
                    )
                elif fault.kind == "drop_checkpoint":
                    self._drop_cps.add(fault.checkpoint_index)
                else:  # corrupt_checkpoint
                    self._corrupt_cps.add(fault.checkpoint_index)

    # ------------------------------------------------------------------
    def tick(self, rank: int) -> None:
        """Advance to ``rank``: fire due faults, then maybe heartbeat."""
        if self._stall_rank is not None and rank >= self._stall_rank:
            self._stall_rank = None
            # Stop heartbeating and go dark; the supervisor's timeout
            # kills us. The sleep is a backstop for unsupervised runs.
            time.sleep(self._stall_seconds)
        if self._kill_rank is not None and rank >= self._kill_rank:
            os._exit(KILL_EXIT_CODE)  # preemption: no cleanup, no flush
        now = time.monotonic()
        if self._emit is not None and now - self._last_hb >= self._hb_interval:
            self._last_hb = now
            self._emit(rank)

    def checkpoint(
        self,
        *,
        lo: int,
        hi: int,
        next_rank: int,
        counters: "dict[str, int | None]",
        eq_profiles: "tuple | None" = None,
        orbit_vals: "tuple[int, ...] | None" = None,
        orbit_key_format: int = 2,
        done: bool = False,
    ) -> None:
        """Append one progress record (subject to injected write faults)."""
        index = self._cp_index
        self._cp_index += 1
        if index in self._drop_cps:
            return  # injected lost write
        record = ShardCheckpoint(
            shard_id=self.shard_id,
            lo=lo,
            hi=hi,
            next_rank=next_rank,
            attempt=self.attempt,
            done=done,
            counters=counters,
            eq_profiles=eq_profiles,
            orbit_vals=orbit_vals,
            orbit_key_format=orbit_key_format,
        )
        data = encode_record(record)
        if index in self._corrupt_cps:
            data = corrupt_frame(data)
        append_encoded(self._journal_path, data)
        self.checkpoints_written += 1
        if self._emit is not None:
            self._last_hb = time.monotonic()
            self._emit(next_rank)


def _worker_main(
    widx: int,
    fn: "Callable[[Any, ShardContext], dict]",
    task_q,
    event_q,
    checkpoint_dir: str,
    fault_plan: "FaultPlan | None",
    interval: int,
    heartbeat_interval: float,
) -> None:
    """Worker loop: steal a shard, run it under a context, report back."""
    try:
        while True:
            item = task_q.get()
            if item is None:
                return
            shard_id, payload, resume_state, attempt = item

            def emit(rank: int, _sid: int = shard_id) -> None:
                event_q.put(("hb", widx, _sid, rank))

            ctx = ShardContext(
                shard_id=shard_id,
                attempt=attempt,
                interval=interval,
                journal_path=shard_journal_path(checkpoint_dir, shard_id),
                resume_state=resume_state,
                fault_plan=fault_plan,
                emit_heartbeat=emit,
                heartbeat_interval=heartbeat_interval,
            )
            try:
                result = fn(payload, ctx)
            except KeyboardInterrupt:
                raise  # teardown: handled by the outer except
            except BaseException:
                # Not just Exception: a shard fn raising SystemExit (or
                # any other BaseException) must surface as an error
                # event too — otherwise the worker dies silently and the
                # shard waits out a full heartbeat-timeout reclamation.
                event_q.put(("error", widx, shard_id, traceback.format_exc()))
                continue
            event_q.put(("done", widx, shard_id, result))
    except (KeyboardInterrupt, EOFError):  # pragma: no cover - teardown races
        pass


def _drain_pending_events(event_q, handle_event) -> int:
    """Apply every event still queued; returns how many were applied.

    The shutdown half of the scheduler's drain: workers that finished a
    shard during teardown (they beat the sentinel, or raced the
    deadline) have already put their final ``done``/``error`` event on
    the queue, and closing it without this pass silently drops them —
    a completed shard would read as incomplete and a worker error would
    go uncounted. Runs strictly after the workers are joined, so
    everything a worker ever sent is either applied here or was applied
    by the main loop; ``Empty`` means genuinely empty, not in-flight.
    """
    drained = 0
    while True:
        try:
            msg = event_q.get_nowait()
        except Empty:
            return drained
        except (EOFError, OSError):  # pragma: no cover - torn queue write
            return drained
        handle_event(msg)
        drained += 1


# Shard lifecycle states.
_PENDING, _RUNNING, _DONE, _QUARANTINED = "pending", "running", "done", "quarantined"


@dataclass
class _ShardState:
    shard_id: int
    payload: Any
    status: str = _PENDING
    attempts: int = 0
    resumed: bool = False
    resume_record: "ShardCheckpoint | None" = None
    result: "dict | None" = None
    ready_at: float = 0.0
    reasons: "list[str]" = field(default_factory=list)


@dataclass(frozen=True)
class ShardOutcome:
    """Terminal state of one shard after the run."""

    shard_id: int
    result: "dict | None"
    attempts: int
    resumed: bool
    quarantined: bool
    last_record: "ShardCheckpoint | None"
    reasons: "tuple[str, ...]" = ()


@dataclass(frozen=True)
class RuntimeReport:
    """Everything the caller needs to merge (or explain) a run.

    ``outcomes`` are in shard order. ``incomplete()`` lists the rank
    ranges quarantined shards never covered — the raw material of an
    incompleteness manifest.
    """

    outcomes: "tuple[ShardOutcome, ...]"
    stats: "dict[str, int]"

    def results(self) -> "list[dict]":
        """Results of every completed shard, in shard order."""
        return [o.result for o in self.outcomes if o.result is not None]

    def incomplete(self) -> "list[tuple[int, int, int]]":
        """``(shard_id, first_missing_rank, hi)`` per quarantined shard."""
        out = []
        for o in self.outcomes:
            if not o.quarantined:
                continue
            rec = o.last_record
            if rec is not None:
                out.append((o.shard_id, rec.next_rank, rec.hi))
        return out


def run_shards(
    fn: "Callable[[Any, ShardContext], dict]",
    payloads: "Sequence[Any]",
    *,
    checkpoint_dir: "str | os.PathLike",
    workers: int = 2,
    resume: bool = False,
    checkpoint_interval: int = 512,
    heartbeat_timeout: float = 5.0,
    heartbeat_interval: "float | None" = None,
    poll_interval: float = 0.02,
    max_retries: int = 3,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    fault_plan: "FaultPlan | None" = None,
    result_from_record: "Callable[[ShardCheckpoint], dict] | None" = None,
    timeout: "float | None" = None,
) -> RuntimeReport:
    """Run every shard to completion (or quarantine) under supervision.

    ``fn(payload, ctx)`` must be a module-level callable that drives
    ``ctx`` (tick + checkpoint) and returns an order-independently
    mergeable dict. ``resume=True`` replays existing journals first:
    shards whose last record is ``done`` are not re-executed (their
    result is rebuilt by ``result_from_record``), partially-complete
    shards restart from their last good record. A fresh run
    (``resume=False``) deletes stale journals so old records can never
    leak into a new decomposition.

    ``timeout`` bounds the whole run (wall clock); on expiry remaining
    workers are killed and a :class:`~repro.errors.CheckpointError` is
    raised — the journals remain valid for a later ``resume=True``.
    Final events already in flight at shutdown are drained before the
    event queue closes, so a shard whose ``done`` merely raced the
    deadline still counts (the run then returns normally) and worker
    errors emitted during teardown are never silently dropped.
    """
    import multiprocessing as mp

    if workers < 1:
        raise ReproError(f"worker count must be positive, got {workers}")
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    hb_interval = (
        heartbeat_interval
        if heartbeat_interval is not None
        else max(0.01, heartbeat_timeout / 5.0)
    )
    stats = {
        "workers_spawned": 0,
        "crashes": 0,
        "stalls": 0,
        "worker_errors": 0,
        "retries": 0,
        "quarantined": 0,
        "shards_resumed": 0,
        "shards_skipped_done": 0,
    }

    shards: "list[_ShardState]" = [
        _ShardState(shard_id=i, payload=p)
        for i, p in enumerate(payloads)
    ]
    for s in shards:
        journal = shard_journal_path(directory, s.shard_id)
        if not resume:
            journal.unlink(missing_ok=True)
            continue
        record = compact_journal(journal).last
        if record is None:
            continue
        if record.done:
            if result_from_record is None:
                raise CheckpointError(
                    "resume found a completed shard but no result_from_record "
                    "hook to rebuild its result"
                )
            s.result = result_from_record(record)
            s.resume_record = record
            s.status = _DONE
            stats["shards_skipped_done"] += 1
        else:
            s.resume_record = record
            s.resumed = True
            stats["shards_resumed"] += 1

    ctx_mp = mp.get_context("fork" if fork_available() else "spawn")
    event_q = ctx_mp.Queue()
    live: "dict[int, dict]" = {}  # widx -> {proc, q, shard, last_hb}
    next_widx = 0
    deadline = None if timeout is None else time.monotonic() + timeout

    def incomplete_count() -> int:
        return sum(1 for s in shards if s.status in (_PENDING, _RUNNING))

    def spawn_worker() -> None:
        nonlocal next_widx
        widx = next_widx
        next_widx += 1
        task_q = ctx_mp.Queue()
        proc = ctx_mp.Process(
            target=_worker_main,
            args=(
                widx,
                fn,
                task_q,
                event_q,
                str(directory),
                fault_plan,
                checkpoint_interval,
                hb_interval,
            ),
            daemon=True,
        )
        proc.start()
        live[widx] = {"proc": proc, "q": task_q, "shard": None, "last_hb": time.monotonic()}
        stats["workers_spawned"] += 1

    def reclaim(s: _ShardState, reason: str) -> None:
        """Dead/stalled/errored execution: journal -> retry or quarantine."""
        s.attempts += 1
        s.reasons.append(reason)
        record = compact_journal(shard_journal_path(directory, s.shard_id)).last
        s.resume_record = record
        if record is not None and record.done:
            # Died after its final checkpoint but before reporting.
            if result_from_record is not None:
                s.result = result_from_record(record)
                s.status = _DONE
                return
        if s.attempts > max_retries:
            s.status = _QUARANTINED
            stats["quarantined"] += 1
            return
        stats["retries"] += 1
        if record is not None:
            s.resumed = True
        s.status = _PENDING
        backoff = min(backoff_cap, backoff_base * (2.0 ** (s.attempts - 1)))
        s.ready_at = time.monotonic() + backoff

    def kill_worker(widx: int) -> None:
        info = live.pop(widx, None)
        if info is None:
            return
        proc = info["proc"]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        info["q"].close()

    def handle_event(msg) -> None:
        kind, widx, shard_id, body = msg
        info = live.get(widx)
        if info is not None:
            info["last_hb"] = time.monotonic()
        if kind == "hb":
            return
        s = shards[shard_id]
        if info is not None and info["shard"] == shard_id:
            info["shard"] = None
        if kind == "done":
            # A stall-kill can race completion; the first result wins
            # (all executions of a shard produce identical results).
            if s.status != _DONE:
                s.result = body
                s.status = _DONE
        elif kind == "error":
            stats["worker_errors"] += 1
            if s.status == _RUNNING:
                reclaim(s, f"worker error: {body.strip().splitlines()[-1]}")

    timed_out = False
    try:
        target_workers = max(1, min(workers, len(shards)))
        while incomplete_count() > 0:
            if deadline is not None and time.monotonic() > deadline:
                # Don't raise yet: the shutdown drain below may apply a
                # final "done" that was already in flight, in which case
                # the run actually completed and the report is valid.
                timed_out = True
                break
            while len(live) < min(target_workers, incomplete_count()):
                spawn_worker()
            # Dispatch: idle workers steal the next runnable shard.
            now = time.monotonic()
            idle = [w for w, info in live.items() if info["shard"] is None]
            runnable = [
                s for s in shards if s.status == _PENDING and s.ready_at <= now
            ]
            for widx, s in zip(idle, runnable):
                info = live[widx]
                info["shard"] = s.shard_id
                info["last_hb"] = now
                s.status = _RUNNING
                info["q"].put(
                    (s.shard_id, s.payload, s.resume_record, s.attempts)
                )
            # Drain events.
            try:
                handle_event(event_q.get(timeout=poll_interval))
                while True:
                    handle_event(event_q.get_nowait())
            except Empty:
                pass
            except (EOFError, OSError):  # pragma: no cover - torn queue write
                pass
            # Supervise: crashed or stalled workers lose their shard.
            now = time.monotonic()
            for widx in list(live):
                info = live[widx]
                shard_id = info["shard"]
                if not info["proc"].is_alive():
                    kill_worker(widx)
                    if shard_id is not None and shards[shard_id].status == _RUNNING:
                        stats["crashes"] += 1
                        code = info["proc"].exitcode
                        reclaim(shards[shard_id], f"worker died (exit {code})")
                elif (
                    shard_id is not None
                    and now - info["last_hb"] > heartbeat_timeout
                ):
                    kill_worker(widx)
                    if shards[shard_id].status == _RUNNING:
                        stats["stalls"] += 1
                        reclaim(shards[shard_id], "heartbeat timeout")
    finally:
        for widx, info in list(live.items()):
            try:
                info["q"].put_nowait(None)
            except Exception:  # pragma: no cover - full/closed queue
                pass
        for widx, info in list(live.items()):
            info["proc"].join(timeout=2.0)
            if info["proc"].is_alive():
                info["proc"].kill()
                info["proc"].join(timeout=5.0)
            info["q"].close()
        # Workers are joined (or killed): whatever they managed to send
        # is fully flushed into the queue. Apply it before closing —
        # a "done"/"error" event racing the scheduler's exit used to be
        # silently lost here (undercounted worker_errors; a shard that
        # completed during teardown read as incomplete).
        _drain_pending_events(event_q, handle_event)
        event_q.close()
        event_q.join_thread()
    if timed_out and incomplete_count() > 0:
        raise CheckpointError(
            f"runtime exceeded its {timeout:.1f}s budget with "
            f"{incomplete_count()} shard(s) incomplete; journals are "
            f"intact — rerun with resume=True"
        )

    outcomes = tuple(
        ShardOutcome(
            shard_id=s.shard_id,
            result=s.result,
            attempts=s.attempts,
            resumed=s.resumed,
            quarantined=s.status == _QUARANTINED,
            last_record=s.resume_record,
            reasons=tuple(s.reasons),
        )
        for s in shards
    )
    return RuntimeReport(outcomes=outcomes, stats=stats)
