"""Micro-batching dispatcher with per-instance worker affinity.

Every instance gets one asyncio collector plus one single-thread
executor (its *affinity thread*): all compute for an instance happens
on that thread, under the cache lock, so concurrent clients can never
interleave cache mutations.  The collector opens a short window on
the first queued request and drains everything that arrives inside it
into one batch; distance questions in a batch of two or more are
answered by ONE batched multi-source sweep
(:meth:`~repro.core.DistanceCache.batch_query`), everything else by
the exact direct library call — which is what makes served answers
bit-identical to local ones by construction.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.costs import Version, social_cost
from ..errors import ReproError
from .protocol import ProtocolError, Request, error_response, fraction_str, ok_response
from .registry import InstanceRegistry, ServedInstance

__all__ = ["MicroBatchDispatcher"]

_STAT_KEYS = ("requests", "batches", "batched_requests", "max_batch", "sweeps", "errors")


@dataclass
class _Pending:
    request: Request
    future: asyncio.Future
    enqueued: float


@dataclass
class _Lane:
    """Per-instance collector state: queue, collector task, affinity thread."""

    instance: ServedInstance
    queue: "asyncio.Queue[_Pending]"
    executor: ThreadPoolExecutor
    task: "asyncio.Task | None" = None
    stats: dict = field(
        default_factory=lambda: {k: 0 for k in _STAT_KEYS}
    )


def _int_param(params: dict, key: str, *, required: bool = True, default=None) -> "int | None":
    if key not in params:
        if required:
            raise ProtocolError("bad-request", f"missing required field {key!r}")
        return default
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad-request", f"field {key!r} must be an integer")
    return value


class MicroBatchDispatcher:
    """Coalesce concurrent same-instance queries into batched sweeps."""

    def __init__(
        self,
        registry: InstanceRegistry,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        default_version: str = "sum",
    ) -> None:
        self.registry = registry
        self.window = float(window)
        self.max_batch = max(1, int(max_batch))
        self.default_version = default_version
        self.stats = {k: 0 for k in _STAT_KEYS}
        self._lanes: "dict[str, _Lane]" = {}

    # -- lifecycle ----------------------------------------------------

    def _lane(self, inst: ServedInstance) -> _Lane:
        lane = self._lanes.get(inst.name)
        if lane is None:
            lane = _Lane(
                instance=inst,
                queue=asyncio.Queue(),
                executor=ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"serve-{inst.name}"
                ),
            )
            lane.task = asyncio.get_running_loop().create_task(self._collect(lane))
            self._lanes[inst.name] = lane
        return lane

    async def close(self) -> None:
        """Cancel collectors and release affinity threads."""
        for lane in self._lanes.values():
            if lane.task is not None:
                lane.task.cancel()
        for lane in self._lanes.values():
            if lane.task is not None:
                try:
                    await lane.task
                except asyncio.CancelledError:
                    pass
            lane.executor.shutdown(wait=False, cancel_futures=True)
        self._lanes.clear()

    def snapshot(self) -> dict:
        """Aggregate + per-instance counters (for the ``stats`` op)."""
        return {
            **{k: int(v) for k, v in self.stats.items()},
            "instances": {
                name: {k: int(v) for k, v in lane.stats.items()}
                for name, lane in self._lanes.items()
            },
        }

    # -- submission ---------------------------------------------------

    async def submit(self, inst: ServedInstance, request: Request) -> dict:
        """Queue one query request; resolves to its response envelope."""
        lane = self._lane(inst)
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued=time.perf_counter(),
        )
        await lane.queue.put(pending)
        return await pending.future

    async def _collect(self, lane: _Lane) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await lane.queue.get()
            batch = [first]
            deadline = loop.time() + self.window
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(lane.queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            started = time.perf_counter()
            try:
                responses = await loop.run_in_executor(
                    lane.executor, self._execute_batch, lane, batch, started
                )
            except Exception as exc:  # pragma: no cover - defensive
                responses = [
                    error_response(p.request.id, "internal-error", repr(exc))
                    for p in batch
                ]
            for pending, response in zip(batch, responses):
                if not pending.future.done():
                    pending.future.set_result(response)

    # -- execution (affinity thread) ----------------------------------

    def _execute_batch(self, lane: _Lane, batch: "list[_Pending]", started: float) -> "list[dict]":
        inst = lane.instance
        size = len(batch)
        lane.stats["requests"] += size
        lane.stats["batches"] += 1
        lane.stats["max_batch"] = max(lane.stats["max_batch"], size)
        self.stats["requests"] += size
        self.stats["batches"] += 1
        self.stats["max_batch"] = max(self.stats["max_batch"], size)
        if size >= 2:
            lane.stats["batched_requests"] += size
            self.stats["batched_requests"] += size
        results: "list[tuple[bool, dict] | None]" = [None] * size
        with inst.cache.lock:
            self._sweep_distances(lane, batch, results)
            for i, pending in enumerate(batch):
                if results[i] is None:
                    results[i] = self._execute_one(lane, inst, pending.request)
            meta_base = self._meta(inst, size)
        responses = []
        for pending, (ok, payload) in zip(batch, results):
            meta = dict(
                meta_base,
                queue_wait_ms=round((started - pending.enqueued) * 1000.0, 3),
            )
            if ok:
                responses.append(ok_response(pending.request.id, payload, meta))
            else:
                resp = error_response(pending.request.id, **payload)
                resp["meta"] = meta
                responses.append(resp)
        return responses

    def _sweep_distances(
        self,
        lane: _Lane,
        batch: "list[_Pending]",
        results: "list[tuple[bool, dict] | None]",
    ) -> None:
        """Answer >=2 distance requests with one batched sweep.

        Weighted and unweighted requests share the sweep: vertex weights
        never enter distances.
        """
        inst = lane.instance
        n = inst.graph.n
        sweep: "list[tuple[int, int, int]]" = []
        for i, pending in enumerate(batch):
            req = pending.request
            if req.op != "distance":
                continue
            try:
                u = _int_param(req.params, "u")
                v = _int_param(req.params, "v")
                if not (0 <= u < n and 0 <= v < n):
                    raise ProtocolError(
                        "bad-request", f"vertex out of range for n={n}: ({u}, {v})"
                    )
            except ProtocolError as exc:
                results[i] = (False, {"code": exc.code, "message": str(exc)})
                continue
            sweep.append((i, u, v))
        if len(sweep) < 2:
            return
        values = inst.cache.batch_query([(u, v) for _, u, v in sweep])
        lane.stats["sweeps"] += 1
        self.stats["sweeps"] += 1
        for (i, _, _), value in zip(sweep, values):
            results[i] = (True, {"distance": int(value)})

    def _execute_one(self, lane: _Lane, inst: ServedInstance, req: Request) -> "tuple[bool, dict]":
        try:
            return (True, self._dispatch_op(inst, req))
        except ProtocolError as exc:
            lane.stats["errors"] += 1
            self.stats["errors"] += 1
            return (False, {"code": exc.code, "message": str(exc)})
        except ReproError as exc:
            lane.stats["errors"] += 1
            self.stats["errors"] += 1
            return (False, {"code": "query-error", "message": str(exc)})
        except Exception as exc:  # unexpected: keep serving, surface the repr
            lane.stats["errors"] += 1
            self.stats["errors"] += 1
            return (False, {"code": "internal-error", "message": repr(exc)})

    def _version(self, req: Request) -> Version:
        return Version.coerce(req.version or self.default_version)

    def _dispatch_op(self, inst: ServedInstance, req: Request) -> dict:
        graph = inst.graph
        params = req.params
        if req.op == "distance":
            u = _int_param(params, "u")
            v = _int_param(params, "v")
            if not (0 <= u < graph.n and 0 <= v < graph.n):
                raise ProtocolError(
                    "bad-request", f"vertex out of range for n={graph.n}: ({u}, {v})"
                )
            return {"distance": int(inst.cache.query(u, v))}
        if req.op == "social_cost":
            return {"social_cost": int(social_cost(graph, engine=inst.cache.base()))}
        if req.op == "deviation":
            from ..core.deviations import deviation_improves

            u = _int_param(params, "u")
            strategy = params.get("strategy")
            if not isinstance(strategy, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in strategy
            ):
                raise ProtocolError(
                    "bad-request", "'strategy' must be a list of integers"
                )
            improves = deviation_improves(
                graph, u, strategy, self._version(req), cache=inst.cache
            )
            return {"improves": bool(improves)}
        if req.op == "best_response":
            from ..core.best_response import exact_best_response

            u = _int_param(params, "u")
            version = self._version(req)
            result = exact_best_response(
                graph, u, version, env=inst.cache.environment(u, version)
            )
            return {
                "player": int(result.player),
                "cost": int(result.cost),
                "strategy": [int(x) for x in result.strategy],
                "current_cost": int(result.current_cost),
                "evaluated": int(result.evaluated),
                "exact": bool(result.exact),
            }
        if req.op == "weighted_swap":
            from ..analysis.weighted import WeightedSwapEnvironment

            u = _int_param(params, "u")
            drop = _int_param(params, "drop")
            add = _int_param(params, "add")
            env = WeightedSwapEnvironment(
                inst.weighted(), u, engine=inst.cache.player(u)
            )
            return {"improves": bool(env.check_swap(drop, add))}
        if req.op == "poa":
            from ..analysis.poa import optimal_diameter_bounds, poa_interval

            worst = _int_param(params, "worst_diameter")
            budgets = params.get("budgets")
            if budgets is None:
                budgets = [int(d) for d in graph.out_degrees()]
            elif not isinstance(budgets, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in budgets
            ):
                raise ProtocolError("bad-request", "'budgets' must be a list of integers")
            bounds = optimal_diameter_bounds(budgets)
            lo, hi = poa_interval(worst, budgets)
            return {
                "interval": [fraction_str(lo), fraction_str(hi)],
                "diameter_bounds": {
                    "lower": int(bounds.lower),
                    "upper": int(bounds.upper),
                },
            }
        raise ProtocolError("unknown-op", f"op {req.op!r} is not a query op")

    def _meta(self, inst: ServedInstance, batch_size: int) -> dict:
        engine = inst.cache.base()
        n = max(1, inst.graph.n)
        if engine.lazy:
            mode = "lazy"
            settled = len(engine.hot_rows()) / n
        else:
            mode = "full"
            settled = 1.0
        return {
            "batch_size": batch_size,
            "engine_mode": mode,
            "settled_fraction": round(settled, 4),
        }
