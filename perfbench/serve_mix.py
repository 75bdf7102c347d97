"""serve-mix: open-loop query traffic against ``python -m repro serve``.

One generator process opens two connections (one per instance) and
sends seeded Poisson arrivals at two fixed rates, ``light`` then
``heavy``, without waiting for replies. A request's latency runs from
its *due* time to the arrival of its response, so a stall also counts
against the requests queued behind it. Request kinds follow ``MIX``
exactly within every block of 100 requests; parameters are drawn from
a seeded pool whose answers the generator computes with direct
library calls before any timing starts. A wrong, missing or
``ok: false`` answer is a failed request and counts as an infinite
latency in the percentiles.

``op_p50_ms`` is the light-rate median latency. The heavy rate sits at
about 70% of the capacity measured when this benchmark was written, where a slower
host pushes the queue toward saturation: its p50 read 6.7-16.5 ms over
ten runs, so heavy percentiles are reported without a bound.

``setup_s`` runs from launching the server until both instances have
answered a ``social_cost`` (which forces the tree's full all-pairs
build), median over ``SETUP_LAUNCHES`` launches; the last launch
serves the traffic.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
TREE_SPEC = "binary-tree:11"
NET_BUDGETS = [2] * 300 + [1] * 300 + [0] * 10
NET_SPEC = "thm2.3:" + ",".join(map(str, NET_BUDGETS))
#: requests per second of each phase, and its share of ``--seconds``
RATES = {"light": 25.0, "heavy": 85.0}
SHARES = {"light": 0.5, "heavy": 0.5}
#: kind -> requests per block of 100
MIX = {
    "distance": 40,
    "distance_w": 10,
    "deviation": 15,
    "best_response": 10,
    "weighted_swap": 10,
    "social_cost": 13,
    "poa": 2,
}
SETUP_LAUNCHES = 3
HOT_SOURCES = 32
DRAIN_S = 60.0


def _serve_args() -> "list[str]":
    return ["serve", "--port", "0", "--instance", f"tree={TREE_SPEC}", "--instance", f"net={NET_SPEC}"]


# ----------------------------------------------------------------------
# Request pool with expected answers
# ----------------------------------------------------------------------
def build_pool(seed: int) -> "dict[str, list[tuple[dict, dict]]]":
    """kind -> [(request fields, expected result)], from library calls."""
    from repro import deviation_improves, exact_best_response, social_cost
    from repro.analysis.poa import optimal_diameter_bounds, poa_interval
    from repro.analysis.weighted import WeightedRealization, weighted_swap_check
    from repro.cli import build_construction
    from repro.core import DistanceCache
    from repro.graphs.bfs import bfs_distances

    rng = random.Random(seed)
    tree = build_construction(TREE_SPEC)
    net = build_construction(NET_SPEC)
    tree_d = DistanceCache(tree, rows="lazy")
    net_d = DistanceCache(net, rows="lazy")
    pool: "dict[str, list[tuple[dict, dict]]]" = {k: [] for k in MIX}

    hot = rng.sample(range(tree.n), HOT_SOURCES)
    weights = [1.0 / (k + 1) for k in range(HOT_SOURCES)]
    for _ in range(256):
        u = rng.choices(hot, weights)[0]
        v = rng.randrange(tree.n)
        req = {"op": "distance", "instance": "tree", "u": u, "v": v}
        pool["distance"].append((req, {"distance": int(tree_d.query(u, v))}))
    for _ in range(128):
        u, v = rng.randrange(net.n), rng.randrange(net.n)
        req = {"op": "distance", "instance": "net", "u": u, "v": v, "weighted": True}
        # Unit weights: the weighted distance is the hop distance.
        pool["distance_w"].append((req, {"distance": int(net_d.query(u, v))}))

    owners = [u for u in range(net.n) if NET_BUDGETS[u] > 0]
    singles = [u for u in range(net.n) if NET_BUDGETS[u] == 1]
    wr = WeightedRealization.unit(net)
    for _ in range(64):
        u = rng.choice(owners)
        cur = sorted(int(x) for x in net.out_neighbors(u))
        others = [x for x in range(net.n) if x != u]
        strategy = sorted(rng.sample(others, len(cur)))
        version = rng.choice(("sum", "max"))
        req = {"op": "deviation", "instance": "net", "u": u, "strategy": strategy, "version": version}
        pool["deviation"].append(
            (req, {"improves": bool(deviation_improves(net, u, strategy, version))})
        )
        drop = rng.choice(cur)
        add = rng.choice([x for x in others if x not in cur])
        req = {"op": "weighted_swap", "instance": "net", "u": u, "drop": drop, "add": add}
        pool["weighted_swap"].append(
            (req, {"improves": bool(weighted_swap_check(wr, u, drop, add))})
        )
    for u in rng.sample(singles, 12):
        for version in ("sum", "max"):
            r = exact_best_response(net, u, version)
            req = {"op": "best_response", "instance": "net", "u": u, "version": version}
            pool["best_response"].append(
                (
                    req,
                    {
                        "player": int(r.player),
                        "cost": int(r.cost),
                        "strategy": [int(x) for x in r.strategy],
                        "current_cost": int(r.current_cost),
                        "evaluated": int(r.evaluated),
                        "exact": bool(r.exact),
                    },
                )
            )
    # U(tree) is a tree: a double BFS sweep gives its diameter exactly.
    csr = tree.undirected_csr()
    far = int(bfs_distances(csr, 0).argmax())
    tree_diameter = int(bfs_distances(csr, far).max())
    for name, cost in (("tree", tree_diameter), ("net", social_cost(net))):
        req = {"op": "social_cost", "instance": name}
        pool["social_cost"].append((req, {"social_cost": int(cost)}))
    bounds = optimal_diameter_bounds(NET_BUDGETS)
    for worst in (3, 4, 5):
        lo, hi = poa_interval(worst, NET_BUDGETS)
        req = {"op": "poa", "instance": "net", "worst_diameter": worst}
        expected = {
            "interval": [f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"],
            "diameter_bounds": {"lower": int(bounds.lower), "upper": int(bounds.upper)},
        }
        pool["poa"].append((req, expected))
    return pool


def schedule(rng: random.Random, pool, rate: float, seconds: float):
    """Seeded Poisson arrivals: [(due offset s, kind, request, expected)]."""
    out = []
    t = rng.expovariate(rate)
    block: "list[str]" = []
    while t < seconds:
        if not block:
            block = [k for k, share in MIX.items() for _ in range(share)]
            rng.shuffle(block)
        kind = block.pop()
        req, expected = rng.choice(pool[kind])
        out.append((t, kind, req, expected))
        t += rng.expovariate(rate)
    return out


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class Conn:
    """One NDJSON connection; responses are matched to requests by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: "dict[int, asyncio.Future]" = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            resp = json.loads(line)
            fut = self.waiting.pop(resp.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result((now, resp))
        for fut in self.waiting.values():
            if not fut.done():
                fut.set_result((math.inf, None))

    def send(self, rid: int, req: dict) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiting[rid] = fut
        self.writer.write(json.dumps(dict(req, id=rid)).encode() + b"\n")
        return fut

    async def call(self, rid: int, req: dict) -> dict:
        _, resp = await asyncio.wait_for(self.send(rid, req), DRAIN_S)
        return resp

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


class Server:
    """One launched server process plus the generator's two connections."""

    def __init__(self, proc, conns, setup_s: float) -> None:
        self.proc = proc
        self.conns = conns  # tree, net
        self.setup_s = setup_s
        self.next_id = 0

    @classmethod
    async def launch(cls, trace_out: "Path | None" = None) -> "Server":
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *_serve_args()]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out), *_serve_args()]
        t0 = time.perf_counter()
        with open(harness.OUT / "server.log", "ab") as log:
            proc = await asyncio.create_subprocess_exec(
                *cmd,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                env=harness.child_env(),
                cwd=harness.ROOT,
            )
        try:
            line = (await asyncio.wait_for(proc.stdout.readline(), DRAIN_S)).decode()
            port = int(line.rsplit(":", 1)[1])
            conns = []
            for _ in range(2):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                conns.append(Conn(reader, writer))
            server = cls(proc, conns, 0.0)
            for i, name in enumerate(("tree", "net")):
                resp = await server.conns[i].call(server.rid(), {"op": "social_cost", "instance": name})
                if not resp.get("ok"):
                    raise RuntimeError(f"warm-up social_cost on {name} failed: {resp}")
        except BaseException:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            raise
        server.setup_s = time.perf_counter() - t0
        return server

    def rid(self) -> int:
        self.next_id += 1
        return self.next_id

    def conn_for(self, req: dict) -> Conn:
        return self.conns[0 if req.get("instance") == "tree" else 1]

    async def stats(self) -> dict:
        resp = await self.conns[0].call(self.rid(), {"op": "stats"})
        return resp["result"]["dispatcher"]

    async def stop(self) -> None:
        try:
            await self.conns[0].call(self.rid(), {"op": "shutdown"})
        except (asyncio.TimeoutError, ConnectionError):
            pass
        for conn in self.conns:
            await conn.close()
        try:
            await asyncio.wait_for(self.proc.wait(), DRAIN_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self.proc.stdout is not None:
            await self.proc.stdout.read()


async def warm_up(server: Server, pool) -> "tuple[int, int]":
    """One request of every pool kind, sequentially and untimed."""
    failed = 0
    for kind, entries in pool.items():
        req, expected = entries[0]
        resp = await server.conn_for(req).call(server.rid(), req)
        failed += not (resp.get("ok") and resp.get("result") == expected)
    return len(pool), failed


async def run_phase(server: Server, arrivals) -> "list[dict]":
    """Send ``arrivals`` open-loop; per-request latency, lateness, verdict."""
    loop_start = time.perf_counter() + 0.05
    sent = []
    for offset, kind, req, expected in arrivals:
        due = loop_start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        send_t = time.perf_counter()
        fut = server.conn_for(req).send(server.rid(), req)
        sent.append((due, send_t, kind, expected, fut))
    await asyncio.wait([s[4] for s in sent], timeout=DRAIN_S)
    rows = []
    for due, send_t, kind, expected, fut in sent:
        recv, resp = fut.result() if fut.done() else (math.inf, None)
        ok = bool(resp and resp.get("ok") and resp.get("result") == expected)
        rows.append(
            {
                "kind": kind,
                "lat_ms": (recv - due) * 1e3 if ok else math.inf,
                "late_ms": (send_t - due) * 1e3,
                "ok": ok,
                "queue_wait_ms": (resp or {}).get("meta", {}).get("queue_wait_ms"),
            }
        )
    return rows


def summarise(rows) -> dict:
    lats = [r["lat_ms"] for r in rows]
    waits = [r["queue_wait_ms"] for r in rows if r["queue_wait_ms"] is not None]
    return {
        "requests": len(rows),
        "failed": sum(not r["ok"] for r in rows),
        "lat_p50_ms": harness.quantile(lats, 0.5),
        "lat_p90_ms": harness.quantile(lats, 0.9),
        "queue_wait_p50_ms": harness.quantile(waits, 0.5) if waits else 0.0,
        "queue_wait_p90_ms": harness.quantile(waits, 0.9) if waits else 0.0,
        "late_p90_ms": harness.quantile([r["late_ms"] for r in rows], 0.9),
    }


async def _traffic(server: Server, pool, phases) -> "tuple[int, int, dict]":
    """Warm-up, then each phase; returns (attempted, failed, summaries)."""
    attempted, failed = await warm_up(server, pool)
    summaries = {}
    for name, arrivals in phases.items():
        rows = await run_phase(server, arrivals)
        summaries[name] = dict(summarise(rows), rows=rows)
        attempted += len(rows)
        failed += summaries[name]["failed"]
    return attempted, failed, summaries


async def _untraced(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    pool = build_pool(seed)
    phases = {n: schedule(rng, pool, RATES[n], seconds * SHARES[n]) for n in RATES}
    setups = []
    server = None
    for _ in range(SETUP_LAUNCHES):
        if server is not None:
            await server.stop()
        server = await Server.launch()
        setups.append(server.setup_s)
    try:
        attempted, failed, summaries = await _traffic(server, pool, phases)
    finally:
        await server.stop()
    for s in summaries.values():
        del s["rows"]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": harness.median(setups),
            "op_p50_ms": summaries["light"]["lat_p50_ms"],
        },
        "notes": {"rates": RATES, "phases": summaries, "setup_s": setups},
    }


async def _traced(seed: int, seconds: float) -> dict:
    """Untraced light phase, then light + heavy against a traced server."""
    rng = random.Random(seed)
    pool = build_pool(seed)
    plain_phase = {"light": schedule(rng, pool, RATES["light"], seconds * 0.25)}
    phases = {
        "light": schedule(rng, pool, RATES["light"], seconds * 0.3),
        "heavy": schedule(rng, pool, RATES["heavy"], seconds * 0.45),
    }
    server = await Server.launch()
    try:
        attempted, failed, plain = await _traffic(server, pool, plain_phase)
    finally:
        await server.stop()
    trace_out = harness.OUT / f"serve-trace-{seed}.json"
    trace_out.unlink(missing_ok=True)
    server = await Server.launch(trace_out)
    try:
        before = await server.stats()
        a, f, summaries = await _traffic(server, pool, phases)
        after = await server.stats()
    finally:
        await server.stop()
    attempted += a
    failed += f
    server_trace = json.loads(trace_out.read_text())
    delta = {k: after[k] - before[k] for k in ("requests", "batches", "batched_requests", "sweeps")}
    rows = summaries["light"]["rows"] + summaries["heavy"]["rows"]
    metrics = {
        "trace.overhead_ratio": summaries["light"]["lat_p50_ms"] / plain["light"]["lat_p50_ms"],
        "serve.batch_size_mean": delta["requests"] / max(1, delta["batches"]),
        "serve.sweeps": delta["sweeps"],
        "serve.batched_frac": delta["batched_requests"] / max(1, delta["requests"]),
        "client.late_p90_ms": harness.quantile([r["late_ms"] for r in rows], 0.9),
        "query.batched_ms": (
            harness.quantile(server_trace["batched_ms"], 0.5) if server_trace["batched_ms"] else 0.0
        ),
        "poa.interval_ms": server_trace["poa_ms_per_request"],
    }
    for name in ("light", "heavy"):
        for key in ("lat_p50_ms", "lat_p90_ms", "queue_wait_p50_ms", "queue_wait_p90_ms"):
            metrics[f"serve.{name}.{key}"] = summaries[name][key]
    for kind in MIX:
        lats = [r["lat_ms"] for r in rows if r["kind"] == kind]
        metrics[f"op.{kind}.lat_p50_ms"] = harness.quantile(lats, 0.5) if lats else 0.0
    for s in summaries.values():
        del s["rows"]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "absent": server_trace["absent_metrics"],
        "notes": {"rates": RATES, "phases": summaries, "server_trace": {
            k: v for k, v in server_trace.items() if k != "batched_ms"}},
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    out = asyncio.run((_traced if trace else _untraced)(seed, seconds))
    out["metrics"]["peak_rss_mb"] = harness.peak_rss_mb()
    return out
