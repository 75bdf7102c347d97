"""Tests for the async batched query server (:mod:`repro.serve`).

The contract under test throughout is *bit-identity*: every served
answer — including disconnected-pair ``Cinf`` sentinels and exact
PoA fractions — must equal the corresponding direct library call on
the same instance, regardless of batching, concurrency, or how the
instance's distance cache was cold-started.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.poa import optimal_diameter_bounds, poa_interval
from repro.analysis.weighted import WeightedRealization, weighted_swap_check
from repro.cli import build_construction, main
from repro.core import DistanceCache, social_cost
from repro.core.best_response import exact_best_response
from repro.core.costs import Version
from repro.core.deviations import deviation_improves
from repro.graphs.digraph import OwnedDigraph
from repro.graphs.distances import cinf
from repro.serve import (
    InstanceRegistry,
    ProtocolError,
    QueryServer,
    error_response,
    fraction_str,
    ok_response,
    parse_request,
)


# ----------------------------------------------------------------------
# Helpers: run a server + client conversation inside asyncio.run
# ----------------------------------------------------------------------
async def _rpc(reader, writer, requests):
    """Send request dicts as NDJSON, collect responses keyed by id."""
    writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
    await writer.drain()
    got = {}
    for _ in requests:
        line = await asyncio.wait_for(reader.readline(), 60)
        resp = json.loads(line)
        got[resp["id"]] = resp
    return got


def _serve(registry_or_graphs, conversation, **server_kwargs):
    """Boot a TCP server, run ``conversation(reader, writer)``, tear down."""
    async def run():
        if isinstance(registry_or_graphs, InstanceRegistry):
            registry = registry_or_graphs
        else:
            registry = InstanceRegistry.from_graphs(registry_or_graphs)
        server = QueryServer(registry, **server_kwargs)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            return await conversation(reader, writer)
        finally:
            writer.close()
            await server.stop()

    return asyncio.run(run())


def _fig1():
    return build_construction("fig1")


# ----------------------------------------------------------------------
# Protocol parsing
# ----------------------------------------------------------------------
def test_parse_request_roundtrip():
    req = parse_request('{"id": 3, "op": "distance", "u": 1, "v": 2, "version": "max"}')
    assert req.id == 3 and req.op == "distance" and req.version == "max"
    assert req.params == {"u": 1, "v": 2}
    assert req.instance is None


@pytest.mark.parametrize(
    "line, code",
    [
        ("not json at all", "bad-json"),
        ("[1, 2]", "bad-request"),
        ('{"id": 1}', "bad-request"),
        ('{"op": 7}', "bad-request"),
        ('{"op": "frobnicate"}', "unknown-op"),
        ('{"op": "ping", "instance": 3}', "bad-request"),
        ('{"op": "ping", "version": 3}', "bad-request"),
    ],
)
def test_parse_request_rejects(line, code):
    with pytest.raises(ProtocolError) as exc:
        parse_request(line)
    assert exc.value.code == code


def test_response_envelopes():
    ok = ok_response(5, {"x": 1}, {"batch_size": 2})
    assert ok == {"id": 5, "ok": True, "result": {"x": 1}, "meta": {"batch_size": 2}}
    err = error_response(None, "bad-request", "nope")
    assert err["ok"] is False and err["error"]["code"] == "bad-request"


# ----------------------------------------------------------------------
# Bit-identity of every query op under concurrency
# ----------------------------------------------------------------------
def test_concurrent_mixed_queries_bit_identical():
    g = _fig1()
    owner = int(np.argmax(g.out_degrees()))
    nbrs = [int(x) for x in g.out_neighbors(owner)]
    drop = nbrs[0]
    add = next(x for x in range(g.n) if x != owner and x not in nbrs)
    rng = np.random.default_rng(7)
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, g.n, size=(8, 2))]

    async def conversation(reader, writer):
        reqs = [
            {"id": f"d{i}", "op": "distance", "u": u, "v": v}
            for i, (u, v) in enumerate(pairs)
        ]
        reqs += [
            {"id": f"w{i}", "op": "distance", "u": u, "v": v, "weighted": True}
            for i, (u, v) in enumerate(pairs[:4])
        ]
        reqs += [
            {"id": "sc", "op": "social_cost"},
            {"id": "br", "op": "best_response", "u": 2},
            {"id": "brmax", "op": "best_response", "u": 2, "version": "max"},
            {"id": "dev", "op": "deviation", "u": owner, "strategy": [drop]},
            {"id": "swap", "op": "weighted_swap", "u": owner, "drop": drop, "add": add},
            {"id": "poa", "op": "poa", "worst_diameter": 6},
        ]
        return await _rpc(reader, writer, reqs)

    got = _serve({"fig1": g}, conversation, window=0.05)

    cache = DistanceCache(g, rows="lazy")
    for i, (u, v) in enumerate(pairs):
        assert got[f"d{i}"]["result"]["distance"] == cache.query(u, v)
    for i, (u, v) in enumerate(pairs[:4]):
        assert got[f"w{i}"]["result"]["distance"] == cache.query(u, v)
    assert got["sc"]["result"]["social_cost"] == social_cost(g)
    for rid, version in (("br", "sum"), ("brmax", "max")):
        direct = exact_best_response(g, 2, Version.coerce(version))
        served = got[rid]["result"]
        assert served["cost"] == direct.cost
        assert served["current_cost"] == direct.current_cost
        assert served["strategy"] == [int(x) for x in direct.strategy]
        assert served["evaluated"] == direct.evaluated
        assert served["exact"] == direct.exact
    assert got["dev"]["result"]["improves"] == deviation_improves(
        g, owner, [drop], Version.coerce("sum")
    )
    wr = WeightedRealization.unit(g)
    assert got["swap"]["result"]["improves"] == weighted_swap_check(
        wr, owner, drop, add
    )
    budgets = [int(d) for d in g.out_degrees()]
    lo, hi = poa_interval(6, budgets)
    bounds = optimal_diameter_bounds(budgets)
    assert got["poa"]["result"]["interval"] == [fraction_str(lo), fraction_str(hi)]
    assert got["poa"]["result"]["diameter_bounds"] == {
        "lower": bounds.lower,
        "upper": bounds.upper,
    }
    # Every query response carries the observability envelope.
    meta = got["d0"]["meta"]
    assert {"queue_wait_ms", "batch_size", "settled_fraction", "engine_mode"} <= set(meta)
    assert meta["batch_size"] >= 2


def test_disconnected_pair_serves_cinf_sentinel():
    # Vertex 3 is isolated: the served distance must be the exact Cinf
    # sentinel the direct library call returns, not an approximation.
    g = OwnedDigraph.from_strategies([[1], [2], [0], []])

    async def conversation(reader, writer):
        return await _rpc(
            reader,
            writer,
            [
                {"id": 1, "op": "distance", "u": 0, "v": 3},
                {"id": 2, "op": "distance", "u": 3, "v": 1},
                {"id": 3, "op": "distance", "u": 0, "v": 2},
            ],
        )

    got = _serve({"ring+iso": g}, conversation, window=0.05)
    cache = DistanceCache(g, rows="lazy")
    assert got[1]["result"]["distance"] == cache.query(0, 3) == cinf(g.n)
    assert got[2]["result"]["distance"] == cache.query(3, 1) == cinf(g.n)
    assert got[3]["result"]["distance"] == cache.query(0, 2)


# ----------------------------------------------------------------------
# Micro-batching: concurrent same-instance requests share one sweep
# ----------------------------------------------------------------------
def test_concurrent_requests_coalesce_into_one_sweep():
    g = _fig1()

    async def conversation(reader, writer):
        reqs = [
            {"id": i, "op": "distance", "u": i % g.n, "v": (3 * i + 1) % g.n}
            for i in range(6)
        ]
        answers = await _rpc(reader, writer, reqs)
        stats = (await _rpc(reader, writer, [{"id": "s", "op": "stats"}]))["s"]
        return answers, stats["result"]["dispatcher"]

    answers, stats = _serve({"fig1": g}, conversation, window=0.1)
    cache = DistanceCache(g, rows="lazy")
    for i in range(6):
        assert answers[i]["result"]["distance"] == cache.query(i % g.n, (3 * i + 1) % g.n)
    # All six arrived inside the window: one batch, one batched sweep.
    assert stats["max_batch"] >= 2
    assert stats["batched_requests"] >= 2
    assert stats["sweeps"] >= 1
    assert stats["requests"] == 6
    assert stats["errors"] == 0
    assert stats["instances"]["fig1"]["sweeps"] == stats["sweeps"]


def test_sequential_requests_still_bit_identical():
    g = _fig1()

    async def conversation(reader, writer):
        got = {}
        for i in range(4):
            got.update(
                await _rpc(
                    reader, writer, [{"id": i, "op": "distance", "u": 0, "v": 5 + i}]
                )
            )
        return got

    got = _serve({"fig1": g}, conversation, window=0.001)
    cache = DistanceCache(g, rows="lazy")
    for i in range(4):
        assert got[i]["result"]["distance"] == cache.query(0, 5 + i)
        assert got[i]["meta"]["batch_size"] == 1


# ----------------------------------------------------------------------
# Cold start and full-mode promotion
# ----------------------------------------------------------------------
def test_cold_start_is_lazy():
    registry = InstanceRegistry.from_graphs({"fig1": _fig1()})
    info = registry.get("fig1").info()
    assert info["engine_mode"] == "lazy"
    assert info["rebuilds"] == 0
    assert "source" not in info


def test_served_instance_graph_is_frozen():
    """A served instance never changes: its graph is frozen, and the
    weighted lane's unit-weight realization shares that graph."""
    from repro.errors import GraphError

    inst = InstanceRegistry.from_graphs({"fig1": _fig1()}).get("fig1")
    arcs = list(inst.graph.arcs())
    with pytest.raises(GraphError, match="frozen"):
        inst.graph.remove_arc(*arcs[0])
    assert list(inst.graph.arcs()) == arcs
    wr = inst.weighted()
    assert wr.graph is inst.graph
    assert wr.weights.tolist() == [1] * inst.graph.n


def test_full_mode_engine_serves_batched_distances():
    """A social-cost query promotes the lazy instance to a full matrix;
    batched distances answered from it stay bit-identical."""
    g = _fig1()

    async def conversation(reader, writer):
        got = await _rpc(reader, writer, [{"id": "sc", "op": "social_cost"}])
        got.update(
            await _rpc(
                reader,
                writer,
                [
                    {"id": 1, "op": "distance", "u": 0, "v": 9},
                    {"id": 2, "op": "distance", "u": 3, "v": 17},
                    {"id": "i", "op": "instances"},
                ],
            )
        )
        return got

    got = _serve({"fig1": g}, conversation, window=0.05)
    cache = DistanceCache(g, rows="lazy")
    assert got["sc"]["result"]["social_cost"] == social_cost(g)
    assert got[1]["result"]["distance"] == cache.query(0, 9)
    assert got[2]["result"]["distance"] == cache.query(3, 17)
    (served,) = got["i"]["result"]["instances"]
    assert served["engine_mode"] == "full" and "source" not in served
    for i in (1, 2):
        assert got[i]["meta"]["engine_mode"] == "full"
        assert got[i]["meta"]["settled_fraction"] == 1.0


# ----------------------------------------------------------------------
# Control ops, errors, multi-instance routing
# ----------------------------------------------------------------------
def test_control_ops_and_error_paths():
    g = _fig1()

    async def conversation(reader, writer):
        got = await _rpc(
            reader,
            writer,
            [
                {"id": 1, "op": "ping"},
                {"id": 2, "op": "instances"},
                {"id": 3, "op": "distance", "u": 0, "v": 10**6},
                {"id": 4, "op": "distance", "u": 0},
                {"id": 5, "op": "distance", "u": 0, "v": 1, "instance": "nope"},
                {"id": 6, "op": "deviation", "u": 0, "strategy": "not-a-list"},
                {"id": 7, "op": "best_response", "u": 1, "version": "bogus"},
                {"id": 8, "op": "stats"},
            ],
        )
        writer.write(b"this is not json\n")
        await writer.drain()
        got["garbage"] = json.loads(await asyncio.wait_for(reader.readline(), 60))
        return got

    got = _serve({"fig1": g}, conversation, window=0.02)
    assert got[1]["result"] == {"pong": True, "protocol": 1}
    assert got[2]["result"]["default"] == "fig1"
    assert got[3]["ok"] is False and got[3]["error"]["code"] == "bad-request"
    assert got[4]["ok"] is False and got[4]["error"]["code"] == "bad-request"
    assert got[5]["ok"] is False and got[5]["error"]["code"] == "unknown-instance"
    assert got[6]["ok"] is False and got[6]["error"]["code"] == "bad-request"
    assert got[7]["ok"] is False and got[7]["error"]["code"] == "query-error"
    assert set(got[8]["result"]) == {"dispatcher"}
    assert got["garbage"]["ok"] is False
    assert got["garbage"]["error"]["code"] == "bad-json"
    assert got["garbage"]["id"] is None


@pytest.mark.parametrize("pieces", [1, 4])
def test_oversized_line_gets_one_error_and_connection_survives(pieces):
    """Regression: a line past the stream limit raised out of the
    connection handler, dropping the connection and every later request."""
    from repro.serve.server import MAX_LINE_BYTES

    blob = b"x" * (MAX_LINE_BYTES + 4464) + b"\n"
    ping = json.dumps({"id": 1, "op": "ping"}).encode() + b"\n"

    async def conversation(reader, writer):
        step = -(-len(blob) // pieces)
        for i in range(0, len(blob), step):
            writer.write(blob[i : i + step])
            await writer.drain()
            await asyncio.sleep(0.01)
        writer.write(ping)
        await writer.drain()
        first = [
            json.loads(await asyncio.wait_for(reader.readline(), 60))
            for _ in range(2)
        ]
        # A second ping proves nothing else was queued behind them.
        later = await _rpc(reader, writer, [{"id": 2, "op": "ping"}])
        return first, later

    first, later = _serve({"fig1": _fig1()}, conversation)
    errors = [r for r in first if not r["ok"]]
    pongs = [r for r in first if r["ok"]]
    assert len(errors) == 1 and len(pongs) == 1
    assert errors[0]["id"] is None
    assert errors[0]["error"]["code"] == "too-large"
    assert pongs[0]["id"] == 1 and pongs[0]["result"]["pong"] is True
    assert later[2]["result"]["pong"] is True


def test_in_flight_cap_pauses_reads(monkeypatch):
    """A client that pipelines past the cap gets every answer, but the
    connection never holds more than ``MAX_IN_FLIGHT`` pending requests."""
    from repro.serve import server as server_mod

    monkeypatch.setattr(server_mod, "MAX_IN_FLIGHT", 4)
    g = _fig1()
    pending = 0
    peak = 0

    async def run():
        nonlocal pending, peak
        server = QueryServer(InstanceRegistry.from_graphs({"fig1": g}), window=0.001)
        handle_line = server.handle_line

        async def counted(line):
            nonlocal pending, peak
            pending += 1
            peak = max(peak, pending)
            try:
                await asyncio.sleep(0.002)
                return await handle_line(line)
            finally:
                pending -= 1

        server.handle_line = counted
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            burst = [
                {"id": i, "op": "distance", "u": i % g.n, "v": (3 * i + 1) % g.n}
                for i in range(40)
            ]
            writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in burst))
            await writer.drain()
            lines = [await asyncio.wait_for(reader.readline(), 60) for _ in burst]
            later = await _rpc(reader, writer, [{"id": "after", "op": "ping"}])
            return [json.loads(line) for line in lines], later
        finally:
            writer.close()
            await server.stop()

    responses, later = asyncio.run(run())
    assert 1 < peak <= 4
    assert sorted(r["id"] for r in responses) == list(range(40))
    cache = DistanceCache(g, rows="lazy")
    for r in responses:
        i = r["id"]
        assert r["result"]["distance"] == cache.query(i % g.n, (3 * i + 1) % g.n)
    assert later["after"]["result"]["pong"] is True


def test_multiple_instances_route_independently():
    g1 = _fig1()
    g2 = OwnedDigraph.from_strategies([[1], [2], [3], [0]])

    async def conversation(reader, writer):
        return await _rpc(
            reader,
            writer,
            [
                {"id": 1, "op": "distance", "u": 0, "v": 9, "instance": "big"},
                {"id": 2, "op": "distance", "u": 0, "v": 2, "instance": "ring"},
                {"id": 3, "op": "social_cost", "instance": "ring"},
            ],
        )

    got = _serve({"big": g1, "ring": g2}, conversation, window=0.05)
    assert got[1]["result"]["distance"] == DistanceCache(g1, rows="lazy").query(0, 9)
    assert got[2]["result"]["distance"] == DistanceCache(g2, rows="lazy").query(0, 2)
    assert got[3]["result"]["social_cost"] == social_cost(g2)


def test_shutdown_op_stops_server():
    async def run():
        registry = InstanceRegistry.from_graphs({"fig1": _fig1()})
        server = QueryServer(registry, window=0.01)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        got = await _rpc(reader, writer, [{"id": 1, "op": "shutdown"}])
        assert got[1]["result"] == {"stopping": True}
        writer.close()
        await asyncio.wait_for(server.serve_until_shutdown(), 30)

    asyncio.run(run())


# ----------------------------------------------------------------------
# Registry spec parsing + CLI entry points
# ----------------------------------------------------------------------
def test_registry_from_specs_naming():
    registry = InstanceRegistry.from_specs(["fig1", "web=spider:3"])
    assert registry.names() == ["fig1", "web"]
    assert registry.default == "fig1"
    assert registry.get(None).name == "fig1"
    assert registry.get("web").graph.n == build_construction("spider:3").n


def test_registry_rejects_bad_specs():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        InstanceRegistry.from_specs(["fig1", "fig1"])  # duplicate name
    with pytest.raises(ExperimentError):
        InstanceRegistry.from_specs(["=fig1"])  # empty name
    with pytest.raises(ExperimentError):
        InstanceRegistry.from_specs([])


def test_cli_serve_bad_instance_exits_1(capsys):
    assert main(["serve", "--instance", "no-such-construction"]) == 1
    assert "!! serve failed" in capsys.readouterr().err
    # A construction that rejects its parameters fails the same way.
    assert main(["serve", "--instance", "spider:0"]) == 1
    assert "spider needs k >= 1" in capsys.readouterr().err


def test_cli_serve_stdio_roundtrip():
    g = _fig1()
    requests = "".join(
        json.dumps(r) + "\n"
        for r in [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "distance", "u": 0, "v": 9},
            {"id": 3, "op": "distance", "u": 3, "v": 17},
            {"id": 4, "op": "shutdown"},
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--batch-window-ms", "20"],
        input=requests,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    got = {}
    for line in proc.stdout.strip().splitlines():
        resp = json.loads(line)
        got[resp["id"]] = resp
    cache = DistanceCache(g, rows="lazy")
    assert got[1]["result"]["pong"] is True
    assert got[2]["result"]["distance"] == cache.query(0, 9)
    assert got[3]["result"]["distance"] == cache.query(3, 17)
    assert got[4]["result"] == {"stopping": True}
