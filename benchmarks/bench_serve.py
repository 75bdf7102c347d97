"""Equilibrium query service: batched sweeps vs sequential point queries.

Two claims, each asserted (not just timed):

* **Coalesced distance queries beat sequential point queries.** At
  n = 256, answering a burst of pair queries through
  ``DistanceCache.batch_query`` (one multi-source sweep over the
  distinct endpoints) must outrun the same burst issued one
  ``query()`` at a time against an equally cold cache. Answers are
  bit-identical by assertion.
* **The served path is the library path.** A live ``QueryServer``
  answering a concurrent burst returns bit-identical distances and
  social cost, and its dispatcher stats prove the burst rode one
  batch (``max_batch >= 2``) with at least one batched sweep.

Timings land in ``.bench_out/BENCH_serve.json`` (see ``conftest.py``);
the tracked ``BENCH_serve.json`` at the repo root is the baseline.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.core import DistanceCache, social_cost
from repro.graphs import OwnedDigraph
from repro.serve import InstanceRegistry, QueryServer

#: Wall-clock comparisons are meaningful on a quiet machine; on shared
#: CI runners a noisy neighbour can invert margins with no code defect,
#: so the timing asserts are advisory there (correctness always runs).
_STRICT_TIMING = not os.environ.get("CI")

BENCH_NAME = "serve"

_N = 256


def _sparse_graph(n: int, extra_edges: int, seed: int) -> OwnedDigraph:
    """Random recursive tree plus a few chords — the sparse census shape."""
    rng = np.random.default_rng(seed)
    g = OwnedDigraph(n)
    for v in range(1, n):
        g.add_arc(int(rng.integers(v)), v)
    added = 0
    while added < extra_edges:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or g.has_arc(a, b) or g.has_arc(b, a):
            continue
        g.add_arc(a, b)
        added += 1
    return g


def _burst_pairs(n: int, sources: int, count: int, seed: int) -> "list[tuple[int, int]]":
    """A burst with few distinct sources — the coalescing sweet spot."""
    rng = np.random.default_rng(seed)
    srcs = rng.choice(n, size=sources, replace=False)
    return [
        (int(srcs[i % sources]), int(rng.integers(n))) for i in range(count)
    ]


# ----------------------------------------------------------------------
# Batched multi-source sweep vs sequential point queries
# ----------------------------------------------------------------------
def test_batched_beats_sequential_point_queries(bench_record):
    g = _sparse_graph(_N, extra_edges=2 * _N, seed=5)
    pairs = _burst_pairs(_N, sources=8, count=64, seed=9)

    # Untimed warmup pays one-time lazy imports outside timed sections.
    np.unique(np.arange(2))
    small = _sparse_graph(16, extra_edges=8, seed=1)
    DistanceCache(small, rows="lazy").batch_query([(0, 1), (2, 3)])
    DistanceCache(small, rows="lazy").query(0, 1)

    t0 = time.perf_counter()
    seq_cache = DistanceCache(g, rows="lazy")
    sequential = np.asarray([seq_cache.query(u, v) for u, v in pairs])
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = DistanceCache(g, rows="lazy").batch_query(pairs)
    batch_s = time.perf_counter() - t0

    assert np.array_equal(batched, sequential)  # bit-identity, always
    speedup = seq_s / max(batch_s, 1e-9)
    bench_record(
        "batched_vs_sequential_n256",
        {
            "n": _N,
            "queries": len(pairs),
            "distinct_sources": 8,
            "sequential_s": seq_s,
            "batched_s": batch_s,
            "sequential_qps": len(pairs) / max(seq_s, 1e-9),
            "batched_qps": len(pairs) / max(batch_s, 1e-9),
            "speedup": speedup,
        },
    )
    if _STRICT_TIMING:
        assert speedup >= 1.5, (
            f"batched sweep speedup {speedup:.2f}x < 1.5x "
            f"(sequential {seq_s * 1e3:.1f}ms vs batched {batch_s * 1e3:.1f}ms)"
        )


# ----------------------------------------------------------------------
# Live server: concurrent burst, one batch, bit-identical answers
# ----------------------------------------------------------------------
def test_served_burst_batches_and_matches_library(bench_record):
    g = _sparse_graph(_N, extra_edges=2 * _N, seed=5)
    pairs = _burst_pairs(_N, sources=8, count=32, seed=17)

    async def run():
        registry = InstanceRegistry.from_graphs({"bench": g})
        server = QueryServer(registry, window=0.05, max_batch=128)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            reqs = [
                {"id": i, "op": "distance", "u": u, "v": v}
                for i, (u, v) in enumerate(pairs)
            ] + [{"id": "sc", "op": "social_cost"}]
            t0 = time.perf_counter()
            writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in reqs))
            await writer.drain()
            got = {}
            for _ in reqs:
                resp = json.loads(await asyncio.wait_for(reader.readline(), 120))
                got[resp["id"]] = resp
            elapsed = time.perf_counter() - t0
            stats_resp = None
            writer.write(json.dumps({"id": "s", "op": "stats"}).encode() + b"\n")
            await writer.drain()
            stats_resp = json.loads(await asyncio.wait_for(reader.readline(), 120))
            return got, stats_resp["result"]["dispatcher"], elapsed
        finally:
            writer.close()
            await server.stop()

    got, stats, elapsed = asyncio.run(run())
    cache = DistanceCache(g, rows="lazy")
    for i, (u, v) in enumerate(pairs):
        assert got[i]["result"]["distance"] == cache.query(u, v)
    assert got["sc"]["result"]["social_cost"] == social_cost(g)
    # The burst must actually have coalesced: these assert on any machine.
    assert stats["max_batch"] >= 2
    assert stats["sweeps"] >= 1
    assert stats["batched_requests"] >= 2
    waits = [got[i]["meta"]["queue_wait_ms"] for i in range(len(pairs))]
    bench_record(
        "served_burst_n256",
        {
            "n": _N,
            "requests": len(pairs) + 1,
            "elapsed_s": elapsed,
            "served_qps": (len(pairs) + 1) / max(elapsed, 1e-9),
            "max_batch": stats["max_batch"],
            "sweeps": stats["sweeps"],
            "mean_queue_wait_ms": float(np.mean(waits)),
            "max_queue_wait_ms": float(np.max(waits)),
        },
    )
