"""Bidirectional query kernel: cold point verdicts vs full-matrix builds.

Three claims, each asserted (not just timed):

* **Cold swap-check verdicts skip the all-pairs build.** At n = 512 a
  single-deviation verdict answered through a ``rows="lazy"`` cache
  (bounded bidirectional queries plus a handful of on-demand rows) must
  be at least 10x faster than the full-matrix path that first builds
  every row of ``U(G - u)``. Verdicts are bit-identical.
* **Point queries are bit-identical to the matrix** — including the
  ``Cinf`` sentinel on disconnected pairs.
* **The meet-in-the-middle rule settles a small fraction of sparse
  graphs**: on random sparse instances at n = 512 the mean fraction of
  vertices labelled per query stays below one half, the regime where a
  bidirectional stop beats one-sided sweeps.

Timings land in ``.bench_out/BENCH_query.json`` (see ``conftest.py``);
the tracked ``BENCH_query.json`` at the repo root is the baseline.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import DistanceCache, deviation_improves
from repro.core.best_response import BestResponseEnvironment
from repro.graphs import DistanceEngine, OwnedDigraph, QueryStats, point_to_point

#: Wall-clock comparisons are meaningful on a quiet machine; on shared
#: CI runners a noisy neighbour can invert margins with no code defect,
#: so the timing asserts are advisory there (correctness always runs).
_STRICT_TIMING = not os.environ.get("CI")

BENCH_NAME = "query"


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


# ----------------------------------------------------------------------
# Cold single-deviation verdict: lazy query tier vs full-matrix build
# ----------------------------------------------------------------------
def test_cold_swap_check_beats_full_matrix_build(bench_record):
    n = 512
    g = _sparse_graph(n, extra_edges=2 * n, seed=7)
    u = 0
    cur = tuple(sorted(int(v) for v in g.out_neighbors(u)))
    assert cur
    others = [v for v in range(n) if v != u and v not in cur]
    deviation = tuple(sorted([others[0]] + list(cur)[1:]))

    # Untimed warmup on a tiny instance: both paths pay their one-time
    # lazy imports (np.unique pulls in numpy.ma on first call) outside
    # the timed sections.
    np.unique(np.arange(2))
    g_small = _sparse_graph(16, extra_edges=8, seed=1)
    env_w = DistanceCache(g_small).environment(0, "sum")
    cur_w = tuple(sorted(int(v) for v in g_small.out_neighbors(0)))
    env_w.evaluate(cur_w)
    deviation_improves(
        g_small, 0, cur_w, "sum", cache=DistanceCache(g_small, rows="lazy"),
        use_lemma=False,
    )
    deviation_improves(g_small, 0, cur_w, "sum", use_lemma=False)

    # Full-matrix path: a cold cache in rows="full" mode pays the whole
    # all-pairs build of U(G - u) before it can price one deviation.
    t0 = time.perf_counter()
    env_full = DistanceCache(g).environment(u, "sum")
    verdict_full = env_full.evaluate(deviation) < env_full.evaluate(cur)
    full_s = time.perf_counter() - t0

    # Query tier: the same verdict on a cold rows="lazy" cache.
    t0 = time.perf_counter()
    verdict_lazy = deviation_improves(
        g, u, deviation, "sum", cache=DistanceCache(g, rows="lazy"), use_lemma=False
    )
    lazy_s = time.perf_counter() - t0

    # And with no prebuilt state at all (throwaway lazy engine inside).
    t0 = time.perf_counter()
    verdict_cold = deviation_improves(g, u, deviation, "sum", use_lemma=False)
    cold_s = time.perf_counter() - t0

    assert verdict_lazy == verdict_full == verdict_cold
    speedup = full_s / max(lazy_s, 1e-9)
    bench_record(
        "cold_swap_check_n512",
        {
            "n": n,
            "full_matrix_s": full_s,
            "lazy_cache_s": lazy_s,
            "no_cache_s": cold_s,
            "speedup": speedup,
        },
    )
    if _STRICT_TIMING:
        assert speedup >= 10.0, (
            f"cold swap-check speedup {speedup:.1f}x < 10x "
            f"(full {full_s * 1e3:.1f}ms vs lazy {lazy_s * 1e3:.1f}ms)"
        )


# ----------------------------------------------------------------------
# Bit-identity: kernel answers == matrix entries
# ----------------------------------------------------------------------
def test_query_bit_identical_to_matrices(bench_record):
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(8):
        n = int(rng.integers(8, 48))
        g = _sparse_graph(n, extra_edges=int(rng.integers(0, n)), seed=trial)
        if rng.random() < 0.4:  # disconnect: Cinf pairs must match too
            csr = g.undirected_csr()
            for v in range(n):
                nbrs = csr.neighbors(v)
                if len(nbrs) == 1:
                    a, b = v, int(nbrs[0])
                    if g.has_arc(a, b):
                        g.remove_arc(a, b)
                    else:
                        g.remove_arc(b, a)
                    break
        csr = g.undirected_csr()
        unit_ref = np.asarray(DistanceEngine(csr).matrix)
        pairs = rng.integers(0, n, size=(24, 2))
        for a, b in pairs:
            a, b = int(a), int(b)
            assert point_to_point(csr, a, b) == int(unit_ref[a, b])
            checked += 1
    bench_record("bit_identity", {"pairs_checked": checked})


# ----------------------------------------------------------------------
# Settled fraction: the meet rule explores a small part of sparse graphs
# ----------------------------------------------------------------------
def test_sparse_queries_settle_a_fraction_of_the_graph(bench_record):
    n = 512
    rng = np.random.default_rng(13)
    fractions = []
    for seed in range(5):
        g = _sparse_graph(n, extra_edges=2 * n, seed=seed)
        csr = g.undirected_csr()
        for _ in range(20):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            stats = QueryStats()
            point_to_point(csr, a, b, stats=stats)
            fractions.append(stats.fraction_settled(n))
    mean_fraction = float(np.mean(fractions))
    bench_record(
        "settled_fraction_sparse_n512",
        {
            "n": n,
            "queries": len(fractions),
            "mean_fraction": mean_fraction,
            "max_fraction": float(np.max(fractions)),
        },
    )
    # The stopping rule must beat a one-sided sweep's n labels on
    # average; this holds on any machine (it counts work, not time).
    assert mean_fraction < 0.5, f"mean settled fraction {mean_fraction:.2f} >= 0.5"
