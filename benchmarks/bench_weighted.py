"""Cache-backed Section 6 machinery vs the retained loop path.

On an ``n = 128`` weighted hub instance (circulant core plus pendant
fringe — dense enough that the loop path's per-player all-pairs BFS
dominates, with poor leaves to fold):

* the **weighted swap check** re-run after each fold (the Section 6
  folding-with-verification workload) through a
  :class:`~repro.core.DistanceCache` gives verdict lists and folded
  realizations bit-identical to the loop path; its speedup is recorded,
  not asserted (each fold changes every player's substrate, so the
  cache rebuilds about as often as the loop path builds);
* the full **fold-all cascade** is >= 5x faster in place (incremental
  poor-leaf tracking + weight transfers) than the copy-and-rescan loop
  path, producing an identical folded realization.

Timings land in ``.bench_out/BENCH_weighted.json`` (see ``conftest.py``);
the tracked ``BENCH_weighted.json`` at the repo root is the baseline.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.weighted import (
    WeightedRealization,
    fold_all_poor_leaves,
    fold_poor_leaf,
    poor_leaves,
    weighted_swap_sweep,
)
from repro.core import DistanceCache
from repro.graphs import OwnedDigraph

#: Wall-clock asserts are advisory on shared CI runners (see
#: bench_exact_census.py); correctness asserts always run.
_STRICT_TIMING = not os.environ.get("CI")

BENCH_NAME = "weighted"

#: Instance size (comfortably above the n >= 64 acceptance floor).
_N = 128
_CORE = 48

#: Folds interleaved with full swap re-verification.
_FOLD_CHECKS = 8


def _hub_instance(n: int = _N, core: int = _CORE, span: int = 3) -> WeightedRealization:
    """Circulant core plus pendant fringe with seeded weights in [1, 9].

    Core vertex ``i`` owns arcs to the next ``span`` core vertices;
    every fringe vertex hangs off a hub by a hub-owned arc, so the
    fringe is all poor leaves while the core keeps the per-player BFS
    of the loop path expensive.
    """
    g = OwnedDigraph(n)
    for i in range(core):
        for d in range(1, span + 1):
            g.add_arc(i, (i + d) % core)
    for leaf in range(core, n):
        g.add_arc((leaf - core) % core, leaf)
    weights = np.random.default_rng(0).integers(1, 10, size=n).astype(np.int64)
    return WeightedRealization(graph=g, weights=weights)


def _fold_and_sweep(use_cache: bool) -> "tuple[list[list[bool]], WeightedRealization, float, float]":
    """Cold sweep, then ``_FOLD_CHECKS`` x (fold one leaf, re-sweep).

    Returns the verdict lists, the final realization, and the cold /
    steady-state wall-clock splits.
    """
    wr = _hub_instance()
    cache = DistanceCache(wr.graph) if use_cache else None
    kwargs = {"cache": cache} if use_cache else {}
    t0 = time.perf_counter()
    sweeps = [weighted_swap_sweep(wr, **kwargs)]
    cold_s = time.perf_counter() - t0
    steady_s = 0.0
    for _ in range(_FOLD_CHECKS):
        leaf = poor_leaves(wr)[0]
        wr = fold_poor_leaf(wr, leaf, **kwargs)
        t0 = time.perf_counter()
        sweeps.append(weighted_swap_sweep(wr, **kwargs))
        steady_s += time.perf_counter() - t0
    return sweeps, wr, cold_s, steady_s


@pytest.mark.paper_artifact("Section 6 / engine-backed swap check speedup")
def test_swap_check_after_folds_beats_loop_path(benchmark, bench_record):
    """Re-verifying swap stability after each fold through the cache
    gives bit-identical verdicts and realizations; the speedup over the
    loop path is recorded."""
    ref_sweeps, ref_wr, ref_cold, ref_steady = _fold_and_sweep(use_cache=False)
    eng_sweeps, eng_wr, eng_cold, eng_steady = _fold_and_sweep(use_cache=True)
    benchmark.pedantic(_fold_and_sweep, args=(True,), rounds=1, iterations=1)

    assert ref_sweeps == eng_sweeps
    assert ref_wr.graph == eng_wr.graph
    assert ref_wr.weights.tolist() == eng_wr.weights.tolist()

    speedup = ref_steady / eng_steady
    bench_record(
        "swap_check_after_folds_n128",
        {
            "n": _N,
            "resweeps": _FOLD_CHECKS,
            "loop_cold_s": round(ref_cold, 4),
            "engine_cold_s": round(eng_cold, 4),
            "loop_resweep_s": round(ref_steady, 4),
            "engine_resweep_s": round(eng_steady, 4),
            "speedup": round(speedup, 1),
            "speedup_incl_cold": round(
                (ref_cold + ref_steady) / (eng_cold + eng_steady), 1
            ),
        },
    )


@pytest.mark.paper_artifact("Section 6 / engine-backed fold-all speedup")
def test_fold_all_beats_loop_path(benchmark, bench_record):
    """The full fold cascade (every fringe leaf folds into its hub)
    must be >= 5x faster in place than the copy-and-rescan loop."""
    wr = _hub_instance()

    t0 = time.perf_counter()
    ref = fold_all_poor_leaves(wr)
    loop_s = time.perf_counter() - t0

    cache = DistanceCache(wr.graph)
    t0 = time.perf_counter()
    eng = fold_all_poor_leaves(wr, cache=cache)
    engine_s = time.perf_counter() - t0
    benchmark.pedantic(
        lambda: fold_all_poor_leaves(wr, cache=DistanceCache(wr.graph)),
        rounds=1,
        iterations=1,
    )

    assert ref.graph == eng.graph
    assert ref.weights.tolist() == eng.weights.tolist()
    assert poor_leaves(eng) == []
    assert int(eng.weights[wr.graph.n - 1]) == 0  # fringe weight absorbed

    speedup = loop_s / engine_s
    bench_record(
        "fold_all_n128",
        {
            "n": _N,
            "folds": _N - _CORE,
            "loop_s": round(loop_s, 4),
            "engine_s": round(engine_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert not _STRICT_TIMING or speedup >= 5.0, (
        f"engine fold-all ({engine_s * 1e3:.1f} ms) should be >= 5x faster "
        f"than the loop path ({loop_s * 1e3:.1f} ms); got {speedup:.1f}x"
    )
