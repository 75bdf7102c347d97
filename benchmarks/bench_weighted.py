"""Section 6 folding and swap verification at ``n = 128``.

On a weighted hub instance (circulant core plus pendant fringe — dense
enough that the per-player all-pairs BFS of the swap check dominates,
with poor leaves to fold):

* the **weighted swap check** re-run after each fold (the Section 6
  folding-with-verification workload) is timed and recorded, cold
  sweep and re-sweeps apart; every fold changes every player's
  substrate, so each sweep builds its engines afresh;
* the full **fold-all cascade** is >= 5x faster in place (incremental
  poor-leaf tracking + weight transfers) than a copy-and-rescan loop
  built from ``fold_poor_leaf``, producing an identical folded
  realization.

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


def _rescan_fold_all(wr: WeightedRealization) -> WeightedRealization:
    """Copy-and-rescan fold loop: a fresh copy per fold and a full
    poor-leaf rescan per round, smallest poor leaf first."""
    while True:
        leaves = poor_leaves(wr)
        if not leaves:
            return wr
        wr = fold_poor_leaf(wr, leaves[0])


def _fold_and_sweep() -> "tuple[list[list[bool]], WeightedRealization, float, float]":
    """Cold sweep, then ``_FOLD_CHECKS`` x (fold one leaf, re-sweep).

    Returns the verdict lists, the final realization, and the cold /
    re-sweep wall-clock splits.
    """
    wr = _hub_instance()
    t0 = time.perf_counter()
    sweeps = [weighted_swap_sweep(wr)]
    cold_s = time.perf_counter() - t0
    steady_s = 0.0
    for _ in range(_FOLD_CHECKS):
        wr = fold_poor_leaf(wr, poor_leaves(wr)[0])
        t0 = time.perf_counter()
        sweeps.append(weighted_swap_sweep(wr))
        steady_s += time.perf_counter() - t0
    return sweeps, wr, cold_s, steady_s


@pytest.mark.paper_artifact("Section 6 / swap check after folds")
def test_swap_check_after_folds(benchmark, bench_record):
    """Re-verifying swap stability after each fold: the verdicts and
    the folded realization repeat exactly from run to run; the times
    are recorded."""
    sweeps, wr, cold_s, resweep_s = _fold_and_sweep()
    again = benchmark.pedantic(_fold_and_sweep, rounds=1, iterations=1)

    assert again[0] == sweeps
    assert again[1].graph == wr.graph
    assert again[1].weights.tolist() == wr.weights.tolist()
    assert len(sweeps) == _FOLD_CHECKS + 1

    bench_record(
        "swap_check_after_folds_n128",
        {
            "n": _N,
            "resweeps": _FOLD_CHECKS,
            "cold_s": round(cold_s, 4),
            "resweep_s": round(resweep_s, 4),
        },
    )


@pytest.mark.paper_artifact("Section 6 / in-place fold-all speedup")
def test_fold_all_beats_loop_path(benchmark, bench_record):
    """The full fold cascade (every fringe leaf folds into its hub)
    must be >= 5x faster in place than the copy-and-rescan loop."""
    wr = _hub_instance()

    t0 = time.perf_counter()
    ref = _rescan_fold_all(wr)
    loop_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = fold_all_poor_leaves(wr)
    in_place_s = time.perf_counter() - t0
    benchmark.pedantic(fold_all_poor_leaves, args=(wr,), rounds=1, iterations=1)

    assert ref.graph == got.graph
    assert ref.weights.tolist() == got.weights.tolist()
    assert poor_leaves(got) == []
    assert int(got.weights[wr.graph.n - 1]) == 0  # fringe weight absorbed

    speedup = loop_s / in_place_s
    bench_record(
        "fold_all_n128",
        {
            "n": _N,
            "folds": _N - _CORE,
            "loop_s": round(loop_s, 4),
            "in_place_s": round(in_place_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert not _STRICT_TIMING or speedup >= 5.0, (
        f"in-place fold-all ({in_place_s * 1e3:.1f} ms) should be >= 5x faster "
        f"than the copy-and-rescan loop ({loop_s * 1e3:.1f} ms); got {speedup:.1f}x"
    )
