"""Batched all-pairs distance engine vs. a loop of single-source BFS.

One claim, asserted (not just timed): the engine's batched
multi-source BFS beats one single-source BFS per source and produces
the identical matrix (as does ``all_pairs_distances``, which runs on
the same batched kernel).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

#: Wall-clock comparisons are meaningful on a quiet machine; on shared
#: CI runners a noisy neighbour can invert a small margin with no code
#: defect, so the timing asserts are advisory there (the correctness
#: asserts always run).
_STRICT_TIMING = not os.environ.get("CI")

from repro.graphs import (
    DistanceEngine,
    all_pairs_distances,
    bfs_distances,
    random_connected_realization,
    uniform_budgets,
)


@pytest.mark.paper_artifact("engine / batched BFS vs looped BFS")
def test_batched_rebuild_beats_looped_all_pairs(benchmark):
    """The engine's flat-frontier batched BFS must beat a python loop
    of single-source BFS on the same substrate."""
    n = 400
    g = random_connected_realization(uniform_budgets(n, 2), seed=9)
    csr = g.undirected_csr()
    engine = DistanceEngine(csr)

    benchmark.pedantic(engine.rebuild, rounds=10, iterations=1, warmup_rounds=1)

    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        engine.rebuild()
    batched = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        ref = np.stack([bfs_distances(csr, s) for s in range(n)])
    looped = (time.perf_counter() - t0) / reps
    assert np.array_equal(all_pairs_distances(csr), ref)
    ref[ref == -1] = engine.inf
    assert np.array_equal(engine.matrix, ref)
    assert not _STRICT_TIMING or batched < looped, (
        f"batched all-pairs BFS ({batched * 1e3:.1f} ms) should beat the "
        f"single-source loop ({looped * 1e3:.1f} ms)"
    )
