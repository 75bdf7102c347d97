"""Construction surface of the distance engine.

The engine contract — oracle-exact builds, repair-equals-recompute,
rollback/noop, epoch staleness, read-only views — lives in the
conformance suite (``test_engine_conformance.py``). This file keeps the
``from_graph`` construction surface.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import (
    DistanceEngine,
    OwnedDigraph,
    all_pairs_distances,
    csr_without_vertex,
)

from conftest import random_owned_digraph


def test_from_graph_builds_engine_over_underlying_graph(rng):
    g = random_owned_digraph(rng, 11, p=0.3)
    engine = DistanceEngine.from_graph(g)
    assert np.array_equal(
        engine.distances(), all_pairs_distances(g.undirected_csr())
    )


def test_from_graph_isolate_builds_punctured_substrate(rng):
    for _ in range(6):
        n = int(rng.integers(2, 14))
        g = random_owned_digraph(rng, n, p=0.3)
        u = int(rng.integers(n))
        engine = DistanceEngine.from_graph(g, isolate=u)
        ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), u))
        assert np.array_equal(engine.distances(), ref)
        assert engine.csr.degree(u) == 0

