"""Property-based tests for the bidirectional query kernel and the
lazy row-on-demand engine mode.

Two contracts, each driven by randomized instances:

* **query == matrix** — a bidirectional point-to-point answer is
  bit-identical to the corresponding full-matrix entry (including the
  ``Cinf`` sentinel on disconnected pairs);
* **lazy == full** — a lazy engine warmed on random rows answers every
  read (point query, hot row, promoted matrix) exactly as a full build
  of the same substrate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DistanceEngine, QueryStats, point_to_point

from conftest import random_owned_digraph

# The engine under test; its case ids carry the ``[unit]`` tag of the
# edge lengths it runs on.
_UNIT_ENGINE = pytest.mark.parametrize("engine_cls", [DistanceEngine], ids=["unit"])

# ----------------------------------------------------------------------
# query == full-matrix entry
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_unit_query_equals_matrix_entry(n, seed):
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=float(rng.uniform(0.05, 0.5)))
    csr = g.undirected_csr()
    engine = DistanceEngine(csr)
    ref = np.asarray(engine.matrix)
    for u in range(n):
        for v in range(n):
            stats = QueryStats()
            got = point_to_point(csr, u, v, stats=stats)
            assert got == int(ref[u, v])
            assert stats.settled <= 2 * n


# ----------------------------------------------------------------------
# lazy reads == full build
# ----------------------------------------------------------------------
@_UNIT_ENGINE
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
    warm=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_lazy_reads_equal_full_build(engine_cls, n, seed, warm):
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=float(rng.uniform(0.1, 0.4)))
    lazy = engine_cls(g.undirected_csr(), rows="lazy")
    ref = np.asarray(DistanceEngine(g.undirected_csr()).matrix)
    if warm:
        lazy.ensure_rows(rng.integers(0, n, size=warm))
    for _ in range(6):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        assert lazy.query(u, v) == int(ref[u, v])
        if lazy.lazy:
            for s in lazy.hot_rows().tolist():
                assert np.array_equal(lazy.row(s), ref[s])
    assert np.array_equal(np.asarray(lazy.matrix), ref)
