"""Property-based tests for the bidirectional query kernel and the
lazy row-on-demand engine mode.

Four contracts, each driven by randomized instances:

* **query == matrix** — a bidirectional point-to-point answer is
  bit-identical to the corresponding full-matrix entry (including the
  ``Cinf`` sentinel on disconnected pairs);
* **lazy repair == recompute** — a lazy engine driven through an
  arbitrary arc-swap/deletion sequence answers every read exactly as a
  fresh full build of the final substrate would;
* **staleness** — epochs advance on lazy-engine mutations exactly as
  on full engines, so ``ensure_epoch`` raises
  :class:`~repro.errors.StaleDistanceError` for pre-mutation tokens;
* **promotion monotonicity** — the number of distinct row touches a
  lazy engine absorbs before promoting to full mode is nondecreasing
  in ``dirty_fraction`` (the threshold is ``max(1, dirty_fraction *
  n)`` under the fixed cost model).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StaleDistanceError
from repro.graphs import DistanceEngine, QueryStats, point_to_point

from conftest import random_owned_digraph, random_strategy_swap

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
# lazy repair == fresh recompute
# ----------------------------------------------------------------------
@_UNIT_ENGINE
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
    warm=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_lazy_repair_equals_recompute_under_swap_sequences(
    engine_cls, n, seed, warm
):
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=0.3)
    lazy = engine_cls(g.undirected_csr(), rows="lazy")
    if warm:
        lazy.ensure_rows(rng.integers(0, n, size=warm))
    for _ in range(6):
        random_strategy_swap(rng, g)
        lazy.update(g.undirected_csr())
        ref = np.asarray(DistanceEngine(g.undirected_csr()).matrix)
        u, v = int(rng.integers(n)), int(rng.integers(n))
        assert lazy.query(u, v) == int(ref[u, v])
        if lazy.lazy:
            hot = lazy.hot_rows()
            if hot.size:
                s = int(hot[int(rng.integers(hot.size))])
                assert np.array_equal(lazy.row(s), ref[s])
    final = np.asarray(DistanceEngine(g.undirected_csr()).matrix)
    assert np.array_equal(np.asarray(lazy.matrix), final)


@_UNIT_ENGINE
@given(
    n=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_lazy_repair_equals_recompute_under_deletions(engine_cls, n, seed):
    """Pure deletion sequences exercise the pendant / affected-region /
    dirty-row repair tiers on the hot subset."""
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=0.4)
    lazy = engine_cls(g.undirected_csr(), rows="lazy")
    lazy.ensure_rows([0, n - 1])
    while True:
        csr = g.undirected_csr()
        edges = [(u, int(v)) for u in range(n) for v in csr.neighbors(u) if u < int(v)]
        if not edges:
            break
        x, y = edges[int(rng.integers(len(edges)))]
        if g.has_arc(x, y):
            g.remove_arc(x, y)
        if g.has_arc(y, x):  # a brace backs the same undirected edge
            g.remove_arc(y, x)
        lazy.remove_edge(x, y)
        ref = np.asarray(DistanceEngine(g.undirected_csr()).matrix)
        if lazy.lazy:
            for s in lazy.hot_rows().tolist():
                assert np.array_equal(lazy.row(s), ref[s])
        else:
            assert np.array_equal(np.asarray(lazy.matrix), ref)


# ----------------------------------------------------------------------
# staleness contract
# ----------------------------------------------------------------------
@_UNIT_ENGINE
@given(
    n=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_lazy_engine_staleness_contract(engine_cls, n, seed):
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=0.4)
    lazy = engine_cls(g.undirected_csr(), rows="lazy")
    token = lazy.epoch
    lazy.ensure_epoch(token)
    # Reads never stale a token...
    lazy.query(0, n - 1)
    lazy.ensure_rows([0])
    lazy.ensure_epoch(token)
    # ...mutations always do.
    csr = g.undirected_csr()
    edges = [(u, int(v)) for u in range(n) for v in csr.neighbors(u) if u < int(v)]
    if not edges:
        return
    lazy.remove_edge(*edges[0])
    with pytest.raises(StaleDistanceError):
        lazy.ensure_epoch(token)


# ----------------------------------------------------------------------
# promotion threshold monotonicity
# ----------------------------------------------------------------------
def _touches_to_promote(engine_cls, csr, dirty_fraction: float) -> int:
    """Distinct row touches absorbed before the engine leaves lazy mode."""
    engine = engine_cls(csr, rows="lazy", dirty_fraction=dirty_fraction)
    for touched in range(csr.n):
        if not engine.lazy:
            return touched
        engine.ensure_rows([touched])
    return csr.n


@_UNIT_ENGINE
@given(
    n=st.integers(min_value=3, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_promotion_touches_monotone_in_dirty_fraction(
    engine_cls, n, seed, fractions
):
    """Under the fixed cost model the promotion threshold is
    ``max(1, dirty_fraction * n)``, so the touches a lazy engine absorbs
    before promoting never decrease as ``dirty_fraction`` grows."""
    rng = np.random.default_rng(seed)
    g = random_owned_digraph(rng, n, p=0.3)
    csr = g.undirected_csr()
    prev_f, prev_touches = None, None
    for f in sorted(fractions):
        touches = _touches_to_promote(engine_cls, csr, f)
        engine = engine_cls(csr, rows="lazy", dirty_fraction=f)
        assert engine.promotion_threshold() == max(1.0, f * n)
        if prev_f is not None:
            assert touches >= prev_touches, (prev_f, f)
        prev_f, prev_touches = f, touches
