"""Property suite for the affected-region repair and unit op-forwarding.

Hypothesis drives random arc-swap / edge-op sequences over *tree-like*
generators — the regime the affected-region tier exists for (deletions
dirty many rows but only small regions per row) — and pins:

* affected-region repair == fresh recompute at every step of every
  sequence (the engine may pick any tier; the matrices must be
  bit-identical either way);
* the unit :class:`~repro.core.distance_cache.DistanceCache` step
  forwarder (rm/add chains replayed into lagging player engines) is
  indistinguishable from a freshly built punctured engine.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance_cache import DistanceCache
from repro.graphs import DistanceEngine
from repro.graphs.digraph import OwnedDigraph

from conftest import random_tree_digraph


def _tree_graph(seed: int, n: int, extra: int) -> OwnedDigraph:
    return random_tree_digraph(np.random.default_rng(seed), n, extra)


def _edges_of(g: OwnedDigraph) -> "list[tuple[int, int]]":
    csr = g.undirected_csr()
    return [(u, int(v)) for u in range(g.n) for v in csr.neighbors(u) if u < int(v)]


# ----------------------------------------------------------------------
# Region repair == fresh recompute under random deletion sequences
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=24),
    extra=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_unit_region_repair_equals_fresh_recompute(seed, n, extra, data):
    g = _tree_graph(seed, n, extra)
    engine = DistanceEngine(g.undirected_csr())
    edges = _edges_of(g)
    order = data.draw(st.permutations(range(len(edges))))
    for idx in order[: min(len(order), 12)]:
        x, y = edges[idx]
        engine.remove_edge(x, y)
        fresh = DistanceEngine(engine.csr)
        assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))


# ----------------------------------------------------------------------
# Unit op-forwarding: replayed player engines == fresh punctured builds
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=9),
    steps=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_unit_cache_step_forwarding_equals_fresh(seed, n, steps, data):
    rng = np.random.default_rng(seed)
    g = random_tree_digraph(rng, n, 1)
    cache = DistanceCache(g)
    # Touch every player once so later syncs exercise the forwarder.
    for u in range(n):
        cache.player(u)
    for _ in range(steps):
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        outs = [int(v) for v in g.out_neighbors(j)]
        others = [v for v in range(n) if v != j and v not in outs]
        if outs and others:
            dropped = outs[data.draw(st.integers(0, len(outs) - 1))]
            added = others[data.draw(st.integers(0, len(others) - 1))]
            g.remove_arc(j, dropped)
            g.add_arc(j, added)
        elif others:
            g.add_arc(j, others[data.draw(st.integers(0, len(others) - 1))])
        elif outs:
            g.remove_arc(j, outs[data.draw(st.integers(0, len(outs) - 1))])
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
                unique=True,
            )
        )
        for u in subset:
            engine = cache.player(u)
            fresh = DistanceEngine(g.undirected_csr_without(u))
            assert np.array_equal(
                np.asarray(engine.matrix), np.asarray(fresh.matrix)
            )


def test_unit_cache_forwarding_actually_forwards():
    """A swap by player a, read by player b, must replay diff-free (no
    punctured-substrate rebuild: the engine sees two single-edge ops)."""
    g = OwnedDigraph(5)
    for v in range(1, 5):
        g.add_arc(0, v)
    cache = DistanceCache(g)
    for u in range(5):
        cache.player(u)
    before = cache.stats()
    g.remove_arc(0, 4)
    g.add_arc(1, 4)
    for u in range(5):
        engine = cache.player(u)
        fresh = DistanceEngine(g.undirected_csr_without(u))
        assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))
    after = cache.stats()
    assert after["step_forwards"] >= before["step_forwards"] + 4
