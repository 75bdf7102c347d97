"""Property suite for the affected-region repair and unit op-forwarding.

Hypothesis drives random arc-swap / edge-op sequences over *tree-like*
generators — the regime the affected-region tier exists for (deletions
dirty many rows but only small regions per row) — and pins:

* affected-region repair == fresh recompute, for both engines, at every
  step of every sequence (the engines may pick any tier; the matrices
  must be bit-identical either way);
* the unit :class:`~repro.core.distance_cache.DistanceCache` step
  forwarder (rm/add chains replayed into lagging player engines) is
  indistinguishable from a freshly built punctured engine;
* base-engine snapshot adoption (the query server's pool-store cold
  start) never changes a distance, before or after a mutation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance_cache import DistanceCache
from repro.graphs import DistanceEngine, WeightedDistanceEngine
from repro.graphs.digraph import OwnedDigraph
from repro.graphs.weighted_engine import weighted_csr_from_csr

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
    engine = DistanceEngine(g.undirected_csr(), dirty_fraction="adaptive")
    edges = _edges_of(g)
    order = data.draw(st.permutations(range(len(edges))))
    for idx in order[: min(len(order), 12)]:
        x, y = edges[idx]
        engine.remove_edge(x, y)
        fresh = DistanceEngine(engine.csr)
        assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=18),
    data=st.data(),
)
def test_weighted_region_repair_equals_fresh_recompute(seed, n, data):
    g = _tree_graph(seed, n, 2)
    weights = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=g.num_arcs,
            max_size=g.num_arcs,
        )
    )
    wcsr = weighted_csr_from_csr(g.undirected_csr())
    # Reassign arbitrary small positive lengths (both directions equal).
    warr = wcsr.weights.copy()
    edges = _edges_of(g)
    for w, (x, y) in zip(weights, edges):
        for a, b in ((x, y), (y, x)):
            lo, hi = int(wcsr.indptr[a]), int(wcsr.indptr[a + 1])
            pos = lo + int(np.searchsorted(wcsr.indices[lo:hi], b))
            warr[pos] = w
    wcsr = type(wcsr)(n=wcsr.n, indptr=wcsr.indptr, indices=wcsr.indices, weights=warr)
    engine = WeightedDistanceEngine(wcsr, max_weight=4)
    order = data.draw(st.permutations(range(len(edges))))
    for idx in order[: min(len(order), 10)]:
        x, y = edges[idx]
        engine.remove_edge(x, y)
        fresh = WeightedDistanceEngine(engine.wcsr, inf=engine.inf)
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
    cache = DistanceCache(g, dirty_fraction="adaptive")
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


# ----------------------------------------------------------------------
# Base snapshot adoption (serve pool-store contract)
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_base_snapshot_adoption_matches_cold_build(seed):
    rng = np.random.default_rng(seed)
    g = random_tree_digraph(rng, 8, 2)
    snapshot = DistanceEngine.from_snapshot(
        g.undirected_csr(), DistanceEngine(g.undirected_csr()).matrix
    )
    warm = DistanceCache(g, base_engine=snapshot)
    cold = DistanceCache(g.copy())
    assert warm.base().stats["rebuilds"] == 0  # adopted, never rebuilt
    assert np.array_equal(
        np.asarray(warm.base().matrix), np.asarray(cold.base().matrix)
    )
    # Mutating the graph must detach (copy-on-write) and stay exact.
    g.remove_arc(1, int(g.out_neighbors(1)[0])) if g.out_degree(1) else g.add_arc(1, 0)
    fresh = DistanceEngine(g.undirected_csr())
    assert np.array_equal(np.asarray(warm.base().matrix), np.asarray(fresh.matrix))
    for u in range(g.n):
        fresh = DistanceEngine(g.undirected_csr_without(u))
        assert np.array_equal(
            np.asarray(warm.player(u).matrix), np.asarray(fresh.matrix)
        )
