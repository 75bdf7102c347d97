"""Weighted-engine-specific differential tests.

``scipy.sparse.csgraph.dijkstra`` and ``networkx`` serve as independent
oracles for the heap-free batched SSSP kernel and for every delta-repair
path (deletions, insertions, weight changes, the pendant fast path) on
seeded random *weighted* digraphs, including disconnected ones. A
dedicated section pins the weight-1 degeneration: unit-weight engines
must reproduce the BFS engine's matrices bit-for-bit (same values, same
dtype, same sentinel). Behavior shared with the unit engine on
unit-weight substrates — oracle builds, repair-equals-recompute,
rollback/noop, staleness, read-only views — is
covered once for both engines in ``test_engine_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.errors import GraphError
from repro.graphs import (
    UNREACHABLE,
    DistanceEngine,
    EdgeWeightMap,
    OwnedDigraph,
    WeightedDistanceEngine,
    build_weighted_csr,
    cinf,
    weighted_csr_from_csr,
    weighted_csr_without_vertex,
)

from conftest import random_owned_digraph


def random_weighted_edges(
    rng: np.random.Generator, n: int, density: float = 0.3, max_w: int = 6
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Random undirected edge list with integer weights in [1, max_w]."""
    heads, tails = [], []
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                heads.append(x)
                tails.append(y)
    m = len(heads)
    w = rng.integers(1, max_w + 1, size=m)
    return (
        np.asarray(heads, dtype=np.int64),
        np.asarray(tails, dtype=np.int64),
        np.asarray(w, dtype=np.int64),
    )


def scipy_weighted_oracle(
    n: int, heads: np.ndarray, tails: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """All-pairs weighted distances via scipy, UNREACHABLE for inf."""
    mat = sp.lil_matrix((n, n), dtype=np.float64)
    for x, y, w in zip(heads, tails, weights):
        cur = mat[x, y]
        if cur == 0 or cur > w:
            mat[x, y] = w
            mat[y, x] = w
    dist = dijkstra(mat.tocsr(), directed=False)
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def networkx_weighted_oracle(
    n: int, heads: np.ndarray, tails: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """All-pairs weighted distances via networkx Dijkstra."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    for x, y, w in zip(heads, tails, weights):
        x, y, w = int(x), int(y), int(w)
        if G.has_edge(x, y):
            w = min(w, G[x][y]["weight"])
        G.add_edge(x, y, weight=w)
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for s, lengths in nx.all_pairs_dijkstra_path_length(G, weight="weight"):
        for v, d in lengths.items():
            out[s, v] = int(d)
    return out


# ----------------------------------------------------------------------
# Batched Dial kernel vs oracles
# ----------------------------------------------------------------------
def test_initial_build_matches_scipy_and_networkx(rng):
    for _ in range(12):
        n = int(rng.integers(2, 16))
        heads, tails, w = random_weighted_edges(rng, n, float(rng.uniform(0.1, 0.5)))
        engine = WeightedDistanceEngine(build_weighted_csr(n, heads, tails, w))
        got = engine.distances()
        assert np.array_equal(got, scipy_weighted_oracle(n, heads, tails, w))
        assert np.array_equal(got, networkx_weighted_oracle(n, heads, tails, w))


def test_distances_from_batched_rows_match_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(3, 18))
        heads, tails, w = random_weighted_edges(rng, n, 0.3)
        engine = WeightedDistanceEngine(build_weighted_csr(n, heads, tails, w))
        oracle = scipy_weighted_oracle(n, heads, tails, w)
        oracle[oracle == UNREACHABLE] = engine.inf
        k = int(rng.integers(1, n + 1))
        sources = rng.choice(n, size=k, replace=False)
        rows = engine.distances_from(sources)
        assert np.array_equal(rows, oracle[sources])
        buf = np.empty((k, n), dtype=rows.dtype)
        out = engine.distances_from(sources, out=buf)
        assert out is buf
        assert np.array_equal(buf, rows)


def test_parallel_edges_collapse_to_lightest():
    # Two copies of {0, 1} with different lengths: distances use the min.
    wcsr = build_weighted_csr(
        2, np.array([0, 1]), np.array([1, 0]), np.array([5, 2])
    )
    engine = WeightedDistanceEngine(wcsr)
    assert engine.distance(0, 1) == 2


def test_disconnected_graph_uses_unreachable_sentinel():
    wcsr = build_weighted_csr(
        5, np.array([0, 2]), np.array([1, 3]), np.array([3, 4])
    )
    engine = WeightedDistanceEngine(wcsr)
    assert engine.distance(0, 1) == 3
    assert engine.distance(2, 3) == 4
    assert engine.distance(0, 2) == UNREACHABLE
    assert engine.distance(4, 4) == 0
    # Internally unreachable pairs carry the finite sentinel.
    assert engine.matrix[0, 2] == engine.inf


# ----------------------------------------------------------------------
# Weight-1 degeneration: bit-identical to the BFS engine
# ----------------------------------------------------------------------
def test_unit_weights_degenerate_to_bfs_engine(rng):
    for _ in range(10):
        n = int(rng.integers(2, 16))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.1, 0.4)))
        csr = g.undirected_csr()
        bfs_engine = DistanceEngine(csr)
        dial_engine = WeightedDistanceEngine(weighted_csr_from_csr(csr))
        assert dial_engine.inf == bfs_engine.inf == cinf(n)
        assert dial_engine.matrix.dtype == bfs_engine.matrix.dtype
        assert np.array_equal(
            np.asarray(dial_engine.matrix), np.asarray(bfs_engine.matrix)
        )


def test_unit_weight_updates_track_bfs_engine(rng):
    g = random_owned_digraph(rng, 9, p=0.3)
    bfs_engine = DistanceEngine(g.undirected_csr())
    dial_engine = WeightedDistanceEngine(weighted_csr_from_csr(g.undirected_csr()))
    for _ in range(10):
        u = int(rng.integers(9))
        others = [v for v in range(9) if v != u]
        k = int(rng.integers(0, 4))
        new = rng.choice(others, size=k, replace=False) if k else []
        g.set_strategy(u, [int(v) for v in np.atleast_1d(new)])
        bfs_engine.update(g.undirected_csr())
        dial_engine.update(weighted_csr_from_csr(g.undirected_csr()))
        assert np.array_equal(
            np.asarray(dial_engine.matrix), np.asarray(bfs_engine.matrix)
        )


def test_isolated_substrate_matches_reference(rng):
    for _ in range(6):
        n = int(rng.integers(3, 12))
        heads, tails, w = random_weighted_edges(rng, n, 0.4)
        wcsr = build_weighted_csr(n, heads, tails, w)
        u = int(rng.integers(n))
        engine = WeightedDistanceEngine(weighted_csr_without_vertex(wcsr, u))
        keep = (heads != u) & (tails != u)
        ref = scipy_weighted_oracle(n, heads[keep], tails[keep], w[keep])
        assert np.array_equal(engine.distances(), ref)
        assert engine.wcsr.degree(u) == 0


# ----------------------------------------------------------------------
# Delta updates vs oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dirty_fraction", [None, 1.0, 0.0])
def test_update_tracks_random_mutations(rng, dirty_fraction):
    kwargs = {} if dirty_fraction is None else {"dirty_fraction": dirty_fraction}
    for _ in range(5):
        n = int(rng.integers(3, 14))
        heads, tails, w = random_weighted_edges(rng, n, 0.35)
        engine = WeightedDistanceEngine(
            build_weighted_csr(n, heads, tails, w), max_weight=8, **kwargs
        )
        for _ in range(8):
            op = int(rng.integers(3))
            if op == 0 and heads.size:  # delete an edge
                i = int(rng.integers(heads.size))
                heads = np.delete(heads, i)
                tails = np.delete(tails, i)
                w = np.delete(w, i)
            elif op == 1:  # insert an edge
                x, y = int(rng.integers(n)), int(rng.integers(n))
                if x != y:
                    heads = np.append(heads, x)
                    tails = np.append(tails, y)
                    w = np.append(w, int(rng.integers(1, 9)))
            elif heads.size:  # change a weight
                i = int(rng.integers(heads.size))
                w[i] = int(rng.integers(1, 9))
            status = engine.update(build_weighted_csr(n, heads, tails, w))
            assert status in ("noop", "delta", "rebuild")
            if dirty_fraction == 0.0:
                assert status in ("noop", "rebuild")
            assert np.array_equal(
                engine.distances(), scipy_weighted_oracle(n, heads, tails, w)
            )


def test_weight_only_change_is_repaired(rng):
    # Same topology, one weight changed: must not read stale distances.
    heads = np.array([0, 1, 2, 0])
    tails = np.array([1, 2, 3, 3])
    w = np.array([2, 2, 2, 7])
    engine = WeightedDistanceEngine(build_weighted_csr(4, heads, tails, w), max_weight=9)
    assert engine.distance(0, 3) == 6  # 0-1-2-3
    w2 = np.array([2, 2, 2, 1])  # shortcut 0-3 now cheap
    status = engine.update(build_weighted_csr(4, heads, tails, w2))
    assert status in ("delta", "rebuild")
    assert engine.distance(0, 3) == 1
    assert engine.distance(1, 3) == 3  # 1-0-3
    w3 = np.array([2, 2, 2, 9])  # and expensive again
    engine.update(build_weighted_csr(4, heads, tails, w3))
    assert engine.distance(0, 3) == 6
    assert np.array_equal(engine.distances(), scipy_weighted_oracle(4, heads, tails, w3))


def test_pendant_removal_uses_column_fix():
    # Removing a leaf's only edge is repaired without any row recompute.
    g = OwnedDigraph(7)
    for i in range(6):
        g.add_arc(i, i + 1)
    engine = WeightedDistanceEngine(weighted_csr_from_csr(g.undirected_csr()))
    rows_before = engine.stats["rows_recomputed"]
    g.remove_arc(5, 6)
    status = engine.update(weighted_csr_from_csr(g.undirected_csr()))
    assert status == "delta"
    assert engine.stats["pendant_fixes"] == 1
    assert engine.stats["rows_recomputed"] == rows_before
    assert engine.distance(0, 6) == UNREACHABLE
    assert engine.distance(6, 6) == 0
    assert engine.distance(0, 5) == 5


def test_isolated_pair_removal():
    # Deleting the edge of an isolated K2 isolates both endpoints.
    wcsr = build_weighted_csr(
        4, np.array([0, 2]), np.array([1, 3]), np.array([1, 4])
    )
    engine = WeightedDistanceEngine(wcsr)
    smaller = build_weighted_csr(4, np.array([0]), np.array([1]), np.array([1]))
    status = engine.update(smaller)
    assert status == "delta"
    assert engine.stats["pendant_fixes"] == 2
    assert engine.distance(2, 3) == UNREACHABLE
    assert engine.distance(0, 1) == 1


def test_update_rejects_weight_overflow():
    engine = WeightedDistanceEngine(
        build_weighted_csr(4, np.array([0]), np.array([1]), np.array([2]))
    )
    huge = build_weighted_csr(4, np.array([0]), np.array([1]), np.array([10**6]))
    with pytest.raises(GraphError):
        engine.update(huge)


# ----------------------------------------------------------------------
# Diff-free single-edge entry points (the cache forwarder's API)
# ----------------------------------------------------------------------
def test_add_edge_matches_fresh_engine(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        heads, tails, w = random_weighted_edges(rng, n, 0.3)
        engine = WeightedDistanceEngine(
            build_weighted_csr(n, heads, tails, w), max_weight=8
        )
        present = set(zip(heads.tolist(), tails.tolist()))
        cands = [
            (x, y)
            for x in range(n)
            for y in range(x + 1, n)
            if (x, y) not in present
        ]
        if not cands:
            continue
        x, y = cands[int(rng.integers(len(cands)))]
        nw = int(rng.integers(1, 9))
        status = engine.add_edge(x, y, nw)
        assert status in ("delta", "rebuild")
        ref = scipy_weighted_oracle(
            n, np.append(heads, x), np.append(tails, y), np.append(w, nw)
        )
        assert np.array_equal(engine.distances(), ref)


def test_add_edge_validates_inputs():
    engine = WeightedDistanceEngine(
        build_weighted_csr(4, np.array([0]), np.array([1]), np.array([2])),
        max_weight=4,
    )
    with pytest.raises(GraphError):
        engine.add_edge(0, 1, 1)  # already present
    with pytest.raises(GraphError):
        engine.add_edge(2, 2, 1)  # self-loop
    with pytest.raises(GraphError):
        engine.add_edge(0, 4, 1)  # out of range
    with pytest.raises(GraphError):
        engine.add_edge(2, 3, 0)  # non-positive weight
    with pytest.raises(GraphError):
        engine.add_edge(2, 3, 10**6)  # sentinel overflow


def test_remove_then_add_edge_roundtrip(rng):
    heads = np.array([0, 1, 2, 3])
    tails = np.array([1, 2, 3, 4])
    w = np.array([2, 1, 3, 1])
    engine = WeightedDistanceEngine(build_weighted_csr(5, heads, tails, w), max_weight=4)
    before = engine.distances()
    engine.remove_edge(1, 2)
    engine.add_edge(1, 2, 1)
    assert np.array_equal(engine.distances(), before)


def test_sentinel_scales_with_max_weight():
    # Unit weights keep the paper's Cinf; heavy weights push it up so
    # every finite distance stays below the sentinel.
    unit = WeightedDistanceEngine(
        build_weighted_csr(4, np.array([0]), np.array([1]), np.array([1]))
    )
    assert unit.inf == cinf(4)
    heavy = WeightedDistanceEngine(
        build_weighted_csr(4, np.array([0]), np.array([1]), np.array([9])), max_weight=9
    )
    assert heavy.inf > (4 - 1) * 9


# ----------------------------------------------------------------------
# EdgeWeightMap
# ----------------------------------------------------------------------
def test_edge_weight_map_revision_and_lookup():
    ew = EdgeWeightMap()
    assert ew.is_unit() and ew.revision == 0
    ew.set_weight(2, 0, 5)
    assert ew.revision == 1
    assert ew.weight(0, 2) == 5 and ew.weight(2, 0) == 5
    assert ew.weight(0, 1) == 1
    assert ew.max_weight() == 5 and not ew.is_unit()
    with pytest.raises(GraphError):
        ew.set_weight(1, 1, 3)
    with pytest.raises(GraphError):
        ew.set_weight(0, 1, 0)
    with pytest.raises(GraphError):
        EdgeWeightMap(default=0)


def test_edge_weight_map_array_alignment():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(1, 2)
    g.add_arc(2, 3)
    ew = EdgeWeightMap(overrides={(1, 2): 7, (0, 3): 9})  # {0,3} absent: ignored
    csr = g.undirected_csr()
    wcsr = weighted_csr_from_csr(csr, ew)
    assert wcsr.edge_weight(1, 2) == 7
    assert wcsr.edge_weight(2, 1) == 7
    assert wcsr.edge_weight(0, 1) == 1
    engine = WeightedDistanceEngine(wcsr, max_weight=9)
    assert engine.distance(0, 3) == 1 + 7 + 1
