"""Conformance suite for :class:`~repro.graphs.engine.DistanceEngine`.

The engine's contract, each case checked against an independent
oracle or a fresh build: scipy/networkx-exact matrices, batched BFS
rows across source-chunk boundaries, updates indistinguishable from
recomputation, a noop on rolled-back substrates, an epoch/staleness
guard, read-only views and the lazy row-on-demand read tiers. ``test_graphs_engine.py`` keeps the
``from_graph`` construction surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, StaleDistanceError, VertexError
from repro.graphs import (
    UNREACHABLE,
    DistanceEngine,
    OwnedDigraph,
    all_pairs_distances,
    batched_pair_distances,
    bfs_distances,
    cinf,
    csr_without_vertex,
)
from repro.graphs.engine import _BFS_CHUNK

from conftest import (
    networkx_distance_oracle,
    random_owned_digraph,
    random_strategy_swap,
    scipy_distance_oracle,
)


@pytest.fixture(autouse=True, params=["unit"])
def edge_lengths(request) -> str:
    """Every case runs on unit edge lengths, the only kind the engine
    takes; the parameter tags each case id with ``[unit]``."""
    return request.param


# ----------------------------------------------------------------------
# Batched kernel vs scipy / networkx oracles
# ----------------------------------------------------------------------
def test_initial_build_matches_scipy_and_networkx(rng):
    for _ in range(10):
        n = int(rng.integers(2, 16))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.05, 0.45)))
        engine = DistanceEngine(g.undirected_csr())
        got = engine.distances()
        assert np.array_equal(got, scipy_distance_oracle(g))
        assert np.array_equal(got, networkx_distance_oracle(g))


def test_disconnected_graph_uses_unreachable_sentinel(two_components):
    engine = DistanceEngine(two_components.undirected_csr())
    d = engine.distances()
    assert d[0, 1] == 1
    assert d[0, 2] == UNREACHABLE
    assert d[4, 0] == UNREACHABLE
    assert d[4, 4] == 0
    # Internally unreachable pairs carry the finite Cinf sentinel.
    assert engine.inf == cinf(5)
    assert engine.matrix[0, 2] == cinf(5)
    assert engine.distance(0, 2) == UNREACHABLE
    assert engine.distance(2, 3) == 1


def test_distances_from_batched_rows_match_oracle(rng):
    for _ in range(6):
        n = int(rng.integers(3, 18))
        g = random_owned_digraph(rng, n, p=0.2)
        engine = DistanceEngine(g.undirected_csr())
        oracle = scipy_distance_oracle(g)
        oracle[oracle == UNREACHABLE] = engine.inf
        k = int(rng.integers(1, n + 1))
        sources = rng.choice(n, size=k, replace=False)
        rows = engine.distances_from(sources)
        assert np.array_equal(rows, oracle[sources])
        # Preallocated buffer path returns identical content.
        buf = np.empty((k, n), dtype=rows.dtype)
        out = engine.distances_from(sources, out=buf)
        assert out is buf
        assert np.array_equal(buf, rows)


def test_batched_rows_across_source_chunks_match_per_source_bfs(rng):
    """More sources than one BFS chunk: every row, on either side of
    each chunk boundary, equals a single-source BFS."""
    n = 2 * _BFS_CHUNK + 37
    g = OwnedDigraph(n)
    for u in range(n - 20):  # a random functional graph; 20 sinks
        v = int(rng.integers(n - 1))
        g.add_arc(u, v + (v >= u))
    csr = g.undirected_csr()
    engine = DistanceEngine(csr)
    oracle = np.stack([bfs_distances(csr, s) for s in range(n)])
    oracle[oracle == UNREACHABLE] = engine.inf
    assert (oracle == engine.inf).any()  # several components
    assert np.array_equal(np.asarray(engine.matrix), oracle)
    sources = rng.permutation(n)
    assert np.array_equal(engine.distances_from(sources), oracle[sources])
    pairs = np.stack([sources, rng.integers(n, size=n)], axis=1)
    assert np.array_equal(
        batched_pair_distances(csr, pairs, inf=engine.inf),
        oracle[pairs[:, 0], pairs[:, 1]],
    )


def test_isolated_substrate_matches_bfs_reference(rng):
    for _ in range(6):
        n = int(rng.integers(2, 14))
        g = random_owned_digraph(rng, n, p=0.3)
        u = int(rng.integers(n))
        engine = DistanceEngine(csr_without_vertex(g.undirected_csr(), u))
        ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), u))
        assert np.array_equal(engine.distances(), ref)
        assert engine.csr.degree(u) == 0


# ----------------------------------------------------------------------
# update == recompute
# ----------------------------------------------------------------------
def test_update_tracks_random_swaps(rng):
    for _ in range(5):
        n = int(rng.integers(3, 16))
        g = random_owned_digraph(rng, n, p=0.25)
        engine = DistanceEngine(g.undirected_csr())
        for _ in range(8):
            random_strategy_swap(rng, g)
            status = engine.update(g.undirected_csr())
            assert status in ("noop", "rebuild")
            assert np.array_equal(engine.distances(), scipy_distance_oracle(g))


def test_update_handles_disconnection_and_reconnection():
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    engine = DistanceEngine(g.undirected_csr())
    # Cut the path in the middle: everything across the cut unreachable.
    g.remove_arc(2, 3)
    engine.update(g.undirected_csr())
    assert np.array_equal(engine.distances(), scipy_distance_oracle(g))
    assert engine.distance(0, 5) == UNREACHABLE
    # Reconnect differently.
    g.add_arc(0, 5)
    engine.update(g.undirected_csr())
    assert np.array_equal(engine.distances(), scipy_distance_oracle(g))
    assert engine.distance(2, 3) == 5  # rerouted 2-1-0-5-4-3


# ----------------------------------------------------------------------
# Rollback / noop semantics
# ----------------------------------------------------------------------
def test_update_noop_on_identical_edge_set():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(1, 2)
    engine = DistanceEngine(g.undirected_csr())
    epoch = engine.epoch
    # A brace collapses onto the existing undirected edge: no edge-set
    # change, so distances and the epoch stay put.
    g.add_arc(1, 0)
    assert engine.update(g.undirected_csr()) == "noop"
    assert engine.epoch == epoch
    g.remove_arc(1, 0)
    assert engine.update(g.undirected_csr()) == "noop"
    assert engine.epoch == epoch


def test_rollback_after_synced_change_restores_distances(rng):
    g = random_owned_digraph(rng, 9, p=0.3)
    engine = DistanceEngine(g.undirected_csr())
    before = engine.distances()
    u = int(rng.integers(9))
    old = [int(v) for v in g.out_neighbors(u)]
    others = [v for v in range(9) if v != u]
    g.set_strategy(u, [int(v) for v in rng.choice(others, size=3, replace=False)])
    engine.update(g.undirected_csr())  # sync the change
    g.set_strategy(u, old)  # and roll it back
    status = engine.update(g.undirected_csr())
    assert status in ("noop", "delta", "rebuild")
    assert np.array_equal(engine.distances(), before)


def test_update_rejects_size_change():
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    engine = DistanceEngine(g.undirected_csr())
    other = OwnedDigraph(5)
    other.add_arc(0, 1)
    with pytest.raises(GraphError):
        engine.update(other.undirected_csr())


# ----------------------------------------------------------------------
# Epoch / staleness contract
# ----------------------------------------------------------------------
def test_epoch_bumps_and_ensure_epoch_raises(rng):
    g = random_owned_digraph(rng, 8, p=0.3)
    engine = DistanceEngine(g.undirected_csr())
    seen = engine.epoch
    engine.ensure_epoch(seen)
    random_strategy_swap(rng, g)
    status = engine.update(g.undirected_csr())
    if status == "noop":
        engine.ensure_epoch(seen)
    else:
        assert engine.epoch != seen
        with pytest.raises(StaleDistanceError):
            engine.ensure_epoch(seen)


def test_matrix_view_is_read_only():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    engine = DistanceEngine(g.undirected_csr())
    with pytest.raises(ValueError):
        engine.matrix[0, 1] = 7
    with pytest.raises(ValueError):
        engine.row(0)[1] = 7


def test_vertex_and_input_validation():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    engine = DistanceEngine(g.undirected_csr())
    with pytest.raises(VertexError):
        engine.row(3)
    with pytest.raises(VertexError):
        engine.distance(0, -1)
    with pytest.raises(VertexError):
        engine.distances_from([0, 5])
    with pytest.raises(GraphError):
        DistanceEngine(g.undirected_csr(), inf=2)


def test_single_vertex_graph():
    g = OwnedDigraph(1)
    engine = DistanceEngine(g.undirected_csr())
    assert engine.distances().shape == (1, 1)
    assert engine.distance(0, 0) == 0


# ----------------------------------------------------------------------
# Query tier + lazy row-on-demand mode — the PR-6 contract
# ----------------------------------------------------------------------
def test_query_matches_matrix_including_cinf(rng):
    """Bidirectional point queries must be bit-identical to the full
    matrix entry on every pair — including the Cinf sentinel on
    disconnected pairs — on full and lazy engines alike."""
    for _ in range(8):
        n = int(rng.integers(2, 16))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.05, 0.4)))
        full = DistanceEngine(g.undirected_csr())
        lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
        ref = np.asarray(full.matrix)
        for u in range(n):
            for v in range(n):
                assert full.query(u, v) == int(ref[u, v])
                assert lazy.query(u, v) == int(ref[u, v])


def test_lazy_build_defers_all_pairs_work():
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    engine = DistanceEngine(g.undirected_csr(), rows="lazy")
    assert engine.lazy
    assert engine.stats["rebuilds"] == 0  # no initial all-pairs sweep
    assert engine.hot_rows().size == 0
    assert engine.query(0, 5) == 5
    assert engine.lazy  # a point query materialises nothing
    assert engine.hot_rows().size == 0
    assert engine.stats["point_queries"] == 1


def test_lazy_row_reads_materialise_on_demand(rng):
    g = random_owned_digraph(rng, 10, p=0.3)
    full = DistanceEngine(g.undirected_csr())
    lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
    got = lazy.row(3)
    assert np.array_equal(got, np.asarray(full.matrix)[3])
    if lazy.lazy:  # a small promotion threshold may already have fired
        assert 3 in lazy.hot_rows().tolist()
    with pytest.raises(ValueError):
        got[0] = 7  # read-only view either way


def test_lazy_engine_promotes_at_half_the_rows():
    g = OwnedDigraph(10)
    for i in range(9):
        g.add_arc(i, i + 1)
    lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
    assert lazy.promotion_threshold() == 5
    lazy.ensure_rows([0, 1, 2, 3])
    assert lazy.lazy
    lazy.ensure_rows([4])
    assert not lazy.lazy
    assert lazy.stats["promotions"] == 1


def test_lazy_matrix_read_promotes_to_full(rng):
    g = random_owned_digraph(rng, 9, p=0.3)
    full = DistanceEngine(g.undirected_csr())
    lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
    epoch = lazy.epoch
    assert np.array_equal(np.asarray(lazy.matrix), np.asarray(full.matrix))
    assert not lazy.lazy
    assert lazy.stats["promotions"] == 1
    assert lazy.epoch == epoch  # promotion is a read, not a mutation


def test_lazy_mutations_keep_hot_rows_exact(rng):
    """Arbitrary swap sequences on a lazy engine: every read (point
    query, row, promoted matrix) agrees with a fresh build of the
    current substrate at every step."""
    for _ in range(4):
        n = int(rng.integers(4, 12))
        g = random_owned_digraph(rng, n, p=0.3)
        lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
        # Warm a few rows; a changed substrate must drop them.
        lazy.ensure_rows([0, n // 2])
        for _ in range(8):
            random_strategy_swap(rng, g)
            lazy.update(g.undirected_csr())
            fresh = DistanceEngine(g.undirected_csr())
            ref = np.asarray(fresh.matrix)
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            assert lazy.query(u, v) == int(ref[u, v])
            assert np.array_equal(lazy.row(u), ref[u])
            if lazy.lazy:
                for s in lazy.hot_rows().tolist():
                    assert np.array_equal(lazy.row(s), ref[s])
        assert np.array_equal(
            np.asarray(lazy.matrix),
            np.asarray(DistanceEngine(g.undirected_csr()).matrix),
        )


def test_lazy_staleness_contract(rng):
    g = random_owned_digraph(rng, 8, p=0.35)
    lazy = DistanceEngine(g.undirected_csr(), rows="lazy")
    seen = lazy.epoch
    lazy.ensure_epoch(seen)
    arcs = list(g.arcs())
    if not arcs:
        return
    lazy.ensure_rows([0])
    for u, v in arcs:
        g.remove_arc(u, v)
    # A changed edge set drops the hot rows instead of recomputing them.
    assert lazy.update(g.undirected_csr()) == "rebuild"
    assert lazy.lazy and lazy.hot_rows().size == 0
    assert lazy.epoch != seen
    with pytest.raises(StaleDistanceError):
        lazy.ensure_epoch(seen)


def test_lazy_rejects_unknown_rows_mode():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    with pytest.raises(GraphError):
        DistanceEngine(g.undirected_csr(), rows="eager")
