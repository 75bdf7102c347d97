"""One conformance suite for every distance-engine implementation.

The unit BFS engine and the weighted Dial engine (run on unit weights)
promise the same contract: scipy/networkx-exact matrices, delta repairs
indistinguishable from recomputation, a noop on rolled-back substrates,
an epoch/staleness guard and read-only views. Each case here runs once
per engine via the ``engine_harness`` fixture matrix in
``conftest.py`` — except copy-on-write snapshot adoption, which only
the unit engine offers — replacing the
copy-pasted suites that ``test_graphs_engine.py`` and
``test_weighted_engine.py`` used to carry (those files retain only
engine-specific behavior: real weights, pendant fast paths, adaptive
budgets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, StaleDistanceError, VertexError
from repro.graphs import UNREACHABLE, OwnedDigraph, all_pairs_distances, cinf

from conftest import (
    networkx_distance_oracle,
    random_owned_digraph,
    random_strategy_swap,
    random_tree_digraph,
    scipy_distance_oracle,
)


# ----------------------------------------------------------------------
# Batched kernel vs scipy / networkx oracles
# ----------------------------------------------------------------------
def test_initial_build_matches_scipy_and_networkx(rng, engine_harness):
    for _ in range(10):
        n = int(rng.integers(2, 16))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.05, 0.45)))
        engine = engine_harness.build(g.undirected_csr())
        got = engine.distances()
        assert np.array_equal(got, scipy_distance_oracle(g))
        assert np.array_equal(got, networkx_distance_oracle(g))


def test_disconnected_graph_uses_unreachable_sentinel(two_components, engine_harness):
    engine = engine_harness.build(two_components.undirected_csr())
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


def test_distances_from_batched_rows_match_oracle(rng, engine_harness):
    for _ in range(6):
        n = int(rng.integers(3, 18))
        g = random_owned_digraph(rng, n, p=0.2)
        engine = engine_harness.build(g.undirected_csr())
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


def test_isolated_substrate_matches_bfs_reference(rng, engine_harness):
    from repro.graphs import csr_without_vertex

    for _ in range(6):
        n = int(rng.integers(2, 14))
        g = random_owned_digraph(rng, n, p=0.3)
        u = int(rng.integers(n))
        engine = engine_harness.build_isolated(g.undirected_csr(), u)
        ref = all_pairs_distances(csr_without_vertex(g.undirected_csr(), u))
        assert np.array_equal(engine.distances(), ref)
        assert engine_harness.degree(engine, u) == 0


# ----------------------------------------------------------------------
# Delta repair == recompute
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dirty_fraction", [None, 1.0, 0.0])
def test_update_tracks_random_swaps(rng, engine_harness, dirty_fraction):
    kwargs = {} if dirty_fraction is None else {"dirty_fraction": dirty_fraction}
    for _ in range(5):
        n = int(rng.integers(3, 16))
        g = random_owned_digraph(rng, n, p=0.25)
        engine = engine_harness.build(g.undirected_csr(), **kwargs)
        for _ in range(8):
            random_strategy_swap(rng, g)
            status = engine_harness.update(engine, g.undirected_csr())
            assert status in ("noop", "delta", "rebuild")
            if dirty_fraction == 0.0:
                assert status in ("noop", "rebuild")
            assert np.array_equal(engine.distances(), scipy_distance_oracle(g))


def test_update_handles_disconnection_and_reconnection(engine_harness):
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    engine = engine_harness.build(g.undirected_csr(), dirty_fraction=1.0)
    # Cut the path in the middle: everything across the cut unreachable.
    g.remove_arc(2, 3)
    engine_harness.update(engine, g.undirected_csr())
    assert np.array_equal(engine.distances(), scipy_distance_oracle(g))
    assert engine.distance(0, 5) == UNREACHABLE
    # Reconnect differently.
    g.add_arc(0, 5)
    engine_harness.update(engine, g.undirected_csr())
    assert np.array_equal(engine.distances(), scipy_distance_oracle(g))
    assert engine.distance(2, 3) == 5  # rerouted 2-1-0-5-4-3


# ----------------------------------------------------------------------
# Diff-free entry points + deletion repair hierarchy
# ----------------------------------------------------------------------
def test_remove_and_add_edge_equal_recompute(rng, engine_harness):
    """remove_edge / add_edge (the diff-free op-forwarding entry
    points) must be indistinguishable from a fresh build at every step."""
    for _ in range(6):
        n = int(rng.integers(3, 14))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.15, 0.45)))
        engine = engine_harness.build(g.undirected_csr())
        for _ in range(12):
            csr = engine_harness.current_substrate_csr(engine)
            edges = [
                (u, int(v)) for u in range(n) for v in csr.neighbors(u) if u < int(v)
            ]
            if edges and rng.random() < 0.6:
                x, y = edges[int(rng.integers(len(edges)))]
                status = engine_harness.remove_edge(engine, x, y)
            else:
                non = [
                    (a, b)
                    for a in range(n)
                    for b in range(a + 1, n)
                    if not csr.has_edge(a, b)
                ]
                if not non:
                    continue
                x, y = non[int(rng.integers(len(non)))]
                status = engine_harness.add_edge(engine, x, y)
            assert status in ("delta", "rebuild")
            fresh = engine_harness.build(engine_harness.current_substrate_csr(engine))
            assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))


def test_remove_edge_rejects_absent_and_add_rejects_present(engine_harness):
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    engine = engine_harness.build(g.undirected_csr())
    with pytest.raises(GraphError):
        engine_harness.remove_edge(engine, 0, 2)
    with pytest.raises(GraphError):
        engine_harness.add_edge(engine, 0, 1)


def test_pendant_removal_is_a_column_fix(engine_harness):
    """Removing a degree-1 endpoint's edge must repair below row
    granularity: no rebuild, no row recompute, a pendant-fix stat."""
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    engine = engine_harness.build(g.undirected_csr())
    rows_before = engine.stats["rows_recomputed"]
    status = engine_harness.remove_edge(engine, 4, 5)  # 5 is a leaf
    assert status == "delta"
    assert engine.stats["pendant_fixes"] == 1
    assert engine.stats["rebuilds"] == 1  # only the constructor's
    assert engine.stats["rows_recomputed"] == rows_before
    assert engine.distance(0, 5) == UNREACHABLE
    assert engine.distance(5, 5) == 0
    fresh = engine_harness.build(engine_harness.current_substrate_csr(engine))
    assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))


def test_tree_deletions_use_affected_region_not_rows(rng, engine_harness):
    """On tree-like substrates every deletion must resolve in the
    pendant or affected-region tier — zero whole-row recomputes and
    zero rebuilds — while staying bit-identical to a fresh build."""
    g = random_tree_digraph(rng, 20)
    engine = engine_harness.build(g.undirected_csr())
    for key in engine.stats:
        engine.stats[key] = 0
    edges = [
        (u, int(v))
        for u in range(20)
        for v in g.undirected_csr().neighbors(u)
        if u < int(v)
    ]
    rng.shuffle(edges)
    for x, y in edges:
        status = engine_harness.remove_edge(engine, x, y)
        assert status == "delta"
        fresh = engine_harness.build(engine_harness.current_substrate_csr(engine))
        assert np.array_equal(np.asarray(engine.matrix), np.asarray(fresh.matrix))
    assert engine.stats["rebuilds"] == 0
    assert engine.stats["rows_recomputed"] == 0
    assert engine.stats["region_repairs"] > 0
    assert engine.stats["pendant_fixes"] > 0
    assert engine.stats["region_vertices"] > 0


# ----------------------------------------------------------------------
# Rollback / noop semantics
# ----------------------------------------------------------------------
def test_update_noop_on_identical_edge_set(engine_harness):
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    g.add_arc(1, 2)
    engine = engine_harness.build(g.undirected_csr())
    epoch = engine.epoch
    # A brace collapses onto the existing undirected edge: no edge-set
    # change, so distances and the epoch stay put.
    g.add_arc(1, 0)
    assert engine_harness.update(engine, g.undirected_csr()) == "noop"
    assert engine.epoch == epoch
    g.remove_arc(1, 0)
    assert engine_harness.update(engine, g.undirected_csr()) == "noop"
    assert engine.epoch == epoch


def test_rollback_after_synced_change_restores_distances(rng, engine_harness):
    g = random_owned_digraph(rng, 9, p=0.3)
    engine = engine_harness.build(g.undirected_csr())
    before = engine.distances()
    u = int(rng.integers(9))
    old = [int(v) for v in g.out_neighbors(u)]
    others = [v for v in range(9) if v != u]
    g.set_strategy(u, [int(v) for v in rng.choice(others, size=3, replace=False)])
    engine_harness.update(engine, g.undirected_csr())  # sync the change
    g.set_strategy(u, old)  # and roll it back
    status = engine_harness.update(engine, g.undirected_csr())
    assert status in ("noop", "delta", "rebuild")
    assert np.array_equal(engine.distances(), before)


def test_update_rejects_size_change(engine_harness):
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    engine = engine_harness.build(g.undirected_csr())
    other = OwnedDigraph(5)
    other.add_arc(0, 1)
    with pytest.raises(GraphError):
        engine_harness.update(engine, other.undirected_csr())


# ----------------------------------------------------------------------
# Epoch / staleness contract
# ----------------------------------------------------------------------
def test_epoch_bumps_and_ensure_epoch_raises(rng, engine_harness):
    g = random_owned_digraph(rng, 8, p=0.3)
    engine = engine_harness.build(g.undirected_csr())
    seen = engine.epoch
    engine.ensure_epoch(seen)
    random_strategy_swap(rng, g)
    status = engine_harness.update(engine, g.undirected_csr())
    if status == "noop":
        engine.ensure_epoch(seen)
    else:
        assert engine.epoch != seen
        with pytest.raises(StaleDistanceError):
            engine.ensure_epoch(seen)


def test_matrix_view_is_read_only(engine_harness):
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    engine = engine_harness.build(g.undirected_csr())
    with pytest.raises(ValueError):
        engine.matrix[0, 1] = 7
    with pytest.raises(ValueError):
        engine.row(0)[1] = 7


def test_vertex_and_input_validation(engine_harness):
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    engine = engine_harness.build(g.undirected_csr())
    with pytest.raises(VertexError):
        engine.row(3)
    with pytest.raises(VertexError):
        engine.distance(0, -1)
    with pytest.raises(VertexError):
        engine.distances_from([0, 5])
    with pytest.raises(GraphError):
        engine_harness.build(g.undirected_csr(), dirty_fraction=1.5)
    with pytest.raises(GraphError):
        engine_harness.build(g.undirected_csr(), inf=2)


def test_single_vertex_graph(engine_harness):
    g = OwnedDigraph(1)
    engine = engine_harness.build(g.undirected_csr())
    assert engine.distances().shape == (1, 1)
    assert engine.distance(0, 0) == 0


# ----------------------------------------------------------------------
# Snapshot adoption (copy-on-write) — the serve pool-store contract
# ----------------------------------------------------------------------
_UNIT_ONLY = pytest.mark.parametrize("engine_harness", ["unit"], indirect=True)


@_UNIT_ONLY
def test_snapshot_adoption_matches_rebuild(rng, engine_harness):
    g = random_owned_digraph(rng, 10, p=0.3)
    built = engine_harness.build(g.undirected_csr())
    adopted = engine_harness.from_snapshot(g.undirected_csr(), built.matrix)
    assert adopted.copy_on_write
    assert adopted.stats["rebuilds"] == 0  # no initial BFS/SSSP paid
    assert np.array_equal(adopted.distances(), built.distances())
    assert adopted.matrix.dtype == built.matrix.dtype
    assert adopted.inf == built.inf


@_UNIT_ONLY
def test_snapshot_repairs_equal_recompute_and_never_write_source(rng, engine_harness):
    g = random_owned_digraph(rng, 9, p=0.3)
    built = engine_harness.build(g.undirected_csr())
    source = np.asarray(built.matrix).copy()
    frozen = source.copy()
    frozen.flags.writeable = False
    adopted = engine_harness.from_snapshot(g.undirected_csr(), frozen)
    for _ in range(6):
        random_strategy_swap(rng, g)
        adopted_status = engine_harness.update(adopted, g.undirected_csr())
        assert np.array_equal(adopted.distances(), scipy_distance_oracle(g))
        if adopted_status != "noop":
            assert not adopted.copy_on_write
    # The adopted buffer was never written, even across repairs/rebuilds.
    assert np.array_equal(np.asarray(frozen), source)


@_UNIT_ONLY
def test_snapshot_copy_mode_detaches_immediately(rng, engine_harness):
    g = random_owned_digraph(rng, 7, p=0.35)
    built = engine_harness.build(g.undirected_csr())
    adopted = engine_harness.from_snapshot(g.undirected_csr(), built.matrix, copy=True)
    assert not adopted.copy_on_write
    assert np.array_equal(adopted.distances(), built.distances())


@_UNIT_ONLY
def test_snapshot_validates_shape_and_dtype(engine_harness):
    g = OwnedDigraph(4)
    g.add_arc(0, 1)
    built = engine_harness.build(g.undirected_csr())
    with pytest.raises(GraphError):
        engine_harness.from_snapshot(
            g.undirected_csr(), np.zeros((3, 3), dtype=built.matrix.dtype)
        )
    with pytest.raises(GraphError):
        engine_harness.from_snapshot(
            g.undirected_csr(), np.asarray(built.matrix, dtype=np.float64)
        )


# ----------------------------------------------------------------------
# Query tier + lazy row-on-demand mode — the PR-6 contract
# ----------------------------------------------------------------------
def test_query_matches_matrix_including_cinf(rng, engine_harness):
    """Bidirectional point queries must be bit-identical to the full
    matrix entry on every pair — including the Cinf sentinel on
    disconnected pairs — across the whole conformance matrix."""
    for _ in range(8):
        n = int(rng.integers(2, 16))
        g = random_owned_digraph(rng, n, p=float(rng.uniform(0.05, 0.4)))
        full = engine_harness.build(g.undirected_csr())
        lazy = engine_harness.build(g.undirected_csr(), rows="lazy")
        ref = np.asarray(full.matrix)
        for u in range(n):
            for v in range(n):
                assert full.query(u, v) == int(ref[u, v])
                assert lazy.query(u, v) == int(ref[u, v])


def test_lazy_build_defers_all_pairs_work(engine_harness):
    g = OwnedDigraph(6)
    for i in range(5):
        g.add_arc(i, i + 1)
    engine = engine_harness.build(g.undirected_csr(), rows="lazy")
    assert engine.lazy
    assert engine.stats["rebuilds"] == 0  # no initial all-pairs sweep
    assert engine.hot_rows().size == 0
    assert engine.query(0, 5) == 5
    assert engine.lazy  # a point query materialises nothing
    assert engine.hot_rows().size == 0
    assert engine.stats["point_queries"] == 1


def test_lazy_row_reads_materialise_on_demand(rng, engine_harness):
    g = random_owned_digraph(rng, 10, p=0.3)
    full = engine_harness.build(g.undirected_csr())
    lazy = engine_harness.build(g.undirected_csr(), rows="lazy")
    got = lazy.row(3)
    assert np.array_equal(got, np.asarray(full.matrix)[3])
    if lazy.lazy:  # a small promotion threshold may already have fired
        assert 3 in lazy.hot_rows().tolist()
    with pytest.raises(ValueError):
        got[0] = 7  # read-only view either way


def test_lazy_matrix_read_promotes_to_full(rng, engine_harness):
    g = random_owned_digraph(rng, 9, p=0.3)
    full = engine_harness.build(g.undirected_csr())
    lazy = engine_harness.build(g.undirected_csr(), rows="lazy")
    epoch = lazy.epoch
    assert np.array_equal(np.asarray(lazy.matrix), np.asarray(full.matrix))
    assert not lazy.lazy
    assert lazy.stats["promotions"] == 1
    assert lazy.epoch == epoch  # promotion is a read, not a mutation


def test_lazy_mutations_keep_hot_rows_exact(rng, engine_harness):
    """Arbitrary remove/add/update sequences on a lazy engine: every
    read (point query, row, promoted matrix) agrees with a fresh build
    of the current substrate at every step."""
    for _ in range(4):
        n = int(rng.integers(4, 12))
        g = random_owned_digraph(rng, n, p=0.3)
        lazy = engine_harness.build(g.undirected_csr(), rows="lazy")
        # Warm a few rows so repairs have hot state to maintain.
        lazy.ensure_rows([0, n // 2])
        for _ in range(8):
            random_strategy_swap(rng, g)
            engine_harness.update(lazy, g.undirected_csr())
            fresh = engine_harness.build(g.undirected_csr())
            ref = np.asarray(fresh.matrix)
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            assert lazy.query(u, v) == int(ref[u, v])
            if lazy.lazy:
                for s in lazy.hot_rows().tolist():
                    assert np.array_equal(lazy.row(s), ref[s])
        assert np.array_equal(
            np.asarray(lazy.matrix),
            np.asarray(engine_harness.build(g.undirected_csr()).matrix),
        )


def test_lazy_staleness_contract(rng, engine_harness):
    g = random_owned_digraph(rng, 8, p=0.35)
    lazy = engine_harness.build(g.undirected_csr(), rows="lazy")
    seen = lazy.epoch
    lazy.ensure_epoch(seen)
    csr = engine_harness.current_substrate_csr(lazy)
    edges = [(u, int(v)) for u in range(8) for v in csr.neighbors(u) if u < int(v)]
    if not edges:
        return
    engine_harness.remove_edge(lazy, *edges[0])
    assert lazy.epoch != seen
    with pytest.raises(StaleDistanceError):
        lazy.ensure_epoch(seen)


def test_lazy_rejects_unknown_rows_mode(engine_harness):
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    with pytest.raises(GraphError):
        engine_harness.build(g.undirected_csr(), rows="eager")
