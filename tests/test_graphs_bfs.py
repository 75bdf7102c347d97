"""Unit tests for the vectorised BFS kernels, cross-checked vs oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import VertexError
from repro.graphs.bfs import (
    _BFS_CHUNK,
    UNREACHABLE,
    all_pairs_distances,
    bfs_distances,
    bfs_layers,
    bfs_parents,
    distances_from_sources,
    multi_source_bfs,
)
from repro.graphs.csr import build_csr

from conftest import random_owned_digraph, random_tree_digraph, to_networkx_undirected


def _path_csr(n):
    heads = np.arange(n - 1)
    tails = np.arange(1, n)
    return build_csr(n, heads, tails)


def test_single_source_path():
    csr = _path_csr(6)
    d = bfs_distances(csr, 0)
    assert d.tolist() == [0, 1, 2, 3, 4, 5]
    d = bfs_distances(csr, 3)
    assert d.tolist() == [3, 2, 1, 0, 1, 2]


def test_unreachable_sentinel():
    csr = build_csr(4, np.array([0]), np.array([1]))
    d = bfs_distances(csr, 0)
    assert d[0] == 0 and d[1] == 1
    assert d[2] == UNREACHABLE and d[3] == UNREACHABLE


def test_multi_source_is_min_over_sources():
    csr = _path_csr(7)
    d = multi_source_bfs(csr, [0, 6])
    assert d.tolist() == [0, 1, 2, 3, 2, 1, 0]


def test_multi_source_empty_sources():
    csr = _path_csr(3)
    d = multi_source_bfs(csr, np.array([], dtype=np.int64))
    assert (d == UNREACHABLE).all()


def test_multi_source_duplicate_sources():
    csr = _path_csr(4)
    d = multi_source_bfs(csr, [1, 1, 1])
    assert d.tolist() == [1, 0, 1, 2]


def test_invalid_source_raises():
    csr = _path_csr(3)
    with pytest.raises(VertexError):
        bfs_distances(csr, 3)
    with pytest.raises(VertexError):
        multi_source_bfs(csr, [-1])


def test_parents_encode_shortest_path_tree():
    csr = _path_csr(5)
    dist, parent = bfs_parents(csr, 2)
    assert parent[2] == 2
    # Walking parents from any vertex decreases distance by 1 each step.
    for v in range(5):
        if dist[v] <= 0:
            continue
        w = v
        steps = 0
        while w != 2:
            w = int(parent[w])
            steps += 1
        assert steps == dist[v]


def test_parents_unreachable():
    csr = build_csr(3, np.array([0]), np.array([1]))
    dist, parent = bfs_parents(csr, 0)
    assert parent[2] == -1 and dist[2] == UNREACHABLE


def test_layers_partition_reachable_set():
    csr = _path_csr(5)
    layers = bfs_layers(csr, 0)
    assert [l.tolist() for l in layers] == [[0], [1], [2], [3], [4]]


def test_layers_of_isolated_vertex():
    csr = build_csr(2, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    layers = bfs_layers(csr, 0)
    assert len(layers) == 1 and layers[0].tolist() == [0]


def test_all_pairs_matches_networkx(rng):
    import networkx as nx

    for _ in range(10):
        n = int(rng.integers(2, 15))
        g = random_owned_digraph(rng, n, p=0.25)
        csr = g.undirected_csr()
        ours = all_pairs_distances(csr)
        G = to_networkx_undirected(g)
        for u in range(n):
            lengths = nx.single_source_shortest_path_length(G, u)
            for v in range(n):
                expected = lengths.get(v, UNREACHABLE)
                assert ours[u, v] == expected, (u, v)


def test_all_pairs_matches_scipy(rng):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = 20
    g = random_owned_digraph(rng, n, p=0.15)
    csr = g.undirected_csr()
    ours = all_pairs_distances(csr).astype(float)
    ours[ours == UNREACHABLE] = np.inf
    data = np.ones(csr.indices.size)
    mat = csr_matrix((data, csr.indices, csr.indptr), shape=(n, n))
    theirs = shortest_path(mat, method="D", unweighted=True)
    assert np.array_equal(ours, theirs)


def test_distances_from_sources_rows():
    csr = _path_csr(4)
    mat = distances_from_sources(csr, [3, 0])
    assert mat[0].tolist() == [3, 2, 1, 0]
    assert mat[1].tolist() == [0, 1, 2, 3]


def test_symmetry_of_all_pairs(rng):
    g = random_owned_digraph(rng, 12, p=0.2)
    d = all_pairs_distances(g.undirected_csr())
    assert np.array_equal(d, d.T)


# ----------------------------------------------------------------------
# Batched all-pairs helpers against per-source multi_source_bfs
# ----------------------------------------------------------------------
def _per_source(csr, sources):
    """Reference rows: one single-source BFS per entry of ``sources``."""
    rows = [multi_source_bfs(csr, [int(s)]) for s in sources]
    return np.stack(rows) if rows else np.empty((0, csr.n), dtype=np.int64)


def _forest_with_isolated_vertex(rng, n):
    """A random tree with chords on vertices ``0 .. n - 2``; ``n - 1`` is
    isolated."""
    tree = random_tree_digraph(rng, n - 1, extra_edges=n // 10)
    return build_csr(n, *np.asarray(list(tree.arcs()), dtype=np.int64).T)


def test_all_pairs_spans_source_chunks(rng):
    n = 2 * _BFS_CHUNK + 45
    csr = _forest_with_isolated_vertex(rng, n)
    got = all_pairs_distances(csr)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_source(csr, range(n)))
    lone = n - 1
    assert got[lone, lone] == 0
    assert (np.delete(got[lone], lone) == UNREACHABLE).all()
    assert (np.delete(got[:, lone], lone) == UNREACHABLE).all()


def test_distances_from_sources_across_chunks_with_duplicates(rng):
    n = 60
    csr = _forest_with_isolated_vertex(rng, n)
    sources = rng.integers(0, n, size=_BFS_CHUNK + 100)
    sources[:3] = [7, n - 1, 7]
    got = distances_from_sources(csr, sources)
    assert np.array_equal(got, _per_source(csr, sources))
    assert np.array_equal(got[0], got[2])
    for s in np.unique(sources):
        rows = got[sources == s]
        assert (rows == rows[0]).all()


def test_distances_from_sources_empty_sources():
    csr = _path_csr(5)
    got = distances_from_sources(csr, [])
    assert got.shape == (0, 5) and got.dtype == np.int64


def test_distances_from_sources_isolated_vertex():
    csr = build_csr(3, np.array([0]), np.array([1]))
    got = distances_from_sources(csr, [2, 0])
    assert got.tolist() == [[UNREACHABLE, UNREACHABLE, 0], [0, 1, UNREACHABLE]]


def test_distances_from_sources_out_of_range_raises():
    csr = _path_csr(4)
    for bad in ([0, 4], [-1], [2, 7, 1]):
        with pytest.raises(VertexError):
            distances_from_sources(csr, bad)
