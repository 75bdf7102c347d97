"""Shared fixtures and oracle helpers for the test suite.

``networkx`` and ``scipy`` serve as independent oracles for the
from-scratch graph substrate; every random test is seeded for
reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import OwnedDigraph


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for a single test."""
    return np.random.default_rng(12345)


@pytest.fixture
def path5() -> OwnedDigraph:
    """Path 0-1-2-3-4 with forward arc ownership."""
    g = OwnedDigraph(5)
    for i in range(4):
        g.add_arc(i, i + 1)
    return g


@pytest.fixture
def brace_pair() -> OwnedDigraph:
    """Two vertices joined by a brace (anti-parallel arcs)."""
    g = OwnedDigraph(2)
    g.add_arc(0, 1)
    g.add_arc(1, 0)
    return g


@pytest.fixture
def two_components() -> OwnedDigraph:
    """Disconnected graph: edge 0-1 and edge 2-3, vertex 4 isolated."""
    g = OwnedDigraph(5)
    g.add_arc(0, 1)
    g.add_arc(2, 3)
    return g


def random_owned_digraph(
    rng: np.random.Generator, n: int, p: float = 0.3
) -> OwnedDigraph:
    """Erdős–Rényi style random realization (each ordered pair w.p. p,
    no braces forced — both directions may appear)."""
    g = OwnedDigraph(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_arc(u, v)
    return g


def random_tree_digraph(
    rng: np.random.Generator, n: int, extra_edges: int = 0
) -> OwnedDigraph:
    """Random tree-like realization: a uniform recursive tree plus up
    to ``extra_edges`` chords — the sparse regime where deletions dirty
    many rows but only small affected regions per row."""
    g = OwnedDigraph(n)
    for v in range(1, n):
        g.add_arc(int(rng.integers(v)), v)
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 20 * (extra_edges + 1):
        attempts += 1
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or g.has_arc(a, b) or g.has_arc(b, a):
            continue
        g.add_arc(a, b)
        added += 1
    return g


def to_networkx_undirected(g: OwnedDigraph):
    """Undirected networkx oracle view of a realization."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.underlying_edges())
    return G


def scipy_distance_oracle(g: OwnedDigraph) -> np.ndarray:
    """All-pairs distances of ``U(G)`` via scipy, UNREACHABLE for inf."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import shortest_path

    from repro.graphs import UNREACHABLE

    n = g.n
    mat = sp.lil_matrix((n, n), dtype=np.int64)
    for u, v in g.underlying_edges():
        mat[u, v] = 1
        mat[v, u] = 1
    dist = shortest_path(mat.tocsr(), method="D", unweighted=True, directed=False)
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def networkx_distance_oracle(g: OwnedDigraph) -> np.ndarray:
    """All-pairs distances of ``U(G)`` via networkx."""
    import networkx as nx

    from repro.graphs import UNREACHABLE

    G = to_networkx_undirected(g)
    out = np.full((g.n, g.n), UNREACHABLE, dtype=np.int64)
    for s, lengths in nx.all_pairs_shortest_path_length(G):
        for v, d in lengths.items():
            out[s, v] = d
    return out


def random_strategy_swap(rng: np.random.Generator, g: OwnedDigraph) -> None:
    """Replace one player's strategy with a random same-size one."""
    u = int(rng.integers(g.n))
    b = g.out_degree(u)
    others = [v for v in range(g.n) if v != u]
    k = min(b if b else int(rng.integers(0, g.n)), len(others))
    new = rng.choice(others, size=k, replace=False) if k else []
    g.set_strategy(u, [int(v) for v in np.atleast_1d(new)])


def naive_vertex_cost(g: OwnedDigraph, u: int, version: str) -> int:
    """Straight-from-the-definition cost via networkx shortest paths."""
    import networkx as nx

    G = to_networkx_undirected(g)
    n = g.n
    lengths = nx.single_source_shortest_path_length(G, u)
    dist = [lengths.get(v, n * n) for v in range(n)]
    if version == "sum":
        return sum(dist) - dist[u]
    kappa = nx.number_connected_components(G)
    others = [d for v, d in enumerate(dist) if v != u]
    local_diam = max(others) if others else 0
    return local_diam + (kappa - 1) * n * n


# ----------------------------------------------------------------------
# Rebuild-per-profile census oracles
# ----------------------------------------------------------------------
def brute_exact_prices(game, version, *, max_profiles: int = 500_000):
    """:class:`~repro.core.enumeration.ExactPriceReport` of a tiny game,
    one fresh graph, diameter and exact best-response check per profile."""
    from repro.core.costs import Version
    from repro.core.deviations import is_equilibrium
    from repro.core.enumeration import ExactPriceReport, enumerate_realizations
    from repro.graphs.distances import diameter

    version = Version.coerce(version)
    diams = []
    eq_diams = []
    for graph in enumerate_realizations(game, max_profiles=max_profiles):
        d = diameter(graph)
        diams.append(d)
        if is_equilibrium(graph, version, method="exact"):
            eq_diams.append(d)
    return ExactPriceReport(
        version=version,
        num_profiles=len(diams),
        num_equilibria=len(eq_diams),
        opt_diameter=min(diams),
        best_equilibrium_diameter=min(eq_diams, default=None),
        worst_equilibrium_diameter=max(eq_diams, default=None),
    )


def brute_weighted_census(game, weights, *, max_profiles: int = 500_000):
    """``(WeightedCensusReport, sorted equilibrium profile keys)`` of a
    tiny game: per profile a fresh graph, a fresh distance matrix and
    ``is_weighted_weak_equilibrium`` (itself checked against the brute
    swap oracle below)."""
    from repro.analysis.weighted import (
        WeightedRealization,
        is_weighted_weak_equilibrium,
    )
    from repro.core.enumeration import WeightedCensusReport, enumerate_realizations
    from repro.graphs.distances import distance_matrix

    w = np.asarray(weights, dtype=np.int64)
    active = np.flatnonzero(w > 0)
    diams, costs, eq = [], [], []
    for graph in enumerate_realizations(game, max_profiles=max_profiles):
        D = distance_matrix(graph)
        diams.append(int(D.max()))
        costs.append(int((D @ w)[active].sum()))
        if is_weighted_weak_equilibrium(WeightedRealization(graph=graph, weights=w)):
            eq.append((diams[-1], costs[-1], graph.profile_key()))
    report = WeightedCensusReport(
        weights=tuple(int(x) for x in w),
        num_profiles=len(diams),
        num_weak_equilibria=len(eq),
        opt_diameter=min(diams),
        opt_social_cost=min(costs),
        best_equilibrium_diameter=min((d for d, _, _ in eq), default=None),
        worst_equilibrium_diameter=max((d for d, _, _ in eq), default=None),
        best_equilibrium_social_cost=min((c for _, c, _ in eq), default=None),
        worst_equilibrium_social_cost=max((c for _, c, _ in eq), default=None),
    )
    return report, tuple(sorted(key for _, _, key in eq))


# ----------------------------------------------------------------------
# Section 6 oracles: no engine, no environment, no in-place folding
# ----------------------------------------------------------------------
def _weighted_cost_by_bfs(graph: OwnedDigraph, u: int, weights) -> int:
    """``sum_v w(v) dist(u, v)`` from one fresh BFS, ``n^2`` across
    components."""
    from repro.graphs.bfs import UNREACHABLE, bfs_distances

    d = bfs_distances(graph.undirected_csr(), u).astype(np.int64)
    d[d == UNREACHABLE] = graph.n * graph.n
    return int(d @ np.asarray(weights, dtype=np.int64))


def brute_weighted_sum_cost(wr, u: int) -> int:
    """Weighted SUM cost of ``u`` read off the scipy distance oracle."""
    from repro.graphs import UNREACHABLE

    d = scipy_distance_oracle(wr.graph)[u]
    d[d == UNREACHABLE] = wr.graph.n * wr.graph.n
    return int(d @ np.asarray(wr.weights, dtype=np.int64))


def brute_weighted_swap_improves(wr, u: int) -> bool:
    """Apply every legal ``(drop, add)`` swap of ``u`` to a copy of the
    graph and price it with a fresh BFS. Legal targets are every vertex
    but ``u``, its current targets and weight-0 (folded) ghosts."""
    g = wr.graph
    cur = [int(v) for v in g.out_neighbors(u)]
    base = _weighted_cost_by_bfs(g, u, wr.weights)
    for drop in cur:
        for add in range(g.n):
            if add == u or add in cur or wr.weights[add] == 0:
                continue
            h = g.copy()
            h.remove_arc(u, drop)
            h.add_arc(u, add)
            if _weighted_cost_by_bfs(h, u, wr.weights) < base:
                return True
    return False


def brute_weighted_weak_equilibrium(wr) -> bool:
    """No active vertex has an improving swap, by the brute oracle."""
    return not any(brute_weighted_swap_improves(wr, u) for u in wr.active.tolist())


def brute_lemma_6_4(wr):
    """Lemma 6.4 report with pairwise rich-leaf distances read off the
    scipy distance oracle (``n^2`` across components)."""
    from repro.analysis.weighted import Lemma64Report, rich_leaves
    from repro.graphs import UNREACHABLE

    rich = rich_leaves(wr)
    d = scipy_distance_oracle(wr.graph)
    d[d == UNREACHABLE] = wr.graph.n * wr.graph.n
    worst = max(
        (int(d[a, b]) for i, a in enumerate(rich) for b in rich[i + 1 :]),
        default=0,
    )
    return Lemma64Report(rich=tuple(rich), max_pairwise_distance=worst)


def rescan_fold_all(wr, *, max_rounds=None):
    """Fold-all oracle: a fresh copy per fold and a full poor-leaf
    rescan per round, always folding the smallest poor leaf."""
    from repro.analysis.weighted import fold_poor_leaf, poor_leaves

    current = wr
    rounds = 0
    while True:
        leaves = poor_leaves(current)
        if not leaves:
            return current
        current = fold_poor_leaf(current, leaves[0])
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            return current
