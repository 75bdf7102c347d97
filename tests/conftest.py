"""Shared fixtures and oracle helpers for the test suite.

``networkx`` and ``scipy`` serve as independent oracles for the
from-scratch graph substrate; every random test is seeded for
reproducibility.

The **engine fixture matrix** lives here too: ``engine_harness`` is
parametrized over every distance-engine implementation that must honor
the same contract on unit-weight substrates — currently
:class:`~repro.graphs.engine.DistanceEngine` and
:class:`~repro.graphs.weighted_engine.WeightedDistanceEngine` — so the
conformance suite (``test_engine_conformance.py``) runs each case once
per engine instead of copy-pasting per-engine test files.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    CSRAdjacency,
    DistanceEngine,
    OwnedDigraph,
    WeightedDistanceEngine,
    csr_without_vertex,
    weighted_csr_from_csr,
    weighted_csr_without_vertex,
)


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


class EngineHarness:
    """Uniform facade over the engine implementations under conformance.

    Every engine consumes a substrate derived from a unit CSR adjacency
    and exposes the same read/mutation/staleness API; the harness hides
    the substrate type so one parametrized test body drives them all.
    Weighted engines run with all-unit weights here — the regime in
    which they must be bit-identical to the BFS engine.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:  # pytest id readability
        return f"EngineHarness({self.kind})"

    def substrate(self, csr: CSRAdjacency):
        """Engine-native substrate for a unit CSR adjacency."""
        if self.kind == "unit":
            return csr
        return weighted_csr_from_csr(csr)

    def build(self, csr: CSRAdjacency, **kwargs):
        """Engine over the substrate of ``csr``."""
        if self.kind == "unit":
            return DistanceEngine(csr, **kwargs)
        return WeightedDistanceEngine(weighted_csr_from_csr(csr), **kwargs)

    def build_isolated(self, csr: CSRAdjacency, u: int, **kwargs):
        """Engine over the substrate of ``csr`` with ``u`` isolated."""
        if self.kind == "unit":
            return DistanceEngine(csr_without_vertex(csr, u), **kwargs)
        return WeightedDistanceEngine(
            weighted_csr_without_vertex(weighted_csr_from_csr(csr), u), **kwargs
        )

    def from_snapshot(self, csr: CSRAdjacency, matrix: np.ndarray, **kwargs):
        """Engine adopting a precomputed matrix (copy-on-write).

        Only the unit engine adopts snapshots (the query server's
        pool-store cold start); snapshot cases run on ``"unit"`` alone.
        """
        assert self.kind == "unit", "only the unit engine adopts snapshots"
        return DistanceEngine.from_snapshot(csr, matrix, **kwargs)

    def update(self, engine, csr: CSRAdjacency) -> str:
        """Sync ``engine`` to the (unit) substrate of ``csr``."""
        return engine.update(self.substrate(csr))

    def remove_edge(self, engine, x: int, y: int) -> str:
        """Diff-free single-edge removal (the repair-hierarchy entry)."""
        return engine.remove_edge(x, y)

    def add_edge(self, engine, x: int, y: int) -> str:
        """Diff-free single-edge insertion."""
        return engine.add_edge(x, y)

    def current_substrate_csr(self, engine) -> CSRAdjacency:
        """Unit-CSR view of the engine's current substrate."""
        if self.kind == "unit":
            return engine.csr
        wcsr = engine.wcsr
        return CSRAdjacency(n=wcsr.n, indptr=wcsr.indptr, indices=wcsr.indices)

    def degree(self, engine, v: int) -> int:
        """Degree of ``v`` in the engine's current substrate."""
        sub = engine.csr if self.kind == "unit" else engine.wcsr
        return sub.degree(v)


#: Every engine kind the conformance suite must cover.
ENGINE_KINDS = ("unit", "weighted-unit")


@pytest.fixture(params=ENGINE_KINDS)
def engine_harness(request) -> EngineHarness:
    """One :class:`EngineHarness` per engine implementation."""
    return EngineHarness(request.param)


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
