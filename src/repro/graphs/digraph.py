"""Ownership-aware directed graphs (realizations of the game).

A realization of a bounded budget network creation game is a directed
graph ``G`` on players ``0 .. n-1`` in which the arc ``u -> v`` means
"player ``u`` spent one unit of budget on a link to ``v``". Distances,
and therefore all costs, are measured in the *undirected underlying
graph* ``U(G)``; a pair of anti-parallel arcs (a **brace**) is a
2-vertex cycle of ``U(G)`` but is metrically equivalent to a single
edge.

:class:`OwnedDigraph` stores the out-set of every vertex and lazily
materialises (and caches) the undirected CSR adjacency used by the BFS
kernels. Mutations invalidate the cache. :meth:`OwnedDigraph.freeze`
makes a graph read-only, which is what lets a distance cache hold
engines over it that never need a resync.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import ArcError, GraphError, VertexError
from .csr import CSRAdjacency, build_csr, csr_without_vertex

__all__ = ["OwnedDigraph"]


class OwnedDigraph:
    """Directed graph with arc ownership, the realization of a game.

    Parameters
    ----------
    n:
        Number of vertices (players).

    Notes
    -----
    * Self-loops are forbidden (a player may not link to itself).
    * At most one arc ``u -> v`` may exist for a given ordered pair; the
      reverse arc ``v -> u`` may coexist, forming a *brace*.
    """

    __slots__ = (
        "_n",
        "_out",
        "_csr_cache",
        "_csr_without_cache",
        "_revision",
        "_frozen",
    )

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        self._n = int(n)
        self._out: list[set[int]] = [set() for _ in range(self._n)]
        self._csr_cache: CSRAdjacency | None = None
        self._csr_without_cache: dict[int, CSRAdjacency] = {}
        self._revision = 0
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_strategies(
        cls, strategies: Sequence[Iterable[int]], n: int | None = None
    ) -> "OwnedDigraph":
        """Build a realization from per-player out-neighbour sets."""
        if n is None:
            n = len(strategies)
        if len(strategies) != n:
            raise GraphError(f"expected {n} strategies, got {len(strategies)}")
        g = cls(n)
        for u, targets in enumerate(strategies):
            for v in targets:
                g.add_arc(u, int(v))
        return g

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "OwnedDigraph":
        """Build a realization from an iterable of ``(owner, target)`` arcs."""
        g = cls(n)
        for u, v in arcs:
            g.add_arc(int(u), int(v))
        return g

    def copy(self) -> "OwnedDigraph":
        """Deep, mutable copy (neither the CSR cache nor a freeze is
        carried over)."""
        g = OwnedDigraph(self._n)
        g._out = [set(s) for s in self._out]
        return g

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def revision(self) -> int:
        """Mutation counter, bumped on every arc/strategy change.

        Best-response and weighted swap environments snapshot it when
        they are built and refuse to evaluate once it has moved on.
        """
        return self._revision

    def freeze(self) -> None:
        """Make the graph read-only: every later mutation raises
        :class:`~repro.errors.GraphError`. A :meth:`copy` is mutable."""
        self._frozen = True

    @property
    def num_arcs(self) -> int:
        """Total number of owned arcs (= sum of player budgets in use)."""
        return sum(len(s) for s in self._out)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)

    def has_arc(self, u: int, v: int) -> bool:
        """Whether the owned arc ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def out_neighbors(self, u: int) -> np.ndarray:
        """Sorted array of targets of arcs owned by ``u``."""
        self._check_vertex(u)
        return np.fromiter(sorted(self._out[u]), dtype=np.int64, count=len(self._out[u]))

    def strategy(self, u: int) -> frozenset[int]:
        """The strategy of player ``u`` as an immutable set."""
        self._check_vertex(u)
        return frozenset(self._out[u])

    def strategies(self) -> list[frozenset[int]]:
        """All player strategies."""
        return [frozenset(s) for s in self._out]

    def out_degree(self, u: int) -> int:
        """Number of arcs owned by ``u`` (its budget in use)."""
        self._check_vertex(u)
        return len(self._out[u])

    def out_degrees(self) -> np.ndarray:
        """Vector of owned-arc counts (the effective budget vector)."""
        return np.fromiter((len(s) for s in self._out), dtype=np.int64, count=self._n)

    def in_neighbors(self, u: int) -> np.ndarray:
        """Sorted array of owners of arcs pointing *to* ``u``.

        O(n + m); the best-response engine calls this once per player and
        the cost is dwarfed by the all-pairs BFS it accompanies.
        """
        self._check_vertex(u)
        owners = [w for w in range(self._n) if u in self._out[w]]
        return np.asarray(owners, dtype=np.int64)

    def in_neighbor_lists(self) -> "list[np.ndarray]":
        """In-neighbour arrays for *all* vertices in one O(n + m) pass.

        ``result[u]`` equals :meth:`in_neighbors(u) <in_neighbors>`;
        sweep-style consumers (one environment per player per round)
        use this to avoid the per-player O(n) owner scan.
        """
        owners: "list[list[int]]" = [[] for _ in range(self._n)]
        for w in range(self._n):
            for v in self._out[w]:
                owners[v].append(w)
        return [np.asarray(lst, dtype=np.int64) for lst in owners]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted array of undirected neighbours of ``u`` in ``U(G)``."""
        self._check_vertex(u)
        both = set(self._out[u])
        both.update(int(w) for w in self.in_neighbors(u))
        return np.fromiter(sorted(both), dtype=np.int64, count=len(both))

    def degree(self, u: int) -> int:
        """Undirected degree of ``u`` in ``U(G)`` (braces count once)."""
        return int(self.neighbors(u).size)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Iterate over owned arcs as ``(owner, target)`` pairs."""
        for u, targets in enumerate(self._out):
            for v in sorted(targets):
                yield (u, v)

    def braces(self) -> list[tuple[int, int]]:
        """All braces (anti-parallel arc pairs) as ``(u, v)`` with ``u < v``."""
        found = []
        for u, targets in enumerate(self._out):
            for v in targets:
                if v > u and u in self._out[v]:
                    found.append((u, v))
        return found

    def underlying_edges(self) -> list[tuple[int, int]]:
        """Distinct undirected edges of ``U(G)`` as ``(min, max)`` pairs."""
        edges = set()
        for u, targets in enumerate(self._out):
            for v in targets:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError(
                "graph is frozen (a distance cache holds engines over it); "
                "mutate a copy() instead"
            )

    def _invalidate(self) -> None:
        self._csr_cache = None
        self._csr_without_cache.clear()
        self._revision += 1

    def add_arc(self, u: int, v: int) -> None:
        """Add the owned arc ``u -> v``."""
        self._check_mutable()
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ArcError(f"self-loop {u} -> {v} is not allowed")
        if v in self._out[u]:
            raise ArcError(f"arc {u} -> {v} already exists")
        self._out[u].add(v)
        self._invalidate()

    def remove_arc(self, u: int, v: int) -> None:
        """Remove the owned arc ``u -> v``."""
        self._check_mutable()
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out[u]:
            raise ArcError(f"arc {u} -> {v} does not exist")
        self._out[u].discard(v)
        self._invalidate()

    def set_strategy(self, u: int, targets: Iterable[int]) -> None:
        """Replace the whole out-set of player ``u``."""
        self._check_mutable()
        self._check_vertex(u)
        new = set()
        for v in targets:
            v = int(v)
            self._check_vertex(v)
            if v == u:
                raise ArcError(f"self-loop {u} -> {v} is not allowed")
            if v in new:
                raise ArcError(f"duplicate target {v} in strategy of {u}")
            new.add(v)
        self._out[u] = new
        self._invalidate()

    # ------------------------------------------------------------------
    # Undirected views
    # ------------------------------------------------------------------
    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        heads = []
        tails = []
        for u, targets in enumerate(self._out):
            heads.extend([u] * len(targets))
            tails.extend(targets)
        return (
            np.asarray(heads, dtype=np.int64),
            np.asarray(tails, dtype=np.int64),
        )

    def undirected_csr(self) -> CSRAdjacency:
        """Cached CSR adjacency of the underlying undirected graph."""
        if self._csr_cache is None:
            heads, tails = self._arc_arrays()
            self._csr_cache = build_csr(self._n, heads, tails)
        return self._csr_cache

    def undirected_csr_without(self, u: int) -> CSRAdjacency:
        """Cached CSR of ``U(G)`` with vertex ``u`` isolated.

        This is the fixed substrate against which all candidate
        strategies of player ``u`` are evaluated (a shortest path from
        ``u`` never revisits ``u``).
        """
        self._check_vertex(u)
        cached = self._csr_without_cache.get(u)
        if cached is None:
            cached = csr_without_vertex(self.undirected_csr(), u)
            self._csr_without_cache[u] = cached
        return cached

    # ------------------------------------------------------------------
    # Interop and misc
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to ``networkx.DiGraph`` (test oracle / visualisation)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.arcs())
        return g

    def profile_key(self) -> tuple[tuple[int, ...], ...]:
        """Hashable canonical form of the strategy profile.

        Used by the dynamics engine to detect best-response cycles.
        """
        return tuple(tuple(sorted(s)) for s in self._out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OwnedDigraph):
            return NotImplemented
        return self._n == other._n and self._out == other._out

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash(self.profile_key())

    def __repr__(self) -> str:
        return f"OwnedDigraph(n={self._n}, arcs={self.num_arcs})"
