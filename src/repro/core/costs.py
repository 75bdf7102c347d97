"""Cost functions of the two game versions (Section 1.2 of the paper).

With ``dist`` measured in the undirected underlying graph and
``Cinf = n^2`` substituted for cross-component distances:

* **SUM**: ``c_SUM(u) = sum_v dist(u, v)``.
* **MAX**: ``c_MAX(u) = max_v dist(u, v) + (kappa - 1) * n^2`` where
  ``kappa`` is the number of connected components of ``U(G)``.

Both penalty conventions make reconnecting the graph strictly profitable
for any player that can do so, which is all the paper needs from them.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import GameError, VertexError
from ..graphs.bfs import UNREACHABLE, bfs_distances
from ..graphs.connectivity import num_components
from ..graphs.digraph import OwnedDigraph
from ..graphs.distances import cinf, distance_matrix, eccentricities, sum_distances

__all__ = ["Version", "vertex_cost", "all_costs", "social_cost", "cost_profile"]


class Version(enum.Enum):
    """Which aggregate a player minimises: sum or maximum of distances."""

    SUM = "sum"
    MAX = "max"

    @classmethod
    def coerce(cls, value: "Version | str") -> "Version":
        """Accept a :class:`Version` or its case-insensitive string name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise GameError(f"unknown game version {value!r}; use 'sum' or 'max'") from None


def vertex_cost(graph: OwnedDigraph, u: int, version: Version | str) -> int:
    """Cost incurred by player ``u`` in the given ``version``.

    ``O(n + m)`` (one BFS), plus a component count for MAX.
    """
    version = Version.coerce(version)
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    n = graph.n
    if n == 1:
        return 0
    d = bfs_distances(graph.undirected_csr(), u)
    unreachable = d == UNREACHABLE
    d = d.astype(np.int64)
    d[unreachable] = cinf(n)
    if version is Version.SUM:
        return int(d.sum())
    kappa = num_components(graph)
    return int(d.max()) + (kappa - 1) * cinf(n)


def all_costs(graph: OwnedDigraph, version: Version | str) -> np.ndarray:
    """Vector of all players' costs (single all-pairs BFS pass)."""
    version = Version.coerce(version)
    n = graph.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    if version is Version.SUM:
        return sum_distances(graph)
    ecc = eccentricities(graph)
    kappa = num_components(graph)
    return ecc + (kappa - 1) * cinf(n)


def social_cost(graph: OwnedDigraph, *, engine=None) -> int:
    """The paper's social cost: the diameter of ``U(G)`` (``Cinf`` if
    disconnected).

    ``engine`` (a :class:`~repro.graphs.engine.DistanceEngine` built
    over ``U(G)``) replaces the all-pairs BFS with a matrix reduction.
    """
    if engine is not None:
        if graph.n == 1:
            return 0
        # Unreachable pairs carry the engine's finite sentinel (Cinf by
        # construction), so the plain maximum is the paper's diameter.
        return int(engine.matrix.max())
    from ..graphs.distances import diameter

    return diameter(graph)


def cost_profile(graph: OwnedDigraph, version: Version | str) -> dict[int, int]:
    """Mapping ``player -> cost``; convenience wrapper over
    :func:`all_costs`."""
    costs = all_costs(graph, version)
    return {u: int(costs[u]) for u in range(graph.n)}
