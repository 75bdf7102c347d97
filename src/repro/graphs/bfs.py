"""Vectorised breadth-first search on CSR adjacencies.

The frontier-expansion step is expressed entirely with numpy gathers
(``np.repeat`` + fancy indexing) so that each BFS level costs one pass
over the frontier's adjacency lists with no per-vertex Python work. This
is the hot kernel of the whole library: the best-response engine calls
all-pairs BFS once per player per dynamics step.

Unreachable vertices are reported with distance ``UNREACHABLE`` (−1);
callers that need the paper's ``Cinf = n^2`` convention substitute it via
:mod:`repro.graphs.distances`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphError, VertexError
from .csr import CSRAdjacency, neighbor_offsets

__all__ = [
    "UNREACHABLE",
    "bfs_distances",
    "multi_source_bfs",
    "bfs_parents",
    "all_pairs_distances",
    "distances_from_sources",
    "bfs_layers",
]

#: Sentinel distance for vertices not reachable from the source set.
UNREACHABLE: int = -1


def multi_source_bfs(csr: CSRAdjacency, sources: Sequence[int] | np.ndarray) -> np.ndarray:
    """Distances from the *set* ``sources`` to every vertex.

    Returns an ``int64`` array ``d`` with ``d[v] = min_s dist(s, v)`` and
    ``UNREACHABLE`` for vertices in other components. Runs in
    ``O(n + m)`` time with vectorised level expansion.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    if src.size == 0:
        return np.full(csr.n, UNREACHABLE, dtype=np.int64)
    if src.min() < 0 or src.max() >= csr.n:
        raise VertexError(int(src.min() if src.min() < 0 else src.max()), csr.n)
    dist = np.full(csr.n, UNREACHABLE, dtype=np.int64)
    frontier = np.unique(src)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        offsets, _ = neighbor_offsets(csr.indptr, frontier)
        if offsets.size == 0:
            break
        nbrs = csr.indices[offsets]
        fresh = nbrs[dist[nbrs] == UNREACHABLE]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = level
    return dist


def bfs_distances(csr: CSRAdjacency, source: int) -> np.ndarray:
    """Single-source BFS distances from ``source``."""
    if not 0 <= source < csr.n:
        raise VertexError(source, csr.n)
    return multi_source_bfs(csr, np.array([source], dtype=np.int64))


def bfs_parents(csr: CSRAdjacency, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances and a parent array rooted at ``source``.

    ``parent[source] = source``; unreachable vertices get parent ``-1``.
    The parent array encodes one shortest-path tree, used by the Menger
    witness extraction and the figure renderers.
    """
    if not 0 <= source < csr.n:
        raise VertexError(source, csr.n)
    dist = np.full(csr.n, UNREACHABLE, dtype=np.int64)
    parent = np.full(csr.n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        offsets, counts = neighbor_offsets(csr.indptr, frontier)
        if offsets.size == 0:
            break
        nbrs = csr.indices[offsets]
        origins = np.repeat(frontier, counts)
        fresh_mask = dist[nbrs] == UNREACHABLE
        if not fresh_mask.any():
            break
        fresh = nbrs[fresh_mask]
        fresh_origin = origins[fresh_mask]
        # Keep the first occurrence of each newly discovered vertex so the
        # parent assignment is deterministic (lowest-index discovery order).
        uniq, first = np.unique(fresh, return_index=True)
        dist[uniq] = level
        parent[uniq] = fresh_origin[first]
        frontier = uniq
    return dist, parent


def bfs_layers(csr: CSRAdjacency, source: int) -> list[np.ndarray]:
    """Vertices of each BFS level from ``source`` (level 0 = the source)."""
    dist = bfs_distances(csr, source)
    reach = dist[dist != UNREACHABLE]
    if reach.size == 0:
        return []
    layers = []
    for level in range(int(reach.max()) + 1):
        layers.append(np.flatnonzero(dist == level).astype(np.int64))
    return layers


def distances_from_sources(
    csr: CSRAdjacency, sources: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Matrix of BFS distances: row ``i`` is distances from ``sources[i]``.

    Shape ``(len(sources), n)``; unreachable entries are ``UNREACHABLE``.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    out = np.empty((src.size, csr.n), dtype=np.int64)
    for i, s in enumerate(src):
        out[i] = bfs_distances(csr, int(s))
    return out


def all_pairs_distances(csr: CSRAdjacency) -> np.ndarray:
    """All-pairs BFS distance matrix, shape ``(n, n)``.

    ``O(n (n + m))`` total: one vectorised BFS per source. Unreachable
    pairs are ``UNREACHABLE``.
    """
    return distances_from_sources(csr, np.arange(csr.n, dtype=np.int64))
