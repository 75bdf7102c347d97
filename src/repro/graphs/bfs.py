"""Vectorised breadth-first search on CSR adjacencies.

The frontier-expansion step is expressed entirely with numpy gathers
(``np.repeat`` + fancy indexing) so that each BFS level costs one pass
over the frontier's adjacency lists with no per-vertex Python work.

Single-source searches (:func:`bfs_distances`, :func:`multi_source_bfs`,
:func:`bfs_parents`) expand one frontier. Every many-row read runs on
one batched kernel, :func:`_bfs_flat_frontier`: all sources expand
together in a flat frontier of ``(row, vertex)`` labels, so a level
costs a handful of numpy gathers however many sources are in flight.
:func:`distances_from_sources` and :func:`all_pairs_distances` (and
through them the aggregates of :mod:`repro.graphs.distances`) use it,
as do the best-response engine's rebuilds and the batched pair sweep
of :mod:`repro.graphs.query`.

Unreachable vertices are reported with distance ``UNREACHABLE`` (−1);
callers that need the paper's ``Cinf = n^2`` convention substitute it via
:mod:`repro.graphs.distances`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import VertexError
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

#: Sources expanded together by :func:`_bfs_flat_frontier`. Bounds the
#: per-level frontier temporaries to ``_BFS_CHUNK * n`` labels.
_BFS_CHUNK: int = 256


def _bfs_flat_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    inf: int,
    flat: np.ndarray,
    slots: np.ndarray,
    verts: np.ndarray,
) -> None:
    """Level-synchronous flat-frontier BFS over ``(slot, vertex)`` labels.

    Writes levels into ``flat`` (the flattened ``(k, n)`` output buffer,
    pre-filled with ``inf``) starting from ``flat[slots * n + verts] =
    0``; ``slots`` must be distinct. Sources expand in chunks of
    :data:`_BFS_CHUNK`, so the frontier temporaries stay bounded however
    many rows are requested. The ``slots``/``verts`` arrays are never
    written to, so callers may pass views.

    Three callers: :func:`distances_from_sources` (the all-pairs
    helpers), ``DistanceEngine._bfs_rows`` in :mod:`repro.graphs.engine`
    (rebuilds, lazy rows, promotion) and
    :func:`repro.graphs.query.batched_pair_distances`.
    """
    for lo in range(0, slots.size, _BFS_CHUNK):
        _bfs_chunk(
            indptr, indices, n, inf, flat,
            slots[lo : lo + _BFS_CHUNK], verts[lo : lo + _BFS_CHUNK],
        )


def _bfs_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    inf: int,
    flat: np.ndarray,
    slots: np.ndarray,
    verts: np.ndarray,
) -> None:
    """One chunk of :func:`_bfs_flat_frontier` (the loop rebinds fresh
    arrays, so the inputs are never written to)."""
    flat[slots * n + verts] = 0
    level = 0
    while verts.size:
        level += 1
        offsets, counts = neighbor_offsets(indptr, verts)
        if offsets.size == 0:
            break
        idx = np.repeat(slots * n, counts)
        idx += indices[offsets]
        idx = idx[flat[idx] == inf]
        if idx.size == 0:
            break
        # Dedupe via sort + run mask (same result as np.unique, much
        # cheaper than its hash path on these small int ranges).
        idx.sort(kind="stable")
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        np.not_equal(idx[1:], idx[:-1], out=keep[1:])
        idx = idx[keep]
        flat[idx] = level
        slots = idx // n
        verts = idx - slots * n


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
    All rows come from one batched :func:`_bfs_flat_frontier` sweep;
    repeated sources give equal rows.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    n = csr.n
    if src.size and (src.min() < 0 or src.max() >= n):
        raise VertexError(int(src.min() if src.min() < 0 else src.max()), n)
    # Finite distances are at most n - 1, so n marks "not reached".
    out = np.full((src.size, n), n, dtype=np.int64)
    _bfs_flat_frontier(
        csr.indptr, csr.indices, n, n, out.reshape(-1),
        np.arange(src.size, dtype=np.int64), src,
    )
    out[out == n] = UNREACHABLE
    return out


def all_pairs_distances(csr: CSRAdjacency) -> np.ndarray:
    """All-pairs BFS distance matrix, shape ``(n, n)``.

    ``O(n (n + m))`` total work, done as one batched flat-frontier sweep
    over every source (:func:`distances_from_sources`). Unreachable
    pairs are ``UNREACHABLE``.
    """
    return distances_from_sources(csr, np.arange(csr.n, dtype=np.int64))
