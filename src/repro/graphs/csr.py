"""Compressed-sparse-row adjacency structures built with numpy.

The whole distance machinery of the library (BFS, eccentricities, the
best-response engine) operates on a plain CSR pair ``(indptr, indices)``
rather than on an object graph: hot loops then reduce to numpy gathers
and reductions, per the vectorisation guidance of the HPC guides.

A CSR adjacency for an *undirected* view stores, for every vertex ``v``,
the sorted, de-duplicated list of neighbours
``indices[indptr[v]:indptr[v + 1]]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError

__all__ = [
    "CSRAdjacency",
    "build_csr",
    "csr_without_vertex",
    "csr_degree",
    "neighbor_offsets",
]


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR adjacency of an undirected graph on ``n`` vertices.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr:
        ``int64`` array of length ``n + 1``; row ``v`` spans
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of neighbour ids, sorted within each row.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of distinct neighbours of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of distinct-neighbour counts for all vertices."""
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.indices.size) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)


def build_csr(n: int, heads: np.ndarray, tails: np.ndarray) -> CSRAdjacency:
    """Build an undirected CSR adjacency from arc endpoint arrays.

    Each pair ``(heads[i], tails[i])`` contributes the undirected edge
    ``{heads[i], tails[i]}``. Parallel arcs (braces) collapse to a single
    undirected edge — for shortest-path purposes a brace behaves exactly
    like a single edge of length 1, matching the paper's distance
    semantics on ``U(G)``.

    Parameters
    ----------
    n:
        Number of vertices.
    heads, tails:
        Equal-length integer arrays of arc endpoints in ``[0, n)``.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    if heads.shape != tails.shape or heads.ndim != 1:
        raise GraphError("heads and tails must be 1-D arrays of equal length")
    if heads.size:
        lo = min(heads.min(), tails.min())
        hi = max(heads.max(), tails.max())
        if lo < 0 or hi >= n:
            raise GraphError(f"arc endpoint out of range [0, {n}): saw [{lo}, {hi}]")
        if np.any(heads == tails):
            raise GraphError("self-loops are not allowed in a realization")
    # Symmetrise, then sort by (row, col) and de-duplicate.
    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails, heads])
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    if rows.size:
        keep = np.empty(rows.size, dtype=bool)
        keep[0] = True
        np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=keep[1:])
        rows = rows[keep]
        cols = cols[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRAdjacency(n=n, indptr=indptr, indices=cols)


def csr_without_vertex(csr: CSRAdjacency, u: int) -> CSRAdjacency:
    """CSR of the same vertex set with ``u`` isolated (all its edges gone).

    Keeping the index space unchanged (rather than renumbering ``n - 1``
    vertices) lets the best-response engine address distance rows by the
    original vertex ids.
    """
    if not 0 <= u < csr.n:
        raise GraphError(f"vertex {u} out of range [0, {csr.n})")
    mask = csr.indices != u
    # Also empty u's own row.
    row_of = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    mask &= row_of != u
    new_indices = csr.indices[mask]
    counts = np.zeros(csr.n + 1, dtype=np.int64)
    np.add.at(counts, row_of[mask] + 1, 1)
    np.cumsum(counts, out=counts)
    return CSRAdjacency(n=csr.n, indptr=counts, indices=new_indices)


def csr_degree(csr: CSRAdjacency) -> np.ndarray:
    """Alias for :meth:`CSRAdjacency.degrees` kept for API symmetry."""
    return csr.degrees()


def neighbor_offsets(
    indptr: np.ndarray, verts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR offsets of every edge leaving ``verts``, plus per-vertex counts.

    The one frontier-gather kernel of the distance stack: ``offsets``
    enumerates ``indptr[verts[i]] .. indptr[verts[i] + 1] - 1`` for each
    ``i`` in turn, so ``indices[offsets]`` lists the neighbours of
    ``verts[0]``, then of ``verts[1]``, and so on (duplicates kept), and
    ``np.repeat(np.arange(verts.size), counts)`` is the position in
    ``verts`` each entry leaves from.
    """
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    cum = np.cumsum(counts)
    offsets = np.repeat(starts - (cum - counts), counts) + np.arange(
        total, dtype=np.int64
    )
    return offsets, counts
