"""Forward-backward bidirectional point-to-point distance queries.

The engine in :mod:`repro.graphs.engine` answers reads from a materialised
all-pairs matrix — the right shape for batch best-response sweeps, but
a single ``(u, v)`` verdict (a swap check, a Lemma 2.2 screen, one PoA
probe) does not need ``n`` rows of state. This module is the query tier
beneath it: a Wilson–Zwick style forward-backward search that grows a
BFS ball around ``u`` and a BFS ball around ``v`` in alternation —
level-synchronous frontier expansion, always expanding the smaller
frontier — and stops with the standard meet-in-the-middle rule,
settling a small fraction of the graph on sparse instances instead of
sweeping all of it. Every edge has length 1, as everywhere in the
paper.

Answers follow the engines' sentinel convention exactly: reachable
pairs return the true distance, unreachable pairs return ``inf`` (the
paper's ``Cinf = n^2`` by default), so a kernel answer is bit-identical
to the corresponding full-matrix entry.

Correctness of the stopping rule: per side, labels are exact when
assigned (BFS levels), and a meet candidate ``d_f(x) + d_b(x)`` is
recorded whenever a vertex acquires its second label — an upper bound realised by an actual
``u``-``x``-``v`` walk. Once the explored radii satisfy ``r_f + r_b >=
best``, some vertex on a true shortest path is doubly labelled, so
``best`` already equals the true distance and the search stops.

:func:`single_source_distances` / :func:`multi_source_distances` wrap
the full one-sided sweeps under the same sentinel convention — the
single place the aggregate helpers in :mod:`repro.graphs.distances`
route through, so the ``Cinf`` remap ordering is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError, VertexError
from .bfs import UNREACHABLE, _bfs_flat_frontier, bfs_distances, multi_source_bfs
from .csr import CSRAdjacency, neighbor_offsets

__all__ = [
    "QueryStats",
    "point_to_point",
    "batched_pair_distances",
    "single_source_distances",
    "multi_source_distances",
]


@dataclass
class QueryStats:
    """Work counters of one bidirectional query (for benchmarks/tests).

    ``settled`` counts the labels assigned across both search balls; on
    a graph of ``n`` vertices ``settled / n`` is the fraction of the
    graph the query had to explore (it can exceed 1 only in the rare
    case that both balls label almost every vertex).
    """

    settled: int = 0

    def fraction_settled(self, n: int) -> float:
        """``settled`` as a fraction of ``n`` labels (one ball's worth)."""
        return self.settled / max(1, n)


def _bidirectional_unit(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    u: int,
    v: int,
    inf: int,
    stats: "QueryStats | None",
) -> int:
    """Alternating bidirectional BFS; returns the distance or ``inf``."""
    dist_f = np.full(n, -1, dtype=np.int64)
    dist_b = np.full(n, -1, dtype=np.int64)
    dist_f[u] = 0
    dist_b[v] = 0
    frontier_f = np.asarray([u], dtype=np.int64)
    frontier_b = np.asarray([v], dtype=np.int64)
    radius_f = 0
    radius_b = 0
    best = int(inf)
    if stats is not None:
        stats.settled += 2
    while frontier_f.size and frontier_b.size and radius_f + radius_b < best:
        # Expand the smaller ball: balanced radii settle ~2 * b^(L/2)
        # labels where one-sided BFS settles b^L.
        forward = frontier_f.size <= frontier_b.size
        dist, other = (dist_f, dist_b) if forward else (dist_b, dist_f)
        frontier = frontier_f if forward else frontier_b
        nbrs = indices[neighbor_offsets(indptr, frontier)[0]]
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size > 1:
            fresh = np.unique(fresh)
        if forward:
            radius_f += 1
            level = radius_f
        else:
            radius_b += 1
            level = radius_b
        dist[fresh] = level
        if stats is not None:
            stats.settled += int(fresh.size)
        met = fresh[other[fresh] >= 0]
        if met.size:
            cand = level + int(other[met].min())
            if cand < best:
                best = cand
        if forward:
            frontier_f = fresh
        else:
            frontier_b = fresh
    return best


def point_to_point(
    csr: CSRAdjacency,
    u: int,
    v: int,
    *,
    inf: "int | None" = None,
    stats: "QueryStats | None" = None,
) -> int:
    """Distance ``u`` to ``v`` by bidirectional search; ``inf`` if apart.

    ``csr`` is assumed *symmetric* (an undirected ``U(G)``, as
    everywhere in this stack) — the backward ball expands over the same
    arcs. The return value matches the corresponding engine matrix
    entry exactly (``inf``-sentinel convention, defaulting to the
    engine's ``Cinf = n^2``). Pass a :class:`QueryStats` to observe how
    much of the graph the query settled.
    """
    n = csr.n
    if not 0 <= u < n:
        raise VertexError(u, n)
    if not 0 <= v < n:
        raise VertexError(v, n)
    if inf is None:
        inf = n * n
    if u == v:
        return 0
    return _bidirectional_unit(csr.indptr, csr.indices, n, u, v, int(inf), stats)


def batched_pair_distances(
    csr: CSRAdjacency,
    pairs: "np.ndarray | Sequence[tuple[int, int]]",
    *,
    inf: "int | None" = None,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """Distances for many ``(u, v)`` pairs — one batched sweep, not k.

    The multi-pair sibling of :func:`point_to_point`, built for the
    serve layer's micro-batching dispatcher: a singleton batch routes
    through the bidirectional point kernel, while ``k >= 2`` pairs are
    grouped by their smaller endpoint side and answered by **one**
    flat-frontier multi-source sweep (the engines' batched BFS kernel)
    over the distinct sources — the per-level numpy gathers are shared
    across every source in flight, so ten concurrent verdicts cost one
    sweep, not ten searches.

    Returns an ``int64`` array with ``out[i] = dist(pairs[i])`` under
    the same ``inf``-sentinel convention as :func:`point_to_point` —
    every entry is bit-identical to the corresponding single-pair call
    (and hence to the full-matrix entry). ``stats.settled`` counts the
    labels the sweep assigned (``n`` per distinct source).
    """
    p = np.asarray(pairs, dtype=np.int64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise GraphError(
            f"pairs must be a (k, 2) array of (u, v) endpoints, "
            f"got shape {p.shape}"
        )
    n = csr.n
    if p.size and (p.min() < 0 or p.max() >= n):
        bad = int(p.min()) if p.min() < 0 else int(p.max())
        raise VertexError(bad, n)
    if inf is None:
        inf = n * n
    k = p.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == 1:
        return np.asarray(
            [point_to_point(csr, int(p[0, 0]), int(p[0, 1]), inf=inf, stats=stats)],
            dtype=np.int64,
        )
    # The substrate is symmetric, so sweep from whichever endpoint side
    # has fewer distinct vertices (dist(u, v) == dist(v, u)).
    src_u, inv_u = np.unique(p[:, 0], return_inverse=True)
    src_v, inv_v = np.unique(p[:, 1], return_inverse=True)
    if src_v.size < src_u.size:
        sources, inv, targets = src_v, inv_v, p[:, 0]
    else:
        sources, inv, targets = src_u, inv_u, p[:, 1]
    rows = np.full((sources.size, n), int(inf), dtype=np.int64)
    _bfs_flat_frontier(
        csr.indptr,
        csr.indices,
        n,
        int(inf),
        rows.reshape(-1),
        np.arange(sources.size, dtype=np.int64),
        sources,
    )
    if stats is not None:
        stats.settled += int(sources.size) * n
    return rows[inv, targets]


def single_source_distances(
    csr: CSRAdjacency, s: int, *, inf: "int | None" = None
) -> np.ndarray:
    """One full BFS sweep from ``s`` under the ``inf``-sentinel convention.

    The one-sided degeneration of the kernel, shared by the aggregate
    helpers so unreachable entries are remapped in exactly one place.
    """
    if not 0 <= s < csr.n:
        raise VertexError(s, csr.n)
    d = bfs_distances(csr, s)
    d[d == UNREACHABLE] = csr.n * csr.n if inf is None else int(inf)
    return d


def multi_source_distances(
    csr: CSRAdjacency,
    targets: "np.ndarray | list[int]",
    *,
    inf: "int | None" = None,
) -> np.ndarray:
    """``min_a dist(v, a)`` for every ``v``, ``inf``-sentinel convention.

    The backward (multi-source) half of the bidirectional kernel run to
    exhaustion — what a set-target query degenerates to when every
    vertex needs an answer.
    """
    t = np.asarray(targets, dtype=np.int64)
    if t.size == 0:
        raise GraphError("distance_to_set requires a nonempty target set")
    d = multi_source_bfs(csr, t)
    d[d == UNREACHABLE] = csr.n * csr.n if inf is None else int(inf)
    return d
