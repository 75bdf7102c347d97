"""Incremental all-pairs *weighted* distance engine (heap-free SSSP).

:class:`WeightedDistanceEngine` is the integer-weight sibling of
:class:`~repro.graphs.engine.DistanceEngine`: it owns one
:class:`WeightedCSR` substrate (an undirected CSR adjacency whose edges
carry small positive integer lengths) and the full ``(n, n)``
shortest-path matrix over it, and keeps that matrix correct as the
substrate evolves a few edges — or a few edge *weights* — at a time.

Batched SSSP kernel
-------------------
The kernel is a vectorised **Dial-style bucket relaxation**: tentative
labels live in the preallocated output matrix, and a bucket queue
indexed by distance value replaces the binary heap. Settling bucket
``d`` relaxes every out-edge of every ``(source row, vertex)`` pair
whose label is still ``d`` in one batch of numpy gathers — all sources
in flight share each bucket step, exactly like the flat-frontier BFS of
the unit engine, which this kernel degenerates to (bit-identically)
when every weight is 1. No heap, no per-vertex Python work; total work
is ``O((n + m) * maxdist / ...)`` gathers per batch with ``maxdist <=
(n - 1) * w_max`` buckets.

Repair / fallback policy
------------------------
``update(new_wcsr)`` diffs edge sets *and* edge weights and picks
``"noop"`` / ``"delta"`` / ``"rebuild"`` like the unit engine:

* **Deletions** (and weight increases) only lengthen distances. Single
  removals walk the same **repair hierarchy** as the unit engine
  (see :mod:`repro.graphs.engine`): a **pendant fast path** (a removal
  that isolates a degree-1 endpoint — the Section 6 fold primitive —
  repairs as one column/row write), then the weight-aware exact
  support criterion — removing ``{x, y}`` of length ``w`` affects
  source ``s`` only if the downhill endpoint (say ``d(s, y) =
  d(s, x) + w``) loses its *only* tight parent, since a surviving
  neighbour ``z`` of ``y`` with ``d(s, z) + w(z, y) = d(s, y)``
  reroutes every shortest path at equal length — feeding the shared
  **affected-region repair** (grow the region of vertices whose every
  tight-parent chain crosses the removed edge, re-relax only those
  positions in a masked Dijkstra seeded from the unaffected boundary),
  then a fresh batched SSSP of the dirty rows when the region outgrows
  its budget.
* **Insertions** (and weight decreases) only shorten distances: pivot
  rows (a greedy vertex cover of the touched edges) are recomputed
  exactly, then every other row repairs in one vectorised decrease-only
  min-plus pass ``d(s, v) = min(d(s, v), min_p d(p, s) + d(p, v))`` —
  unchanged from the unit engine, since any strictly shorter path
  passes through a touched edge and hence through a pivot.
* Weight *changes* on surviving edges are composed as removal (tight
  w.r.t. the old weight) plus insertion (pivot cover), which is sound
  for increases and decreases alike.

Every path that may change distances bumps the ``epoch``; stale views
raise :class:`~repro.errors.StaleDistanceError` via
:meth:`ensure_epoch`, mirroring the unit engine's contract.

Unreachable pairs carry a finite sentinel ``inf`` — at least the
paper's ``Cinf = n^2`` and always larger than any finite weighted
distance — so the min-plus repair needs no special cases and the
Section 6 cost convention (``Cinf`` for cross-component terms) reads
straight off the matrix when weights are unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GraphError, StaleDistanceError, VertexError
from .bfs import UNREACHABLE
from .csr import CSRAdjacency
from .distances import cinf
from .engine import (
    _affected_positions,
    _bfs_flat_frontier,
    _deletion_roots,
    _minplus_through_pivots,
    _pivot_cover,
    _region_relax,
)

__all__ = [
    "WeightedCSR",
    "EdgeWeightMap",
    "build_weighted_csr",
    "weighted_csr_from_csr",
    "weighted_csr_without_vertex",
    "WeightedDistanceEngine",
]

#: Default fallback threshold (fraction of rows a delta repair may
#: recompute before the engine falls back to a full rebuild).
DEFAULT_DIRTY_FRACTION: float = 0.5

#: Deletion batches up to this size use the exact per-edge support
#: criterion; larger batches use the coarser composed tightness filter.
_SEQUENTIAL_DELETION_CAP: int = 32


# ----------------------------------------------------------------------
# Weighted CSR substrate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeightedCSR:
    """Immutable CSR adjacency with positive integer edge lengths.

    ``weights[k]`` is the length of the (undirected) edge leading to
    ``indices[k]``; both directions of an edge carry the same length.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge lengths aligned with :meth:`neighbors` (a view)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of distinct neighbours of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.indices.size) // 2

    def edge_weight(self, x: int, y: int) -> int:
        """Length of the undirected edge ``{x, y}``; raises if absent."""
        row = self.neighbors(x)
        pos = int(np.searchsorted(row, y))
        if pos >= row.size or row[pos] != y:
            raise GraphError(f"edge {{{x}, {y}}} not present in substrate")
        return int(self.neighbor_weights(x)[pos])

    def max_weight(self) -> int:
        """Largest edge length (1 for an edgeless substrate); memoised."""
        cached = getattr(self, "_max_w_cache", None)
        if cached is None:
            cached = int(self.weights.max()) if self.weights.size else 1
            object.__setattr__(self, "_max_w_cache", cached)
        return cached


def build_weighted_csr(
    n: int,
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
) -> WeightedCSR:
    """Build a weighted undirected CSR from arc endpoint/length arrays.

    Each ``(heads[i], tails[i])`` contributes the undirected edge
    ``{heads[i], tails[i]}`` of length ``weights[i]``. Parallel arcs
    (braces) collapse to a single edge of the *minimum* supplied length
    — for shortest-path purposes parallel edges are exactly their
    shortest representative.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if heads.shape != tails.shape or heads.shape != weights.shape or heads.ndim != 1:
        raise GraphError("heads, tails and weights must be equal-length 1-D arrays")
    if weights.size and weights.min() < 1:
        raise GraphError("edge weights must be positive integers")
    if heads.size:
        lo = min(heads.min(), tails.min())
        hi = max(heads.max(), tails.max())
        if lo < 0 or hi >= n:
            raise GraphError(f"arc endpoint out of range [0, {n}): saw [{lo}, {hi}]")
        if np.any(heads == tails):
            raise GraphError("self-loops are not allowed in a realization")
    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails, heads])
    wts = np.concatenate([weights, weights])
    # Sort by (row, col, weight) and keep the first (= lightest) copy of
    # every directed slot.
    order = np.lexsort((wts, cols, rows))
    rows, cols, wts = rows[order], cols[order], wts[order]
    if rows.size:
        keep = np.empty(rows.size, dtype=bool)
        keep[0] = True
        np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=keep[1:])
        rows, cols, wts = rows[keep], cols[keep], wts[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return WeightedCSR(n=n, indptr=indptr, indices=cols, weights=wts)


def weighted_csr_from_csr(
    csr: CSRAdjacency, weights: "EdgeWeightMap | None" = None
) -> WeightedCSR:
    """Wrap a unit CSR adjacency with edge lengths from ``weights``.

    With ``weights=None`` every edge has length 1 (the BFS regime the
    weighted kernel degenerates to).
    """
    if weights is None:
        w = np.ones(csr.indices.size, dtype=np.int64)
    else:
        w = weights.array_for(csr)
    return WeightedCSR(n=csr.n, indptr=csr.indptr, indices=csr.indices, weights=w)


def weighted_csr_without_vertex(wcsr: WeightedCSR, u: int) -> WeightedCSR:
    """Same vertex set with ``u`` isolated (all its edges gone)."""
    if not 0 <= u < wcsr.n:
        raise GraphError(f"vertex {u} out of range [0, {wcsr.n})")
    mask = wcsr.indices != u
    row_of = np.repeat(np.arange(wcsr.n, dtype=np.int64), np.diff(wcsr.indptr))
    mask &= row_of != u
    counts = np.zeros(wcsr.n + 1, dtype=np.int64)
    np.add.at(counts, row_of[mask] + 1, 1)
    np.cumsum(counts, out=counts)
    return WeightedCSR(
        n=wcsr.n,
        indptr=counts,
        indices=wcsr.indices[mask],
        weights=wcsr.weights[mask],
    )


class EdgeWeightMap:
    """Mutable symmetric integer edge-length assignment with a revision.

    Distance caches key their weighted-engine coherence on
    :attr:`revision`: every :meth:`set_weight` bumps it, so a cache that
    recorded the revision at sync time detects out-of-band weight edits
    exactly like graph mutations. Edges not explicitly set carry
    ``default``.
    """

    __slots__ = ("_default", "_overrides", "_revision")

    def __init__(
        self, default: int = 1, overrides: "dict[tuple[int, int], int] | None" = None
    ) -> None:
        if default < 1:
            raise GraphError(f"edge weights must be positive, got default={default}")
        self._default = int(default)
        self._overrides: dict[tuple[int, int], int] = {}
        self._revision = 0
        if overrides:
            for (x, y), w in overrides.items():
                self.set_weight(x, y, w)

    @property
    def revision(self) -> int:
        """Counter bumped on every weight assignment."""
        return self._revision

    @property
    def default(self) -> int:
        """Length of edges without an explicit assignment."""
        return self._default

    def weight(self, x: int, y: int) -> int:
        """Length of the (undirected) edge ``{x, y}``."""
        return self._overrides.get((min(x, y), max(x, y)), self._default)

    def set_weight(self, x: int, y: int, w: int) -> None:
        """Assign length ``w`` to edge ``{x, y}`` and bump the revision."""
        if x == y:
            raise GraphError(f"self-loop {{{x}, {y}}} cannot carry a weight")
        if int(w) < 1:
            raise GraphError(f"edge weights must be positive, got {w}")
        self._overrides[(min(x, y), max(x, y))] = int(w)
        self._revision += 1

    def max_weight(self) -> int:
        """Upper bound on any assigned edge length."""
        if not self._overrides:
            return self._default
        return max(self._default, max(self._overrides.values()))

    def is_unit(self) -> bool:
        """Whether every edge (assigned or defaulted) has length 1."""
        return self.max_weight() == 1

    def array_for(self, csr: CSRAdjacency) -> np.ndarray:
        """Edge lengths aligned with ``csr.indices`` (both directions)."""
        w = np.full(csr.indices.size, self._default, dtype=np.int64)
        for (x, y), val in self._overrides.items():
            for a, b in ((x, y), (y, x)):
                lo, hi = int(csr.indptr[a]), int(csr.indptr[a + 1])
                pos = lo + int(np.searchsorted(csr.indices[lo:hi], b))
                if pos < hi and csr.indices[pos] == b:
                    w[pos] = val
        return w


# ----------------------------------------------------------------------
# Diff helper
# ----------------------------------------------------------------------
def _edge_ids_weights(wcsr: WeightedCSR) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique edge ids ``x * n + y`` (``x < y``) and their lengths.

    Memoised on the (immutable) substrate: an engine diffs each
    substrate twice over its lifetime — once as the new side, once as
    the old — so caching halves the dominant per-update analysis cost.
    """
    cached = getattr(wcsr, "_edge_ids_cache", None)
    if cached is not None:
        return cached
    row_of = np.repeat(np.arange(wcsr.n, dtype=np.int64), np.diff(wcsr.indptr))
    mask = row_of < wcsr.indices
    ids = row_of[mask] * wcsr.n + wcsr.indices[mask]
    wts = wcsr.weights[mask]
    order = np.argsort(ids, kind="stable")
    out = (ids[order], wts[order])
    object.__setattr__(wcsr, "_edge_ids_cache", out)
    return out


class WeightedDistanceEngine:
    """All-pairs weighted distances over one substrate, with delta repair.

    Parameters
    ----------
    wcsr:
        The initial weighted substrate.
    inf:
        Finite sentinel for unreachable pairs. Defaults to
        ``max(Cinf, (n - 1) * w_max + 1)`` where ``w_max`` accounts for
        both the substrate's current weights and the ``max_weight``
        headroom hint, so unit-weight engines share the paper's
        ``Cinf = n^2`` convention bit-for-bit with the BFS engine.
    max_weight:
        Headroom hint: the largest edge length any future
        :meth:`update` may carry. Updates whose weights overflow the
        sentinel raise instead of silently corrupting the matrix.
    dirty_fraction:
        Delta-vs-rebuild cutoff as a fraction of rows (``0.0`` disables
        delta repair, ``1.0`` always tries it).
    rows:
        ``"full"`` (default) materialises the all-pairs matrix up
        front; ``"lazy"`` starts unmaterialised with row-on-demand
        reads — see *Three-tier read path* in
        :mod:`repro.graphs.engine`.
    """

    __slots__ = (
        "_wcsr",
        "_n",
        "_inf",
        "_max_weight",
        "_dtype",
        "_D",
        "_epoch",
        "_dirty_fraction",
        "_lazy",
        "_hot",
        "stats",
    )

    def __init__(
        self,
        wcsr: WeightedCSR,
        *,
        inf: "int | None" = None,
        max_weight: "int | None" = None,
        dirty_fraction: float = DEFAULT_DIRTY_FRACTION,
        rows: str = "full",
    ) -> None:
        self._configure(wcsr, inf, max_weight, dirty_fraction)
        self._D = np.empty((self._n, self._n), dtype=self._dtype)
        self._epoch = 0
        self.stats = self._fresh_stats()
        if rows not in ("full", "lazy"):
            raise GraphError(f'rows must be "full" or "lazy", got {rows!r}')
        if rows == "lazy":
            self._lazy = True
            self._hot = np.zeros(self._n, dtype=bool)
        else:
            self.rebuild()

    @staticmethod
    def _fresh_stats() -> "dict[str, int]":
        return {
            "rebuilds": 0,
            "deltas": 0,
            "noops": 0,
            "rows_recomputed": 0,
            "pendant_fixes": 0,
            "region_repairs": 0,
            "region_vertices": 0,
            "lazy_rows": 0,
            "lazy_invalidations": 0,
            "promotions": 0,
            "point_queries": 0,
        }

    def _configure(
        self,
        wcsr: WeightedCSR,
        inf: "int | None",
        max_weight: "int | None",
        dirty_fraction: float,
    ) -> None:
        """Shared constructor core (substrate checks, sentinel, dtype)."""
        if not isinstance(wcsr, WeightedCSR):
            raise GraphError("WeightedDistanceEngine needs a WeightedCSR substrate")
        if not 0.0 <= dirty_fraction <= 1.0:
            raise GraphError(
                f"dirty_fraction must be in [0, 1], got {dirty_fraction}"
            )
        if wcsr.weights.size and wcsr.weights.min() < 1:
            raise GraphError("edge weights must be positive integers")
        self._n = wcsr.n
        self._max_weight = max(
            wcsr.max_weight(), 1 if max_weight is None else int(max_weight)
        )
        bound = (self._n - 1) * self._max_weight  # largest finite distance
        self._inf = (
            max(cinf(self._n), bound + 1) if inf is None else int(inf)
        )
        if self._inf <= bound:
            raise GraphError(
                f"inf sentinel {self._inf} too small for n={self._n}, "
                f"w_max={self._max_weight}; need inf > (n-1) * w_max"
            )
        self._dtype = np.int32 if 2 * self._inf < 2**31 else np.int64
        self._dirty_fraction = float(dirty_fraction)
        self._wcsr = wcsr
        # Lazy row-on-demand state; __init__(rows="lazy") flips these.
        self._lazy = False
        self._hot: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Read API (mirrors DistanceEngine)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices of the substrate."""
        return self._n

    @property
    def wcsr(self) -> WeightedCSR:
        """The weighted substrate the current matrix describes."""
        return self._wcsr

    @property
    def inf(self) -> int:
        """Finite sentinel stored for unreachable pairs."""
        return self._inf

    @property
    def max_weight(self) -> int:
        """Largest edge length the sentinel has headroom for."""
        return self._max_weight

    @property
    def epoch(self) -> int:
        """Counter bumped whenever the distance content may have changed."""
        return self._epoch

    @property
    def lazy(self) -> bool:
        """Whether the engine is still in row-on-demand mode."""
        return self._lazy

    def hot_rows(self) -> np.ndarray:
        """Sources whose rows are materialised (every source when full)."""
        if not self._lazy:
            return np.arange(self._n, dtype=np.int64)
        return np.flatnonzero(self._hot)

    def row_budget(self) -> float:
        """Rows a delta repair may recompute before falling back to rebuild.

        Fixed-fraction cost model (the weighted engine has no adaptive
        EMAs): ``dirty_fraction * n``.
        """
        return self._dirty_fraction * self._n

    def promotion_threshold(self) -> float:
        """Hot-row count at which a lazy engine promotes to full mode."""
        return max(1.0, self.row_budget())

    def promote(self) -> None:
        """Materialise the remaining cold rows and leave lazy mode.

        No epoch bump: hot rows are kept and cold rows were never
        handed out, so no observable distance changes.
        """
        if not self._lazy:
            return
        cold = np.flatnonzero(~self._hot)
        if cold.size:
            self._sssp_rows(self._wcsr, cold, self._D, cold)
        self._lazy = False
        self._hot = None
        self.stats["promotions"] += 1

    def ensure_rows(self, sources: "Sequence[int] | np.ndarray") -> None:
        """Materialise (and mark hot) any still-cold rows in ``sources``.

        No-op in full mode. Promotes to full mode afterwards when the
        hot count reaches :meth:`promotion_threshold`.
        """
        if not self._lazy:
            return
        src = np.unique(np.asarray(sources, dtype=np.int64).ravel())
        if src.size and (src[0] < 0 or src[-1] >= self._n):
            bad = int(src[0]) if src[0] < 0 else int(src[-1])
            raise VertexError(bad, self._n)
        cold = src[~self._hot[src]]
        if cold.size:
            self._sssp_rows(self._wcsr, cold, self._D, cold)
            self._hot[cold] = True
            self.stats["lazy_rows"] += int(cold.size)
        if int(self._hot.sum()) >= self.promotion_threshold():
            self.promote()

    def query(self, u: int, v: int) -> int:
        """Single ``(u, v)`` distance under the ``inf`` convention.

        Tier-1 read: answered from the matrix when either row is hot
        (the substrate is undirected), otherwise by one bounded
        bidirectional Dial search, materialising nothing. Bit-identical
        to ``matrix[u, v]``.
        """
        if not 0 <= u < self._n:
            raise VertexError(u, self._n)
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)
        self.stats["point_queries"] += 1
        if not self._lazy:
            return int(self._D[u, v])
        if self._hot[u]:
            return int(self._D[u, v])
        if self._hot[v]:
            return int(self._D[v, u])
        from .query import point_to_point

        return point_to_point(self._wcsr, u, v, inf=self._inf)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` distance view (``inf`` for unreachable).

        Aliases the engine's buffer; guard reuse across mutations with
        :meth:`ensure_epoch`. A lazy engine promotes to full mode first
        (prefer :meth:`query` / :meth:`row` to stay lazy).
        """
        if self._lazy:
            self.promote()
        view = self._D.view()
        view.flags.writeable = False
        return view

    def row(self, s: int) -> np.ndarray:
        """Read-only distance row from source ``s`` (``inf`` convention).

        Tier-2 read: a lazy engine materialises just this row (marking
        it hot) rather than promoting.
        """
        if not 0 <= s < self._n:
            raise VertexError(s, self._n)
        if self._lazy:
            self.ensure_rows([s])
        view = self._D[s].view()
        view.flags.writeable = False
        return view

    def distance(self, s: int, v: int) -> int:
        """Distance ``s -> v``; ``UNREACHABLE`` across components."""
        if not 0 <= s < self._n:
            raise VertexError(s, self._n)
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)
        d = self.query(s, v)
        return UNREACHABLE if d >= self._inf else d

    def distances(self, *, sentinel: int = UNREACHABLE) -> np.ndarray:
        """``int64`` copy of the full matrix, unreachable pairs remapped."""
        if self._lazy:
            self.promote()
        out = self._D.astype(np.int64)
        if sentinel != self._inf:
            out[out >= self._inf] = sentinel
        return out

    def ensure_epoch(self, epoch: int) -> None:
        """Raise :class:`StaleDistanceError` unless ``epoch`` is current."""
        if epoch != self._epoch:
            raise StaleDistanceError(
                f"distance view from epoch {epoch} is stale; engine is at "
                f"epoch {self._epoch}"
            )

    # ------------------------------------------------------------------
    # Batched Dial-bucket SSSP kernel
    # ------------------------------------------------------------------
    def _sssp_rows(
        self,
        wcsr: WeightedCSR,
        sources: np.ndarray,
        out: np.ndarray,
        out_rows: np.ndarray,
    ) -> None:
        """Batched SSSP: ``out[out_rows[i]] = dist(sources[i], .)`` in-place.

        Dial bucket relaxation over flat ``(output row, vertex)`` labels:
        bucket ``d`` settles every pair whose tentative label is still
        ``d`` and relaxes all their edges in one batch of gathers.
        Positive weights make the walk monotone (pushes always target
        strictly larger buckets), so a label is final the first time its
        bucket is popped; stale queue entries are skipped by comparing
        against the live label. With all-unit weights each bucket is
        exactly one BFS level and the kernel reproduces the unit
        engine's matrices bit-for-bit.
        """
        n = self._n
        k = sources.size
        if k == 0:
            return
        if not out.flags.c_contiguous or out.shape[1] != n:
            raise GraphError("batched SSSP needs a C-contiguous (k, n) buffer")
        inf = self._inf
        out[out_rows] = inf
        flat = out.reshape(-1)
        if wcsr.max_weight() == 1:
            # Unit-weight degeneration: every Dial bucket is exactly one
            # BFS level, so run the shared flat-frontier BFS kernel (no
            # bucket queue, no scatter-min) — identical output, ~4x
            # faster on the Section 6 regime where all lengths are 1.
            _bfs_flat_frontier(
                wcsr.indptr,
                wcsr.indices,
                n,
                inf,
                flat,
                np.asarray(out_rows, dtype=np.int64),
                np.asarray(sources, dtype=np.int64),
            )
            self.stats["rows_recomputed"] += k
            return
        slots = out_rows.astype(np.int64, copy=True)
        verts = sources.astype(np.int64, copy=True)
        start = slots * n + verts
        flat[start] = 0
        buckets: list[list[np.ndarray]] = [[start]]
        max_d = 0
        d = 0
        while d <= max_d:
            if d >= len(buckets) or not buckets[d]:
                d += 1
                continue
            idx = np.concatenate(buckets[d])
            buckets[d] = []
            idx = idx[flat[idx] == d]  # drop superseded queue entries
            if idx.size == 0:
                d += 1
                continue
            if idx.size > 1:
                idx = np.unique(idx)
            verts = idx % n
            starts = wcsr.indptr[verts]
            counts = wcsr.indptr[verts + 1] - starts
            total = int(counts.sum())
            if total == 0:
                d += 1
                continue
            cum = np.cumsum(counts)
            offsets = np.repeat(starts - (cum - counts), counts) + np.arange(
                total, dtype=np.int64
            )
            nbrs = wcsr.indices[offsets]
            wts = wcsr.weights[offsets]
            tidx = np.repeat(idx - verts, counts) + nbrs  # (slot * n) + nbr
            nd = (d + wts).astype(self._dtype)
            better = nd < flat[tidx]
            tidx = tidx[better]
            nd = nd[better]
            if tidx.size:
                np.minimum.at(flat, tidx, nd)
                if tidx.size > 1:
                    tidx = np.unique(tidx)
                cur = flat[tidx]
                hi = int(cur.max())
                while len(buckets) <= hi:
                    buckets.append([])
                if hi > max_d:
                    max_d = hi
                if tidx.size == 1:
                    buckets[int(cur[0])].append(tidx)
                else:
                    # Group pushes by tentative label: one sort, one split.
                    order = np.argsort(cur, kind="stable")
                    cur = cur[order]
                    tidx = tidx[order]
                    cuts = np.flatnonzero(cur[1:] != cur[:-1]) + 1
                    segs = np.split(tidx, cuts)
                    vals = cur[np.concatenate([[0], cuts])]
                    for val, seg in zip(vals, segs):
                        buckets[int(val)].append(seg)
            d += 1
        self.stats["rows_recomputed"] += k

    def distances_from(
        self, sources: "Sequence[int] | np.ndarray", out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Batched multi-source SSSP on the current substrate.

        Row ``i`` of the result holds weighted distances from
        ``sources[i]`` under the engine's ``inf`` convention.
        """
        src = np.asarray(sources, dtype=np.int64).ravel()
        if src.size and (src.min() < 0 or src.max() >= self._n):
            bad = int(src.min()) if src.min() < 0 else int(src.max())
            raise VertexError(bad, self._n)
        if out is None:
            out = np.empty((src.size, self._n), dtype=self._dtype)
        elif out.shape != (src.size, self._n) or out.dtype != self._dtype:
            raise GraphError(
                f"out buffer must be {np.dtype(self._dtype).name} of shape "
                f"{(src.size, self._n)}"
            )
        self._sssp_rows(self._wcsr, src, out, np.arange(src.size, dtype=np.int64))
        return out

    # ------------------------------------------------------------------
    # Mutation API
    # ------------------------------------------------------------------
    def _check_weights(self, wcsr: WeightedCSR) -> None:
        if wcsr.weights.size == 0:
            return
        if wcsr.weights.min() < 1:
            raise GraphError("edge weights must be positive integers")
        if (self._n - 1) * wcsr.max_weight() >= self._inf:
            raise GraphError(
                f"edge weight {wcsr.max_weight()} overflows the inf sentinel "
                f"{self._inf}; build the engine with max_weight >= "
                f"{wcsr.max_weight()}"
            )

    def rebuild(self, new_wcsr: "WeightedCSR | None" = None) -> None:
        """Full batched SSSP (optionally onto a new substrate).

        A lazy engine exits row-on-demand mode here — after a rebuild
        every row is exact.
        """
        if new_wcsr is not None:
            if new_wcsr.n != self._n:
                raise GraphError(
                    f"substrate size changed ({new_wcsr.n} != {self._n}); "
                    f"build a fresh engine instead"
                )
            self._check_weights(new_wcsr)
            self._wcsr = new_wcsr
        self._lazy = False
        self._hot = None
        all_rows = np.arange(self._n, dtype=np.int64)
        self._sssp_rows(self._wcsr, all_rows, self._D, all_rows)
        self._epoch += 1
        self.stats["rebuilds"] += 1

    def _isolated_endpoint_fix(self, endpoints: "list[int]") -> None:
        """Column/row repair for endpoints isolated by a pendant removal.

        A vertex of degree 1 lies on no shortest path between *other*
        vertices (any walk through it backtracks over its single edge),
        so deleting its last edge changes only its own row and column:
        both become unreachable, except the zero diagonal.
        """
        for y in endpoints:
            self._D[:, y] = self._inf
            self._D[y, :] = self._inf
            self._D[y, y] = 0
        self.stats["pendant_fixes"] += len(endpoints)

    def _deletion_dirty_rows(
        self,
        x: int,
        y: int,
        w_edge: int,
        after_wcsr: WeightedCSR,
        candidates: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Sources whose row may change when edge ``{x, y}`` is removed.

        Weight-aware exact support criterion against the current matrix:
        a source is affected only if the downhill endpoint has no
        surviving tight parent in ``after_wcsr``. ``candidates``
        restricts the filter to those source rows (a lazy engine's hot
        set); the returned ids are still absolute sources.
        """
        D = self._D if candidates is None else self._D[candidates]
        dirty = np.zeros(D.shape[0], dtype=bool)
        dx = D[:, x].astype(np.int64)
        dy = D[:, y].astype(np.int64)
        for hi, dlo in ((y, dx), (x, dy)):
            supported = D[:, hi] == dlo + w_edge
            if not supported.any():
                continue
            alt_nbrs = after_wcsr.neighbors(hi)
            if alt_nbrs.size:
                alt_wts = after_wcsr.neighbor_weights(hi).astype(np.int64)
                alt = (
                    D[:, alt_nbrs].astype(np.int64) + alt_wts[None, :]
                    == D[:, hi].astype(np.int64)[:, None]
                ).any(axis=1)
                dirty |= supported & ~alt
            else:
                dirty |= supported
        hits = np.flatnonzero(dirty)
        return hits if candidates is None else candidates[hits]

    def _lazy_deletion_repair(
        self, x: int, y: int, w_edge: int, after_wcsr: WeightedCSR
    ) -> None:
        """Deletion repair restricted to the hot rows of a lazy engine.

        Same tier walk as :meth:`_single_deletion_repair` minus the
        budget bookkeeping — with only hot rows to maintain the worst
        case is one SSSP per hot row, there is no rebuild to prefer.
        """
        hot = np.flatnonzero(self._hot)
        if hot.size == 0:
            return
        isolated = [v for v in (x, y) if after_wcsr.degree(v) == 0]
        if isolated:
            self._isolated_endpoint_fix(isolated)
            for v in isolated:
                self._hot[v] = True
            return
        dirty = self._deletion_dirty_rows(x, y, w_edge, after_wcsr, candidates=hot)
        if dirty.size == 0:
            return
        roots = _deletion_roots(self._D, x, y, w_edge, dirty)
        cap = dirty.size * self._n / 2.0
        positions = _affected_positions(
            self._D,
            self._inf,
            after_wcsr.indptr,
            after_wcsr.indices,
            after_wcsr.weights,
            dirty,
            roots,
            cap,
        )
        if positions is not None:
            _region_relax(
                self._D,
                self._inf,
                after_wcsr.indptr,
                after_wcsr.indices,
                after_wcsr.weights,
                positions,
            )
            self.stats["region_repairs"] += 1
            self.stats["region_vertices"] += int(positions.size)
            return
        self._sssp_rows(after_wcsr, dirty, self._D, dirty)

    def _remove_edge(self, wcsr: WeightedCSR, x: int, y: int) -> WeightedCSR:
        """Copy of ``wcsr`` with the undirected edge ``{x, y}`` removed."""
        keep = np.ones(wcsr.indices.size, dtype=bool)
        for a, b in ((x, y), (y, x)):
            lo, hi = int(wcsr.indptr[a]), int(wcsr.indptr[a + 1])
            pos = lo + int(np.searchsorted(wcsr.indices[lo:hi], b))
            if pos >= hi or wcsr.indices[pos] != b:
                raise GraphError(f"edge {{{x}, {y}}} not present in substrate")
            keep[pos] = False
        counts = np.diff(wcsr.indptr).copy()
        counts[x] -= 1
        counts[y] -= 1
        indptr = np.zeros(wcsr.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return WeightedCSR(
            n=wcsr.n,
            indptr=indptr,
            indices=wcsr.indices[keep],
            weights=wcsr.weights[keep],
        )

    def _single_deletion_repair(
        self,
        x: int,
        y: int,
        w_edge: int,
        after_wcsr: WeightedCSR,
        *,
        row_budget: float,
        rows_spent: float = 0.0,
    ) -> "float | None":
        """Walk the deletion repair hierarchy for one removed edge.

        The weighted sibling of :meth:`DistanceEngine._single_deletion_repair
        <repro.graphs.engine.DistanceEngine._single_deletion_repair>`:
        pendant fix -> affected-region repair (shared machinery, weight
        aware) -> dirty-row SSSP. Returns the rows-equivalent budget
        spent, or ``None`` when the caller should rebuild.
        """
        isolated = [v for v in (x, y) if after_wcsr.degree(v) == 0]
        if isolated:
            self._isolated_endpoint_fix(isolated)
            return rows_spent
        dirty_rows = self._deletion_dirty_rows(x, y, w_edge, after_wcsr)
        if dirty_rows.size == 0:
            return rows_spent
        roots = _deletion_roots(self._D, x, y, w_edge, dirty_rows)
        cap = dirty_rows.size * self._n / 2.0
        positions = _affected_positions(
            self._D,
            self._inf,
            after_wcsr.indptr,
            after_wcsr.indices,
            after_wcsr.weights,
            dirty_rows,
            roots,
            cap,
        )
        if positions is not None:
            _region_relax(
                self._D,
                self._inf,
                after_wcsr.indptr,
                after_wcsr.indices,
                after_wcsr.weights,
                positions,
            )
            self.stats["region_repairs"] += 1
            self.stats["region_vertices"] += int(positions.size)
            return rows_spent + positions.size / self._n
        rows_spent += dirty_rows.size
        if rows_spent > row_budget:
            return None
        self._sssp_rows(after_wcsr, dirty_rows, self._D, dirty_rows)
        return rows_spent

    def remove_edge(self, x: int, y: int) -> str:
        """Sync the matrix to the substrate minus edge ``{x, y}``.

        The diff-free single-deletion entry point: callers that already
        know the delta (e.g. a cache forwarding one fold to a whole
        engine pool) skip the edge-set diff of :meth:`update` entirely
        and run the deletion repair hierarchy directly — pendant column
        fix when the removal isolates an endpoint, affected-region
        repair when the region stays small, bounded dirty-row recompute,
        rebuild fallback.
        """
        if not 0 <= x < self._n or not 0 <= y < self._n:
            raise GraphError(
                f"edge endpoint out of range [0, {self._n}): {{{x}, {y}}}"
            )
        w_edge = self._wcsr.edge_weight(x, y)  # raises if absent
        new_wcsr = self._remove_edge(self._wcsr, x, y)
        if self._lazy:
            self._lazy_deletion_repair(x, y, w_edge, new_wcsr)
            self._wcsr = new_wcsr
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        if self._dirty_fraction > 0.0:
            spent = self._single_deletion_repair(
                x, y, w_edge, new_wcsr, row_budget=self.row_budget()
            )
            if spent is not None:
                self._wcsr = new_wcsr
                self._epoch += 1
                self.stats["deltas"] += 1
                return "delta"
        self.rebuild(new_wcsr)
        return "rebuild"

    def _insert_edge(self, wcsr: WeightedCSR, x: int, y: int, w: int) -> WeightedCSR:
        """Copy of ``wcsr`` with the undirected edge ``{x, y}`` (length
        ``w``) spliced in; raises if the edge is already present."""
        entries = []
        for a, b in ((x, y), (y, x)):
            lo, hi = int(wcsr.indptr[a]), int(wcsr.indptr[a + 1])
            pos = lo + int(np.searchsorted(wcsr.indices[lo:hi], b))
            if pos < hi and wcsr.indices[pos] == b:
                raise GraphError(f"edge {{{x}, {y}}} already present in substrate")
            entries.append((pos, a, b))
        # Ties in position (adjacent empty rows) must keep row order so
        # each value lands in its owner's CSR segment.
        entries.sort()
        positions = [p for p, _, _ in entries]
        values = [b for _, _, b in entries]
        counts = np.diff(wcsr.indptr).copy()
        counts[x] += 1
        counts[y] += 1
        indptr = np.zeros(wcsr.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return WeightedCSR(
            n=wcsr.n,
            indptr=indptr,
            indices=np.insert(wcsr.indices, positions, values),
            weights=np.insert(wcsr.weights, positions, w),
        )

    def add_edge(self, x: int, y: int, w: int = 1) -> str:
        """Sync the matrix to the substrate plus edge ``{x, y}``.

        The diff-free single-insertion entry point, mirroring
        :meth:`remove_edge`: callers that already know the delta (a
        cache forwarding one Gray-walk arc swap to a whole engine pool)
        skip the edge-set diff of :meth:`update` entirely. Insertions
        only shorten distances, so the repair is one pivot-row SSSP
        plus the vectorised decrease-only min-plus pass — the same
        machinery :meth:`update` uses for its insertion batches.
        """
        if not 0 <= x < self._n or not 0 <= y < self._n:
            raise GraphError(
                f"edge endpoint out of range [0, {self._n}): {{{x}, {y}}}"
            )
        if x == y:
            raise GraphError(f"self-loop {{{x}, {y}}} cannot be inserted")
        w = int(w)
        if w < 1:
            raise GraphError(f"edge weights must be positive integers, got {w}")
        if (self._n - 1) * w >= self._inf:
            raise GraphError(
                f"edge weight {w} overflows the inf sentinel {self._inf}; "
                f"build the engine with max_weight >= {w}"
            )
        new_wcsr = self._insert_edge(self._wcsr, x, y, w)
        if self._lazy:
            self._wcsr = new_wcsr
            hot = np.flatnonzero(self._hot)
            if hot.size:
                pivot = min(x, y)
                rows = np.asarray([pivot], dtype=np.int64)
                self._sssp_rows(new_wcsr, rows, self._D, rows)
                self._hot[pivot] = True
                _minplus_through_pivots(
                    self._D, rows, rows, rows=np.flatnonzero(self._hot)
                )
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        if self._dirty_fraction > 0.0 and self._dirty_fraction * self._n >= 1.0:
            pivot = min(x, y)
            self._wcsr = new_wcsr
            rows = np.asarray([pivot], dtype=np.int64)
            self._sssp_rows(new_wcsr, rows, self._D, rows)
            _minplus_through_pivots(self._D, rows, rows)
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        self.rebuild(new_wcsr)
        return "rebuild"

    def _lazy_update(
        self,
        new_wcsr: WeightedCSR,
        removed_ids: np.ndarray,
        removed_w: np.ndarray,
        added_ids: np.ndarray,
        changed_ids: np.ndarray,
    ) -> str:
        """:meth:`update` for a lazy engine: maintain only the hot rows.

        Light churn repairs hot rows in place (sequential deletions
        through the hot-row hierarchy, pivot rows + the hot-subset
        min-plus pass for insertions). Heavy churn — or any in-place
        weight change, which composes both directions at once — just
        invalidates the hot set (the zero-cost lazy analogue of a
        rebuild); rows re-materialise on demand against the new
        substrate.
        """
        n = self._n
        hot = np.flatnonzero(self._hot)
        churn = removed_ids.size + added_ids.size + changed_ids.size
        heavy = (
            changed_ids.size > 0
            or removed_ids.size > _SEQUENTIAL_DELETION_CAP
            or churn > max(16.0, n / 8)
        )
        if hot.size and not heavy:
            work = self._wcsr
            for eid, w_edge in zip(removed_ids, removed_w):
                x = int(eid // n)
                y = int(eid - x * n)
                work = self._remove_edge(work, x, y)
                self._lazy_deletion_repair(x, y, int(w_edge), work)
            self._wcsr = new_wcsr
            if added_ids.size:
                ax = added_ids // n
                ay = added_ids - ax * n
                pivots = _pivot_cover(np.stack([ax, ay], axis=1))
                self._sssp_rows(new_wcsr, pivots, self._D, pivots)
                self._hot[pivots] = True
                _minplus_through_pivots(
                    self._D, pivots, pivots, rows=np.flatnonzero(self._hot)
                )
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        if hot.size:
            self._hot[:] = False
            self.stats["lazy_invalidations"] += 1
        self._wcsr = new_wcsr
        self._epoch += 1
        self.stats["deltas"] += 1
        return "delta" if not hot.size else "rebuild"

    def update(self, new_wcsr: WeightedCSR) -> str:
        """Sync the matrix to ``new_wcsr``; returns the path taken.

        ``"noop"`` | ``"delta"`` | ``"rebuild"`` — see the module
        docstring for the policy. The epoch is bumped unless the edge
        sets and weights are identical.
        """
        if new_wcsr is self._wcsr:
            self.stats["noops"] += 1
            return "noop"
        if new_wcsr.n != self._n:
            raise GraphError(
                f"substrate size changed ({new_wcsr.n} != {self._n}); "
                f"build a fresh engine instead"
            )
        self._check_weights(new_wcsr)
        old_ids, old_w = _edge_ids_weights(self._wcsr)
        new_ids, new_w = _edge_ids_weights(new_wcsr)
        if old_ids.size + new_ids.size <= 512:
            # Tiny substrates (the census / folding regime): python-set
            # symmetric difference beats intersect1d's sort machinery by
            # a wide margin. Same sorted outputs either way.
            if self._wcsr.max_weight() == 1 and new_wcsr.max_weight() == 1:
                # All-unit regime: weights cannot differ on surviving
                # edges, so the changed-weight scan is skipped and the
                # id sets alone drive the diff.
                old_set = set(old_ids.tolist())
                new_set = set(new_ids.tolist())
                removed_ids = np.asarray(sorted(old_set - new_set), dtype=np.int64)
                removed_w = np.ones(removed_ids.size, dtype=np.int64)
                added_ids = np.asarray(sorted(new_set - old_set), dtype=np.int64)
                changed_ids = np.empty(0, dtype=np.int64)
                changed_old_w = np.empty(0, dtype=np.int64)
            else:
                old_map = dict(zip(old_ids.tolist(), old_w.tolist()))
                new_map = dict(zip(new_ids.tolist(), new_w.tolist()))
                removed = sorted(old_map.keys() - new_map.keys())
                added = sorted(new_map.keys() - old_map.keys())
                changed = sorted(
                    k for k in old_map.keys() & new_map.keys()
                    if old_map[k] != new_map[k]
                )
                removed_ids = np.asarray(removed, dtype=np.int64)
                removed_w = np.asarray([old_map[k] for k in removed], dtype=np.int64)
                added_ids = np.asarray(added, dtype=np.int64)
                changed_ids = np.asarray(changed, dtype=np.int64)
                changed_old_w = np.asarray([old_map[k] for k in changed], dtype=np.int64)
        else:
            common, oi, ni = np.intersect1d(
                old_ids, new_ids, assume_unique=True, return_indices=True
            )
            changed_mask = old_w[oi] != new_w[ni]
            changed_ids = common[changed_mask]
            changed_old_w = old_w[oi][changed_mask]
            removed_mask = np.ones(old_ids.size, dtype=bool)
            removed_mask[oi] = False
            removed_ids = old_ids[removed_mask]
            removed_w = old_w[removed_mask]
            added_mask = np.ones(new_ids.size, dtype=bool)
            added_mask[ni] = False
            added_ids = new_ids[added_mask]
        if removed_ids.size == 0 and added_ids.size == 0 and changed_ids.size == 0:
            self._wcsr = new_wcsr
            self.stats["noops"] += 1
            return "noop"
        if self._lazy:
            return self._lazy_update(
                new_wcsr, removed_ids, removed_w, added_ids, changed_ids
            )

        n = self._n
        row_budget = self._dirty_fraction * n

        if (
            removed_ids.size == 1
            and added_ids.size == 0
            and changed_ids.size == 0
            and self._dirty_fraction > 0.0
        ):
            # Single-deletion fast path (one fold, one dropped arc): the
            # new substrate *is* the post-removal intermediate, so the
            # repair hierarchy runs on it directly — no edge-removal
            # copy, no pivot machinery.
            eid = int(removed_ids[0])
            x = eid // n
            y = eid - x * n
            spent = self._single_deletion_repair(
                x, y, int(removed_w[0]), new_wcsr, row_budget=row_budget
            )
            if spent is not None:
                self._wcsr = new_wcsr
                self._epoch += 1
                self.stats["deltas"] += 1
                return "delta"
            self.rebuild(new_wcsr)
            return "rebuild"

        churn = removed_ids.size + added_ids.size + changed_ids.size
        analysis_cap = min(row_budget, max(16.0, n / 8))
        sequential = removed_ids.size <= _SEQUENTIAL_DELETION_CAP and changed_ids.size == 0
        if self._dirty_fraction == 0.0 or (not sequential and churn > analysis_cap):
            self.rebuild(new_wcsr)
            return "rebuild"

        # Weight changes compose as removal (tight w.r.t. the old
        # weight) + insertion (pivot cover): sound for both directions.
        lengthen_ids = np.concatenate([removed_ids, changed_ids])
        lengthen_w = np.concatenate([removed_w, changed_old_w])
        shorten_ids = np.concatenate([added_ids, changed_ids])

        pivots = np.empty(0, dtype=np.int64)
        if shorten_ids.size:
            if shorten_ids.size > analysis_cap:
                self.rebuild(new_wcsr)
                return "rebuild"
            ax = shorten_ids // n
            ay = shorten_ids - ax * n
            pivots = _pivot_cover(np.stack([ax, ay], axis=1))

        rows_spent = pivots.size
        if rows_spent > row_budget:
            self.rebuild(new_wcsr)
            return "rebuild"
        if sequential and removed_ids.size:
            # One edge at a time through the deletion repair hierarchy
            # (pendant -> affected region -> dirty rows); matrix and
            # working substrate advance together so every step's filter
            # runs against exact distances.
            work = self._wcsr
            spent = float(rows_spent)
            for eid, w_edge in zip(removed_ids, removed_w):
                x = int(eid // n)
                y = int(eid - x * n)
                work = self._remove_edge(work, x, y)
                spent = self._single_deletion_repair(
                    x, y, int(w_edge), work, row_budget=row_budget, rows_spent=spent
                )
                if spent is None:
                    self.rebuild(new_wcsr)
                    return "rebuild"
            rows_spent = spent
            exempt = pivots
        elif lengthen_ids.size:
            # Composed batch: an edge can only lengthen a row's
            # distances if it was tight w.r.t. the pre-batch matrix
            # (|d(s,x) - d(s,y)| == w on some original shortest path),
            # so the coarse filter is sound for the whole batch at once.
            x = lengthen_ids // n
            y = lengthen_ids - x * n
            Dx = self._D[:, x].astype(np.int64)
            Dy = self._D[:, y].astype(np.int64)
            dirty = (np.abs(Dx - Dy) == lengthen_w[None, :]).any(axis=1)
            recompute = np.union1d(np.flatnonzero(dirty), pivots)
            rows_spent += recompute.size - pivots.size
            if rows_spent > row_budget:
                self.rebuild(new_wcsr)
                return "rebuild"
            self._sssp_rows(new_wcsr, recompute, self._D, recompute)
            exempt = recompute
        else:
            exempt = pivots

        self._wcsr = new_wcsr
        if pivots.size:
            if exempt is pivots:
                self._sssp_rows(new_wcsr, pivots, self._D, pivots)
            _minplus_through_pivots(self._D, pivots, exempt)
        self._epoch += 1
        self.stats["deltas"] += 1
        return "delta"
