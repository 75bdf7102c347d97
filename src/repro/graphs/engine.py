"""Incremental all-pairs distance engine for best-response workloads.

A :class:`DistanceEngine` owns one CSR substrate and the full ``(n, n)``
BFS distance matrix over it, and keeps that matrix correct as the
substrate evolves one strategy swap at a time. Best-response dynamics
rewires only the handful of undirected edges incident to the deviating
player per step, so repairing the matrix is far cheaper than the
from-scratch all-pairs BFS the engine replaces.

Repair / fallback policy
------------------------
``update(new_csr)`` diffs the old and new CSR edge sets and picks one of
three paths, returned as a status string:

* ``"noop"`` — the edge sets are identical; distances and the epoch are
  untouched (a strategy change that was rolled back, or a swap between a
  brace and its surviving single edge).
* ``"delta"`` — incremental repair:

  - **Deletions** can only *increase* distances. Small batches (at most
    ``_SEQUENTIAL_DELETION_CAP`` edges) are processed one edge at a
    time through the **deletion repair hierarchy** (cheapest tier that
    applies wins; see below). Larger batches use the coarser (sound but
    pessimistic) tightness filter ``|d(s, x) - d(s, y)| == 1`` in one
    composed whole-row pass.
  - **Insertions** can only *decrease* distances. Every inserted edge is
    covered by a small *pivot* vertex set (greedy vertex cover of the
    inserted edges — for a best-response step this is exactly the
    deviating player). Pivot rows are recomputed exactly on the final
    substrate, after which every other row repairs in one vectorised
    decrease-only pass: ``d(s, v) = min(d(s, v), min_p d(p, s) +
    d(p, v))`` — any path through an inserted edge passes through a
    pivot ``p``.

* ``"rebuild"`` — full batched all-pairs BFS into the preallocated
  matrix, taken whenever the rows needing a fresh BFS exceed the row
  budget (repairing most rows costs more than starting over), whenever
  the changed-edge count alone exceeds the analysis budget (heavy
  churn), and always available via :meth:`rebuild`.

Deletion repair hierarchy
-------------------------
Removing one edge ``{x, y}`` walks a four-tier hierarchy, each tier an
order of magnitude cheaper than the next when it applies:

1. **Pendant fix** — the removal isolates a degree-1 endpoint. No
   shortest path between *other* vertices ever crossed it, so the
   repair is one column/row write (the Section 6 fold primitive).
2. **Affected-region repair** (Ramalingam–Reps style) — the exact
   support criterion names the dirty sources: ``s`` is affected only if
   the downhill endpoint (say ``d(s, y) = d(s, x) + 1``) loses its
   *only* tight parent — if another neighbour ``z`` of ``y`` with
   ``d(s, z) = d(s, y) - 1`` survives, every shortest path through the
   edge reroutes through ``z`` at equal length and row ``s`` is
   untouched. For each dirty source the *affected region* — the
   vertices every one of whose tight-parent chains runs through the
   removed edge — is grown from the downhill endpoint in old-distance
   order, then re-relaxed in one masked multi-source Dijkstra seeded
   from the unaffected boundary (positions outside the region keep
   their exact old distances). On tree-like substrates a deletion
   dirties many whole rows but only a small region per row, which is
   exactly the gap this tier closes.
3. **Dirty-row recompute** — a fresh batched BFS of the dirty sources
   on the post-removal substrate, bounded by the row budget.
4. **Rebuild** — full all-pairs BFS.

The row budget is ``dirty_fraction * n``. All tiers produce identical
matrices; the knob only trades time.

:meth:`remove_edge` / :meth:`add_edge` are diff-free single-edge entry
points for callers that already know the delta (a distance cache
forwarding one Gray-step arc swap to a whole engine pool); they skip
the edge-set diff of :meth:`update` and run the same repair machinery.

Three-tier read path
--------------------
Reads escalate through three tiers, each materialising more state:

1. **Bidirectional query** — :meth:`query` answers a single ``(u, v)``
   distance. On a lazy engine with both rows cold it runs one bounded
   forward-backward search (:mod:`repro.graphs.query`) on the current
   substrate and materialises nothing.
2. **Lazy rows** — constructing with ``rows="lazy"`` starts the matrix
   unmaterialised; :meth:`row` / :meth:`distance` (and the explicit
   :meth:`ensure_rows`) compute single rows on first touch and mark
   them *hot*. Delta/region repairs then maintain only the hot rows,
   so a mutation costs what the consumer's working set costs, not
   ``n`` rows.
3. **Full matrix** — :attr:`matrix` (or enough hot rows) promotes the
   engine to the classic fully-materialised mode. The promotion
   threshold reuses the repair cost model: once the hot-row count
   reaches :meth:`row_budget` (``dirty_fraction * n``), maintaining
   rows one by one is estimated to be no cheaper than owning the whole
   matrix, so the engine computes the cold remainder and
   leaves lazy mode for good.

All three tiers produce bit-identical answers (including the ``inf``
sentinel for unreachable pairs); they only trade how much state is
built and kept repaired.

Every path that may change distances bumps the ``epoch`` counter;
consumers snapshot the epoch at read time and revalidate with
:meth:`ensure_epoch`, so a stale view raises
:class:`~repro.errors.StaleDistanceError` instead of silently serving
distances of a substrate that no longer exists.

Unreachable pairs are stored as the finite sentinel ``inf`` (the paper's
``Cinf = n^2`` by default) so that the min-plus repair needs no special
cases; :meth:`distances` converts back to the BFS module's
``UNREACHABLE`` convention on request. Matrices are stored as ``int32``
whenever the sentinel arithmetic fits (it does for every realistic
``n``), halving the memory traffic of a pool of per-player engines;
consumers that aggregate rows should accumulate into ``int64``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GraphError, StaleDistanceError, VertexError
from .bfs import UNREACHABLE
from .csr import CSRAdjacency, csr_without_vertex, neighbor_offsets
from .distances import cinf

__all__ = ["DistanceEngine", "LazyRowGather"]

#: Default fallback threshold: delta-repair only while the rows needing a
#: fresh BFS stay below this fraction of all rows.
DEFAULT_DIRTY_FRACTION: float = 0.5

#: Deletion batches up to this size are repaired edge-by-edge with the
#: exact support criterion; larger batches use the composed tightness
#: filter (cheaper to evaluate, far more pessimistic).
_SEQUENTIAL_DELETION_CAP: int = 32


def _edge_ids(csr: CSRAdjacency) -> np.ndarray:
    """Sorted unique ids ``x * n + y`` (``x < y``) of the undirected edges."""
    row_of = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    mask = row_of < csr.indices
    return row_of[mask] * csr.n + csr.indices[mask]


def _csr_remove_edge(csr: CSRAdjacency, x: int, y: int) -> CSRAdjacency:
    """Copy of ``csr`` with the undirected edge ``{x, y}`` removed."""
    keep = np.ones(csr.indices.size, dtype=bool)
    for a, b in ((x, y), (y, x)):
        lo, hi = int(csr.indptr[a]), int(csr.indptr[a + 1])
        pos = lo + int(np.searchsorted(csr.indices[lo:hi], b))
        if pos >= hi or csr.indices[pos] != b:
            raise GraphError(f"edge {{{x}, {y}}} not present in substrate")
        keep[pos] = False
    counts = np.diff(csr.indptr).copy()
    counts[x] -= 1
    counts[y] -= 1
    indptr = np.zeros(csr.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(n=csr.n, indptr=indptr, indices=csr.indices[keep])


def _csr_insert_edge(csr: CSRAdjacency, x: int, y: int) -> CSRAdjacency:
    """Copy of ``csr`` with the undirected edge ``{x, y}`` spliced in."""
    entries = []
    for a, b in ((x, y), (y, x)):
        lo, hi = int(csr.indptr[a]), int(csr.indptr[a + 1])
        pos = lo + int(np.searchsorted(csr.indices[lo:hi], b))
        if pos < hi and csr.indices[pos] == b:
            raise GraphError(f"edge {{{x}, {y}}} already present in substrate")
        entries.append((pos, a, b))
    # Ties in position (adjacent empty rows) must keep row order so each
    # value lands in its owner's CSR segment.
    entries.sort()
    counts = np.diff(csr.indptr).copy()
    counts[x] += 1
    counts[y] += 1
    indptr = np.zeros(csr.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(
        n=csr.n,
        indptr=indptr,
        indices=np.insert(
            csr.indices, [p for p, _, _ in entries], [b for _, _, b in entries]
        ),
    )


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
    0``. Shared by the engine's batched kernel and the cold-cache
    batched pair sweep of :mod:`repro.graphs.query`. The
    ``slots``/``verts`` arrays are never written to (the loop rebinds
    fresh arrays), so callers may pass views.
    """
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


def _gather_neighbors(
    indptr: np.ndarray, verts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR offsets of every edge leaving ``verts``, plus the owner index.

    ``owner[e]`` is the position in ``verts`` edge ``e`` leaves from.
    """
    offsets, counts = neighbor_offsets(indptr, verts)
    return offsets, np.repeat(np.arange(verts.size, dtype=np.int64), counts)


def _deletion_roots(
    D: np.ndarray, x: int, y: int, sources: np.ndarray
) -> np.ndarray:
    """Downhill endpoint of the removed edge ``{x, y}`` per dirty source.

    For a source ``s`` dirtied by the deletion, exactly one endpoint is
    downhill (``d(s, y) = d(s, x) + 1`` or vice versa); that endpoint
    lost its only tight parent and seeds the affected region.
    """
    dx = D[sources, x].astype(np.int64)
    dy = D[sources, y].astype(np.int64)
    return np.where(dy == dx + 1, y, x).astype(np.int64)


def _affected_positions(
    D: np.ndarray,
    inf: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    roots: np.ndarray,
    cap: float,
) -> "np.ndarray | None":
    """Flat ``s * n + v`` positions whose distance may grow, or ``None``.

    Ramalingam–Reps affected-set computation, batched over all dirty
    sources at once: ``roots[i]`` (the downhill endpoint that lost its
    only tight parent for ``sources[i]``) seeds the region, and a vertex
    joins iff *every* tight parent — a surviving neighbour ``u`` with
    ``d(s, u) + 1 = d(s, v)`` w.r.t. the pre-removal matrix ``D`` — is
    already in the region (one unaffected tight parent preserves a
    shortest path of unchanged length, so the vertex and its whole
    downstream cone keep their distances). Candidates are processed in
    increasing old-distance buckets, so parents are always classified
    before children; the set is a (safe) over-approximation of the
    vertices whose distances actually change.

    Returns ``None`` as soon as the region outgrows ``cap`` — the signal
    to fall back to the dirty-row tier.
    """
    n = D.shape[1]
    flatD = D.reshape(-1)
    affected = np.zeros(D.size, dtype=bool)
    seeds = sources * n + roots
    affected[seeds] = True
    total = seeds.size
    if total > cap:
        return None
    marked = [seeds]
    buckets: "dict[int, list[np.ndarray]]" = {}

    def push_children(pos: np.ndarray) -> None:
        """Queue the strictly-downhill neighbours of newly marked positions."""
        v = pos % n
        offsets, owner = _gather_neighbors(indptr, v)
        if offsets.size == 0:
            return
        tpos = (pos - v)[owner] + indices[offsets]
        tvals = flatD[tpos]
        keep = (tvals > flatD[pos][owner]) & (tvals < inf) & ~affected[tpos]
        tpos = tpos[keep]
        if tpos.size == 0:
            return
        tvals = tvals[keep].astype(np.int64)
        order = np.argsort(tvals, kind="stable")
        tvals = tvals[order]
        tpos = tpos[order]
        cuts = np.flatnonzero(tvals[1:] != tvals[:-1]) + 1
        segs = np.split(tpos, cuts)
        vals = tvals[np.concatenate([[0], cuts])] if cuts.size else tvals[:1]
        for val, seg in zip(vals, segs):
            buckets.setdefault(int(val), []).append(seg)

    push_children(seeds)
    while buckets:
        level = min(buckets)
        cand = np.unique(np.concatenate(buckets.pop(level)))
        cand = cand[~affected[cand]]
        if cand.size == 0:
            continue
        v = cand % n
        offsets, owner = _gather_neighbors(indptr, v)
        ppos = (cand - v)[owner] + indices[offsets]
        tight = flatD[ppos].astype(np.int64) + 1 == level
        escape = tight & ~affected[ppos]
        has_escape = np.zeros(cand.size, dtype=bool)
        np.logical_or.at(has_escape, owner, escape)
        newly = cand[~has_escape]
        if newly.size == 0:
            continue
        affected[newly] = True
        total += newly.size
        if total > cap:
            return None
        marked.append(newly)
        push_children(newly)
    return np.concatenate(marked)


def _region_relax(
    D: np.ndarray,
    inf: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    positions: np.ndarray,
) -> None:
    """Exact in-place recompute of the affected positions.

    Masked multi-source Dijkstra restricted to the region: affected
    labels reset to ``inf``, are seeded from their unaffected neighbours
    (whose distances are final — a deletion never changes them), then
    settle in one global nondecreasing-label loop. Edges never cross
    source slots, so merging all sources into one schedule is still
    Dijkstra per source; positions left at ``inf`` are genuinely
    unreachable.
    """
    n = D.shape[1]
    flatD = D.reshape(-1)
    aff = np.zeros(D.size, dtype=bool)
    aff[positions] = True
    flatD[positions] = inf
    v = positions % n
    offsets, owner = _gather_neighbors(indptr, v)
    if offsets.size:
        cand = flatD[(positions - v)[owner] + indices[offsets]].astype(np.int64) + 1
        np.minimum(cand, int(inf), out=cand)
        labels = np.full(positions.size, int(inf), dtype=np.int64)
        np.minimum.at(labels, owner, cand)
        flatD[positions] = labels.astype(flatD.dtype)
    remaining = positions
    while remaining.size:
        vals = flatD[remaining].astype(np.int64)
        finite = vals < inf
        if not finite.any():
            break
        m = int(vals[finite].min())
        front_mask = vals == m
        front = remaining[front_mask]
        remaining = remaining[~front_mask]
        fv = front % n
        offsets, owner = _gather_neighbors(indptr, fv)
        if offsets.size == 0:
            continue
        tpos = (front - fv)[owner] + indices[offsets]
        improve = aff[tpos] & (flatD[tpos].astype(np.int64) > m + 1)
        if improve.any():
            flatD[tpos[improve]] = m + 1


def _minplus_through_pivots(
    D: np.ndarray,
    pivots: np.ndarray,
    exempt: np.ndarray,
    rows: "np.ndarray | None" = None,
) -> None:
    """Decrease-only min-plus repair through already-exact pivot rows.

    Every row not in ``exempt`` improves in place via ``d(s, v) =
    min(d(s, v), d(p, s) + d(p, v))`` over the pivots — sound because
    any strictly shorter new path crosses an inserted/shortened edge
    and hence a pivot, whose row is exact. Shared by the insertion
    paths ``add_edge`` and ``update``. ``rows``
    restricts the repair to a subset of rows (a lazy engine's hot set);
    ``None`` means every row.
    """
    n = D.shape[1]
    if rows is None:
        survivors = np.ones(n, dtype=bool)
    else:
        survivors = np.zeros(n, dtype=bool)
        survivors[rows] = True
    survivors[exempt] = False
    rows = np.flatnonzero(survivors)
    if rows.size == 0:
        return
    block = D[rows]
    for p in pivots:
        dp = D[p]
        np.minimum(block, dp[rows, None] + dp[None, :], out=block)
    D[rows] = block


def _pivot_cover(edges: np.ndarray) -> np.ndarray:
    """Small vertex set covering every edge (greedy max-degree, deterministic).

    For the edges inserted by one player's strategy change this returns
    exactly that player; the greedy rule keeps the cover near-minimal
    when several pending moves are composed into one delta.
    """
    remaining = [(int(x), int(y)) for x, y in edges]
    pivots: list[int] = []
    while remaining:
        counts: dict[int, int] = {}
        for x, y in remaining:
            counts[x] = counts.get(x, 0) + 1
            counts[y] = counts.get(y, 0) + 1
        # Highest cover count wins; ties break to the smallest vertex id
        # so replays are deterministic.
        best = min(counts, key=lambda v: (-counts[v], v))
        pivots.append(best)
        remaining = [e for e in remaining if best not in e]
    return np.asarray(sorted(pivots), dtype=np.int64)


class DistanceEngine:
    """All-pairs BFS distances over one CSR substrate, with delta repair.

    Parameters
    ----------
    csr:
        The initial substrate (an undirected CSR adjacency).
    inf:
        Finite sentinel stored for unreachable pairs. Defaults to the
        paper's ``Cinf = n^2``, which the best-response environment
        consumes directly; any value ``> 2 * (n - 1)`` is safe for the
        min-plus repair.
    dirty_fraction:
        Fallback knob in ``[0, 1]``: see the module docstring. ``0.0``
        disables delta repair entirely (every change rebuilds), ``1.0``
        forces delta repair whenever the analysis budget allows it.
    rows:
        ``"full"`` (default) materialises the all-pairs matrix up
        front. ``"lazy"`` starts unmaterialised: rows are computed and
        marked hot on first touch, repairs maintain only the hot rows,
        and the engine promotes itself to full mode once the hot count
        reaches :meth:`row_budget` — see *Three-tier read path* in the
        module docstring.
    """

    __slots__ = (
        "_csr",
        "_n",
        "_inf",
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
        csr: CSRAdjacency,
        *,
        inf: int | None = None,
        dirty_fraction: float = DEFAULT_DIRTY_FRACTION,
        rows: str = "full",
    ) -> None:
        if not isinstance(csr, CSRAdjacency):
            raise GraphError("DistanceEngine needs a CSRAdjacency substrate")
        if isinstance(dirty_fraction, str) or not 0.0 <= dirty_fraction <= 1.0:
            raise GraphError(
                f"dirty_fraction must be a float in [0, 1], got {dirty_fraction!r}"
            )
        self._n = csr.n
        self._inf = cinf(csr.n) if inf is None else int(inf)
        if self._inf <= 2 * (self._n - 1):
            raise GraphError(
                f"inf sentinel {self._inf} too small for n={self._n}; "
                f"need inf > 2(n-1) for the min-plus repair"
            )
        # int32 halves the footprint of an engine pool; all stored values
        # are bounded by inf and the min-plus repair peaks at 2 * inf.
        self._dtype = np.int32 if 2 * self._inf < 2**31 else np.int64
        self._dirty_fraction = float(dirty_fraction)
        self._csr = csr
        self._D = np.empty((self._n, self._n), dtype=self._dtype)
        self._epoch = 0
        self.stats = {
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
        if rows not in ("full", "lazy"):
            raise GraphError(f'rows must be "full" or "lazy", got {rows!r}')
        if rows == "lazy":
            self._lazy = True
            self._hot = np.zeros(self._n, dtype=bool)
        else:
            self.rebuild()  # sets the full-mode state: _lazy False, _hot None

    @classmethod
    def from_graph(
        cls, graph, *, isolate: int | None = None, **kwargs
    ) -> "DistanceEngine":
        """Engine over ``U(G)``, optionally with one vertex isolated.

        ``isolate=u`` builds the best-response substrate ``U(G - u)``
        (same index space, ``u`` edgeless).
        """
        csr = graph.undirected_csr()
        if isolate is not None:
            csr = csr_without_vertex(csr, isolate)
        return cls(csr, **kwargs)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices of the substrate."""
        return self._n

    @property
    def csr(self) -> CSRAdjacency:
        """The substrate the current matrix describes."""
        return self._csr

    @property
    def inf(self) -> int:
        """Finite sentinel stored for unreachable pairs."""
        return self._inf

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

    def promotion_threshold(self) -> float:
        """Hot-row count at which a lazy engine promotes to full mode.

        The break-even point of the cost model: once :meth:`row_budget`
        rows are hot, maintaining them one by one is estimated to cost
        as much as the batched rebuild that a full matrix amortises.
        """
        return max(1.0, self.row_budget())

    def promote(self) -> None:
        """Materialise the remaining cold rows and leave lazy mode.

        Distance content does not change for any row a reader could
        have observed (hot rows are kept, cold rows were never handed
        out), so the epoch does not advance.
        """
        if not self._lazy:
            return
        cold = np.flatnonzero(~self._hot)
        if cold.size:
            self._bfs_rows(self._csr, cold, self._D, cold)
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
            self._bfs_rows(self._csr, cold, self._D, cold)
            self._hot[cold] = True
            self.stats["lazy_rows"] += int(cold.size)
        if int(self._hot.sum()) >= self.promotion_threshold():
            self.promote()

    def query(self, u: int, v: int) -> int:
        """Single ``(u, v)`` distance under the ``inf`` convention.

        Tier-1 read: answered from the matrix when the relevant row is
        materialised (either direction — the substrate is undirected),
        otherwise by one bounded bidirectional search on the substrate,
        materialising nothing. Bit-identical to ``matrix[u, v]``.
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

        return point_to_point(self._csr, u, v, inf=self._inf)

    def row_budget(self) -> float:
        """Rows a delta repair may recompute before falling back to
        rebuild: ``dirty_fraction * n``."""
        return self._dirty_fraction * self._n

    def _region_cap(self, ndirty: int) -> float:
        """Affected positions the region tier may grow before the
        dirty-row tier is estimated to be cheaper.

        Half the dirty-row work (``ndirty * n / 2`` positions) keeps the
        tier honest: ``ndirty`` rows would be recomputed otherwise.
        """
        return ndirty * self._n / 2.0

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` distance view (``inf`` for unreachable).

        The view aliases the engine's buffer: it is only valid for the
        epoch at which it was taken. Guard reuse with
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
    # Batched BFS kernel
    # ------------------------------------------------------------------
    def _bfs_rows(
        self,
        csr: CSRAdjacency,
        sources: np.ndarray,
        out: np.ndarray,
        out_rows: np.ndarray,
    ) -> None:
        """Batched BFS: ``out[out_rows[i]] = dist(sources[i], .)`` in-place.

        All sources expand level-synchronously in one flat frontier of
        ``(output row, vertex)`` pairs, so each level costs a handful of
        numpy gathers regardless of how many sources are in flight. The
        output buffer is written through its flat view — no per-source
        allocation.
        """
        n = self._n
        k = sources.size
        if k == 0:
            return
        if not out.flags.c_contiguous or out.shape[1] != n:
            raise GraphError("batched BFS needs a C-contiguous (k, n) buffer")
        inf = self._inf
        out[out_rows] = inf
        flat = out.reshape(-1)
        _bfs_flat_frontier(
            csr.indptr,
            csr.indices,
            n,
            inf,
            flat,
            np.asarray(out_rows, dtype=np.int64),
            np.asarray(sources, dtype=np.int64),
        )
        self.stats["rows_recomputed"] += k

    def distances_from(
        self, sources: Sequence[int] | np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched multi-source BFS on the current substrate.

        Row ``i`` of the result holds distances from ``sources[i]``
        under the engine's ``inf`` convention. Pass a preallocated
        C-contiguous ``(len(sources), n)`` buffer of the engine's dtype
        as ``out`` to avoid the allocation on hot paths.
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
        self._bfs_rows(self._csr, src, out, np.arange(src.size, dtype=np.int64))
        return out

    # ------------------------------------------------------------------
    # Mutation API
    # ------------------------------------------------------------------
    def rebuild(self, new_csr: CSRAdjacency | None = None) -> None:
        """Full batched all-pairs BFS (optionally onto a new substrate).

        A lazy engine exits row-on-demand mode here — after a rebuild
        every row is exact, so staying lazy would only re-pay the
        bookkeeping.
        """
        if new_csr is not None:
            if new_csr.n != self._n:
                raise GraphError(
                    f"substrate size changed ({new_csr.n} != {self._n}); "
                    f"build a fresh engine instead"
                )
            self._csr = new_csr
        self._lazy = False
        self._hot = None
        all_rows = np.arange(self._n, dtype=np.int64)
        self._bfs_rows(self._csr, all_rows, self._D, all_rows)
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

    def _single_deletion_repair(
        self,
        x: int,
        y: int,
        after_csr: CSRAdjacency,
        *,
        row_budget: float,
        rows_spent: float = 0.0,
    ) -> "float | None":
        """Walk the deletion repair hierarchy for one removed edge.

        ``after_csr`` is the substrate with ``{x, y}`` already removed;
        the matrix must be exact for the substrate *with* the edge. On
        success the matrix is exact for ``after_csr`` and the
        rows-equivalent budget spent so far is returned; ``None`` means
        every tier was over budget and the caller should rebuild.
        Tiers: pendant fix -> affected-region repair -> dirty rows.
        """
        isolated = [v for v in (x, y) if after_csr.degree(v) == 0]
        if isolated:
            self._isolated_endpoint_fix(isolated)
            return rows_spent
        dirty_rows = self._deletion_dirty_rows(x, y, after_csr)
        if dirty_rows.size == 0:
            return rows_spent
        roots = _deletion_roots(self._D, x, y, dirty_rows)
        cap = self._region_cap(dirty_rows.size)
        positions = _affected_positions(
            self._D,
            self._inf,
            after_csr.indptr,
            after_csr.indices,
            dirty_rows,
            roots,
            cap,
        )
        if positions is not None:
            _region_relax(
                self._D,
                self._inf,
                after_csr.indptr,
                after_csr.indices,
                positions,
            )
            self.stats["region_repairs"] += 1
            self.stats["region_vertices"] += int(positions.size)
            return rows_spent + positions.size / self._n
        rows_spent += dirty_rows.size
        if rows_spent > row_budget:
            return None
        self._bfs_rows(after_csr, dirty_rows, self._D, dirty_rows)
        return rows_spent

    def remove_edge(self, x: int, y: int) -> str:
        """Sync the matrix to the substrate minus edge ``{x, y}``.

        The diff-free single-deletion entry point: callers that already
        know the delta (e.g. a cache forwarding one Gray-step op to a
        whole engine pool) skip the edge-set diff of :meth:`update`
        entirely and run the deletion repair hierarchy directly.
        """
        if not 0 <= x < self._n or not 0 <= y < self._n:
            raise GraphError(
                f"edge endpoint out of range [0, {self._n}): {{{x}, {y}}}"
            )
        after_csr = _csr_remove_edge(self._csr, x, y)  # raises if absent
        if self._lazy:
            self._lazy_deletion_repair(x, y, after_csr)
            self._csr = after_csr
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        if self._dirty_fraction > 0.0:
            spent = self._single_deletion_repair(
                x, y, after_csr, row_budget=self.row_budget()
            )
            if spent is not None:
                self._csr = after_csr
                self._epoch += 1
                self.stats["deltas"] += 1
                return "delta"
        self.rebuild(after_csr)
        return "rebuild"

    def add_edge(self, x: int, y: int) -> str:
        """Sync the matrix to the substrate plus edge ``{x, y}``.

        The diff-free single-insertion entry point, mirroring
        :meth:`remove_edge`. Insertions only shorten distances, so the
        repair is one pivot-row BFS plus the vectorised decrease-only
        min-plus pass — the same machinery :meth:`update` uses for its
        insertion batches.
        """
        if not 0 <= x < self._n or not 0 <= y < self._n:
            raise GraphError(
                f"edge endpoint out of range [0, {self._n}): {{{x}, {y}}}"
            )
        if x == y:
            raise GraphError(f"self-loop {{{x}, {y}}} cannot be inserted")
        new_csr = _csr_insert_edge(self._csr, x, y)  # raises if present
        if self._lazy:
            self._csr = new_csr
            hot = np.flatnonzero(self._hot)
            if hot.size:
                pivot = min(x, y)
                rows = np.asarray([pivot], dtype=np.int64)
                self._bfs_rows(new_csr, rows, self._D, rows)
                self._hot[pivot] = True
                _minplus_through_pivots(
                    self._D, rows, rows, rows=np.flatnonzero(self._hot)
                )
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        if self._dirty_fraction > 0.0 and self.row_budget() >= 1.0:
            pivot = min(x, y)
            self._csr = new_csr
            rows = np.asarray([pivot], dtype=np.int64)
            self._bfs_rows(new_csr, rows, self._D, rows)
            _minplus_through_pivots(self._D, rows, rows)
            self._epoch += 1
            self.stats["deltas"] += 1
            return "delta"
        self.rebuild(new_csr)
        return "rebuild"

    def _deletion_dirty_rows(
        self,
        x: int,
        y: int,
        after_csr: CSRAdjacency,
        candidates: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Sources whose row may change when edge ``{x, y}`` is removed.

        Exact support criterion against the current matrix: a source is
        affected only if the downhill endpoint has no surviving tight
        parent in ``after_csr`` (the substrate with the edge already
        removed, and without any not-yet-applied insertions).
        ``candidates`` restricts the filter to those source rows (the
        lazy engines' hot set — cold rows hold garbage and must not be
        read); the returned ids are still absolute sources.
        """
        D = self._D if candidates is None else self._D[candidates]
        dirty = np.zeros(D.shape[0], dtype=bool)
        dx = D[:, x]
        dy = D[:, y]
        for hi, dlo in ((y, dx), (x, dy)):
            supported = D[:, hi] == dlo + 1
            if not supported.any():
                continue
            alt_nbrs = after_csr.neighbors(hi)
            if alt_nbrs.size:
                alt = (D[:, alt_nbrs] == dlo[:, None]).any(axis=1)
                dirty |= supported & ~alt
            else:
                dirty |= supported
        hits = np.flatnonzero(dirty)
        return hits if candidates is None else candidates[hits]

    def _lazy_deletion_repair(self, x: int, y: int, after_csr: CSRAdjacency) -> None:
        """Deletion repair restricted to the hot rows of a lazy engine.

        Same tier walk as :meth:`_single_deletion_repair` minus the
        budget bookkeeping — with only hot rows to maintain there is no
        rebuild to fall back to, the worst case is re-running BFS for
        each hot row. Cold rows are garbage before and after; the
        pendant fix's row/column writes are correct on hot rows and
        harmless on cold ones.
        """
        hot = np.flatnonzero(self._hot)
        if hot.size == 0:
            return
        isolated = [v for v in (x, y) if after_csr.degree(v) == 0]
        if isolated:
            self._isolated_endpoint_fix(isolated)
            # The fixed endpoint's own row is now exact whether or not
            # it was hot before.
            for v in isolated:
                self._hot[v] = True
            return
        dirty = self._deletion_dirty_rows(x, y, after_csr, candidates=hot)
        if dirty.size == 0:
            return
        roots = _deletion_roots(self._D, x, y, dirty)
        cap = self._region_cap(dirty.size)
        positions = _affected_positions(
            self._D,
            self._inf,
            after_csr.indptr,
            after_csr.indices,
            dirty,
            roots,
            cap,
        )
        if positions is not None:
            _region_relax(
                self._D,
                self._inf,
                after_csr.indptr,
                after_csr.indices,
                positions,
            )
            self.stats["region_repairs"] += 1
            self.stats["region_vertices"] += int(positions.size)
            return
        self._bfs_rows(after_csr, dirty, self._D, dirty)

    def _lazy_update(
        self, new_csr: CSRAdjacency, removed_ids: np.ndarray, added_ids: np.ndarray
    ) -> str:
        """:meth:`update` for a lazy engine: maintain only the hot rows.

        Light churn repairs hot rows in place (sequential deletions
        through the hot-row hierarchy, then pivot rows + the hot-subset
        min-plus pass for insertions). Heavy churn simply invalidates
        the hot set — the lazy analogue of a rebuild, at zero cost —
        and rows re-materialise on demand against the new substrate.
        """
        n = self._n
        hot = np.flatnonzero(self._hot)
        churn = removed_ids.size + added_ids.size
        heavy = removed_ids.size > _SEQUENTIAL_DELETION_CAP or churn > max(
            16.0, n / 8
        )
        if hot.size and not heavy:
            work_csr = self._csr
            for eid in removed_ids:
                x = int(eid // n)
                y = int(eid - x * n)
                work_csr = _csr_remove_edge(work_csr, x, y)
                self._lazy_deletion_repair(x, y, work_csr)
            self._csr = new_csr
            if added_ids.size:
                ax = added_ids // n
                ay = added_ids - ax * n
                pivots = _pivot_cover(np.stack([ax, ay], axis=1))
                self._bfs_rows(new_csr, pivots, self._D, pivots)
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
        self._csr = new_csr
        self._epoch += 1
        self.stats["deltas"] += 1
        return "delta" if not hot.size else "rebuild"

    def update(self, new_csr: CSRAdjacency) -> str:
        """Sync the matrix to ``new_csr``; returns the path taken.

        ``"noop"`` | ``"delta"`` | ``"rebuild"`` — see the module
        docstring for the policy. The epoch is bumped unless the edge
        sets are identical.
        """
        if new_csr is self._csr:
            self.stats["noops"] += 1
            return "noop"
        if new_csr.n != self._n:
            raise GraphError(
                f"substrate size changed ({new_csr.n} != {self._n}); "
                f"build a fresh engine instead"
            )
        old_ids = _edge_ids(self._csr)
        new_ids = _edge_ids(new_csr)
        if old_ids.size + new_ids.size <= 512:
            # Tiny substrates (the census regime): python-set symmetric
            # difference beats setdiff1d's isin/unique machinery by an
            # order of magnitude. Same sorted outputs either way.
            old_set = set(old_ids.tolist())
            new_set = set(new_ids.tolist())
            removed_ids = np.asarray(sorted(old_set - new_set), dtype=np.int64)
            added_ids = np.asarray(sorted(new_set - old_set), dtype=np.int64)
        else:
            removed_ids = np.setdiff1d(old_ids, new_ids, assume_unique=True)
            added_ids = np.setdiff1d(new_ids, old_ids, assume_unique=True)
        if removed_ids.size == 0 and added_ids.size == 0:
            self._csr = new_csr
            self.stats["noops"] += 1
            return "noop"
        if self._lazy:
            return self._lazy_update(new_csr, removed_ids, added_ids)

        n = self._n
        row_budget = self.row_budget()
        analysis_cap = min(row_budget, max(16.0, n / 8))
        sequential = removed_ids.size <= _SEQUENTIAL_DELETION_CAP
        if self._dirty_fraction == 0.0 or (
            not sequential and removed_ids.size + added_ids.size > analysis_cap
        ):
            # Heavy churn: the per-edge analysis below would cost more
            # than the batched rebuild it is trying to avoid.
            self.rebuild(new_csr)
            return "rebuild"

        pivots = np.empty(0, dtype=np.int64)
        if added_ids.size:
            if added_ids.size > analysis_cap:
                self.rebuild(new_csr)
                return "rebuild"
            ax = added_ids // n
            ay = added_ids - ax * n
            pivots = _pivot_cover(np.stack([ax, ay], axis=1))

        rows_spent = float(pivots.size)
        if rows_spent > row_budget:
            self.rebuild(new_csr)
            return "rebuild"
        if sequential and removed_ids.size:
            # One edge at a time through the deletion repair hierarchy
            # (pendant -> affected region -> dirty rows); the matrix and
            # a working substrate advance together, so each step's
            # filter and repair are against exact distances.
            work_csr = self._csr
            for eid in removed_ids:
                x = int(eid // n)
                y = int(eid - x * n)
                work_csr = _csr_remove_edge(work_csr, x, y)
                spent = self._single_deletion_repair(
                    x, y, work_csr, row_budget=row_budget, rows_spent=rows_spent
                )
                if spent is None:
                    self.rebuild(new_csr)
                    return "rebuild"
                rows_spent = spent
            exempt = pivots
        elif removed_ids.size:
            # Composed batch: the coarse tightness filter, one pass.
            x = removed_ids // n
            y = removed_ids - x * n
            Dx = self._D[:, x].astype(np.int64)
            Dy = self._D[:, y].astype(np.int64)
            dirty = (np.abs(Dx - Dy) == 1).any(axis=1)
            recompute = np.union1d(np.flatnonzero(dirty), pivots)
            rows_spent += recompute.size - pivots.size
            if rows_spent > row_budget:
                self.rebuild(new_csr)
                return "rebuild"
            # Recomputed on the final substrate, so these rows are
            # already exact and skip the insertion repair below.
            self._bfs_rows(new_csr, recompute, self._D, recompute)
            exempt = recompute
        else:
            exempt = pivots

        self._csr = new_csr
        if pivots.size:
            if exempt is pivots:
                # Not yet recomputed (the composed path folds the pivot
                # rows into `recompute` on the final substrate already).
                self._bfs_rows(new_csr, pivots, self._D, pivots)
            _minplus_through_pivots(self._D, pivots, exempt)
        self._epoch += 1
        self.stats["deltas"] += 1
        return "delta"


class LazyRowGather:
    """Numpy-indexable facade over an engine that materialises rows on
    demand.

    The batch environments read distances with fancy indexing
    (``self.D[rows, cols]``, ``self.D[mask]``); handing them
    ``engine.matrix`` would promote a lazy engine immediately. This
    facade forwards ``__getitem__`` after ensuring the touched *rows*
    are hot, so ``D[cur, v]``-style reads stay row-on-demand and the
    environments' indexing code is unchanged. A full-row slice in the
    row position (``D[:, v]``) genuinely needs every row and promotes.

    Reads the engine's ``_D`` buffer directly once the touched rows
    are hot.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine) -> None:
        self._engine = engine

    @property
    def shape(self) -> "tuple[int, int]":
        return (self._engine.n, self._engine.n)

    def __getitem__(self, key):
        eng = self._engine
        if eng.lazy:
            rows = key[0] if isinstance(key, tuple) else key
            if isinstance(rows, slice):
                eng.promote()
            else:
                r = np.asarray(rows)
                if r.dtype == bool:
                    r = np.flatnonzero(r)
                eng.ensure_rows(np.unique(r.ravel()))
        out = eng._D[key]
        if isinstance(out, np.ndarray) and out.base is not None:
            out = out.view()
            out.flags.writeable = False
        return out
