"""All-pairs distance engine for best-response workloads.

A :class:`DistanceEngine` owns one CSR substrate and the ``(n, n)`` BFS
distance matrix over it, computed by one batched flat-frontier BFS
(:func:`_bfs_flat_frontier`).

Sync rule
---------
``update(new_csr)`` returns the path it took as a status string:

* ``"noop"`` — the edge sets are identical; distances and the epoch are
  untouched (a strategy change that was rolled back, or a swap between a
  brace and its surviving single edge);
* ``"rebuild"`` — anything else. A full-mode engine recomputes every
  row in one batched BFS into its preallocated matrix; a lazy engine
  drops its hot rows, which re-materialise on demand against the new
  substrate.

At the sizes this library runs (n in the low hundreds for dynamics),
a batched rebuild costs about as much as repairing a single deleted
edge, so the engine keeps no incremental repair.

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
   them *hot*. A substrate change drops the hot set, so a mutation
   costs nothing until the consumer reads again.
3. **Full matrix** — :attr:`matrix` (or enough hot rows) promotes the
   engine to the fully-materialised mode. The promotion threshold is
   half the rows (:data:`_PROMOTE_FRACTION`): past it, computing the
   cold remainder in one batch is cheaper than paying for the rest one
   touch at a time.

All three tiers produce bit-identical answers (including the ``inf``
sentinel for unreachable pairs); they only trade how much state is
built.

Every path that may change distances bumps the ``epoch`` counter;
consumers snapshot the epoch at read time and revalidate with
:meth:`ensure_epoch`, so a stale view raises
:class:`~repro.errors.StaleDistanceError` instead of silently serving
distances of a substrate that no longer exists.

Unreachable pairs are stored as the finite sentinel ``inf`` (the paper's
``Cinf = n^2`` by default); :meth:`distances` converts back to the BFS
module's ``UNREACHABLE`` convention on request. Matrices are stored as
``int32`` whenever the sentinel arithmetic fits (it does for every
realistic ``n``), halving the memory traffic of a pool of per-player
engines; consumers that aggregate rows should accumulate into ``int64``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GraphError, StaleDistanceError, VertexError
from .bfs import UNREACHABLE
from .csr import CSRAdjacency, csr_without_vertex, neighbor_offsets
from .distances import cinf

__all__ = ["DistanceEngine", "LazyRowGather"]

#: A lazy engine promotes to full mode once this fraction of its rows
#: is hot.
_PROMOTE_FRACTION: float = 0.5

#: Counters every engine keeps in ``stats``.
STAT_KEYS: "tuple[str, ...]" = (
    "rebuilds",
    "noops",
    "rows_recomputed",
    "lazy_rows",
    "lazy_invalidations",
    "promotions",
    "point_queries",
)

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
    many rows are requested. Shared by the engine's batched kernel and
    the cold-cache batched pair sweep of :mod:`repro.graphs.query`. The
    ``slots``/``verts`` arrays are never written to, so callers may pass
    views.
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


class DistanceEngine:
    """All-pairs BFS distances over one CSR substrate.

    Parameters
    ----------
    csr:
        The initial substrate (an undirected CSR adjacency).
    inf:
        Finite sentinel stored for unreachable pairs. Defaults to the
        paper's ``Cinf = n^2``, which the best-response environment
        consumes directly; it must exceed ``2 * (n - 1)``.
    rows:
        ``"full"`` (default) materialises the all-pairs matrix up
        front. ``"lazy"`` starts unmaterialised: rows are computed and
        marked hot on first touch, a substrate change drops them, and
        the engine promotes itself to full mode once the hot count
        reaches :meth:`promotion_threshold` — see *Three-tier read
        path* in the module docstring.
    """

    __slots__ = (
        "_csr",
        "_n",
        "_inf",
        "_dtype",
        "_D",
        "_epoch",
        "_lazy",
        "_hot",
        "stats",
    )

    def __init__(
        self,
        csr: CSRAdjacency,
        *,
        inf: int | None = None,
        rows: str = "full",
    ) -> None:
        if not isinstance(csr, CSRAdjacency):
            raise GraphError("DistanceEngine needs a CSRAdjacency substrate")
        self._n = csr.n
        self._inf = cinf(csr.n) if inf is None else int(inf)
        if self._inf <= 2 * (self._n - 1):
            raise GraphError(
                f"inf sentinel {self._inf} too small for n={self._n}; "
                f"need inf > 2(n-1)"
            )
        # int32 halves the footprint of an engine pool; consumers add
        # to stored values, so leave headroom of one more inf.
        self._dtype = np.int32 if 2 * self._inf < 2**31 else np.int64
        self._csr = csr
        self._D = np.empty((self._n, self._n), dtype=self._dtype)
        self._epoch = 0
        self.stats = dict.fromkeys(STAT_KEYS, 0)
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
        """Hot-row count at which a lazy engine promotes to full mode:
        ``_PROMOTE_FRACTION * n``, at least one row."""
        return max(1.0, _PROMOTE_FRACTION * self._n)

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

        Sources expand level-synchronously in a flat frontier of
        ``(output row, vertex)`` pairs, up to :data:`_BFS_CHUNK` at a
        time, so each level costs a handful of numpy gathers however many
        sources are in flight. The output buffer is written through its
        flat view — no per-source allocation.
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

    def update(self, new_csr: CSRAdjacency) -> str:
        """Sync the matrix to ``new_csr``; returns ``"noop"`` or ``"rebuild"``.

        See *Sync rule* in the module docstring. The epoch is bumped
        unless the edge sets are identical.
        """
        if new_csr is self._csr:
            self.stats["noops"] += 1
            return "noop"
        if new_csr.n != self._n:
            raise GraphError(
                f"substrate size changed ({new_csr.n} != {self._n}); "
                f"build a fresh engine instead"
            )
        # Rows are sorted and de-duplicated, so equal arrays are equal
        # edge sets.
        if np.array_equal(new_csr.indptr, self._csr.indptr) and np.array_equal(
            new_csr.indices, self._csr.indices
        ):
            self._csr = new_csr
            self.stats["noops"] += 1
            return "noop"
        if not self._lazy:
            self.rebuild(new_csr)
            return "rebuild"
        if self._hot.any():
            self._hot[:] = False
            self.stats["lazy_invalidations"] += 1
        self._csr = new_csr
        self._epoch += 1
        return "rebuild"


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
