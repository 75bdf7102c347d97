"""Shared distance engines kept coherent with one evolving realization.

Serve and the Section 6 checkers need two families of distance
matrices: the underlying graph ``U(G)`` (social cost, Lemma 2.2 skips)
and, per player ``u``, the punctured substrate ``U(G - u)`` that every
candidate strategy of ``u`` is evaluated against.
:class:`DistanceCache` keeps one
:class:`~repro.graphs.engine.DistanceEngine` per substrate and syncs it
on access.

Coherence is revision-driven, not notification-driven: every access
compares the graph's mutation counter with the revision the engine last
synced to, and on mismatch hands the engine the current CSR (the
engine's sync rule is a no-op on an unchanged edge set, else a rebuild).
Out-of-band mutations (callers poking the graph directly) are therefore
picked up automatically — there is no way to read distances of a stale
substrate, and a changed-then-rolled-back graph syncs as a no-op.
``U(G - u)`` does not depend on ``u``'s own strategy, so a player's
engine survives that player's own moves untouched.

Memory: each cached player engine holds an ``(n, n)`` matrix (int32
for every realistic ``n``). ``max_player_engines`` (default: a ~256 MB
budget) bounds the total; least-recently-used engines are evicted and
rebuilt on re-entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import GraphError, VertexError
from ..graphs.digraph import OwnedDigraph
from ..graphs.distances import cinf
from ..graphs.engine import STAT_KEYS, DistanceEngine
from .best_response import BestResponseEnvironment
from .costs import Version

__all__ = ["DistanceCache"]

#: Default memory budget for per-player engines (bytes of distance rows).
_DEFAULT_CACHE_BYTES: int = 256 * 1024 * 1024


class DistanceCache:
    """Revision-synced :class:`DistanceEngine` pool for one graph.

    Parameters
    ----------
    graph:
        The realization to track. The cache never mutates it.
    max_player_engines:
        Cap on simultaneously cached per-player engines (LRU eviction).
        Defaults to whatever fits a ~256 MB matrix budget, at least one.
    rows:
        Forwarded to every engine the cache builds: ``"lazy"`` starts
        each matrix unmaterialised with row-on-demand reads (the cold
        single-verdict regime — :meth:`query` then costs one bounded
        bidirectional search instead of a full build), ``None`` keeps
        the engines' default full materialisation.
    """

    def __init__(
        self,
        graph: OwnedDigraph,
        *,
        max_player_engines: int | None = None,
        rows: "str | None" = None,
    ) -> None:
        self._graph = graph
        self._max_players_requested = max_player_engines
        self._max_players = self._resolve_max_players(graph.n)
        self._engine_kwargs = {} if rows is None else {"rows": rows}
        self._lazy_rows = rows == "lazy"
        self._base: DistanceEngine | None = None
        self._players: "OrderedDict[int, DistanceEngine]" = OrderedDict()
        self._envs: dict[tuple[int, Version], tuple[BestResponseEnvironment, int]] = {}
        self._csr = None
        self._seen_revision: "int | None" = None
        # Sync generation: bumped whenever _sync sees a new revision (or
        # a rebound graph); engines stamped with an older one are stale.
        self._generation = 0
        self._base_generation = -1
        self._player_generations: dict[int, int] = {}
        self._lock = threading.RLock()
        self.evictions = 0
        self.env_hits = 0

    def _resolve_max_players(self, n: int) -> int:
        """Engine-count cap for instance size ``n`` (at least one).

        With no explicit request, sized so the matrices fit the ~256 MB
        budget: engines store int32 whenever the sentinel arithmetic
        fits (every realistic ``n``), int64 otherwise.
        """
        if self._max_players_requested is not None:
            return max(1, int(self._max_players_requested))
        itemsize = 4 if 2 * cinf(n) < 2**31 else 8
        per_engine = max(1, n * n * itemsize)
        return max(1, min(n, _DEFAULT_CACHE_BYTES // per_engine))

    @property
    def graph(self) -> OwnedDigraph:
        """The tracked realization."""
        return self._graph

    @property
    def lazy_rows(self) -> bool:
        """Whether cache-built engines start in row-on-demand mode."""
        return self._lazy_rows

    def rebind(self, graph: OwnedDigraph) -> None:
        """Point the cache at another graph.

        Same-size engines (and their preallocated matrices) are kept:
        the next access syncs them against the new graph, a no-op where
        the edge set is unchanged and a buffer-reusing rebuild
        elsewhere. A size change drops every engine.
        """
        if graph.n != self._graph.n:
            self._base = None
            self._players.clear()
            self._player_generations.clear()
            self._max_players = self._resolve_max_players(graph.n)
        self._graph = graph
        self._seen_revision = None
        self._envs.clear()

    def _sync(self):
        """Refresh the ``U(G)`` substrate and the sync generation."""
        rev = self._graph.revision
        if self._csr is None or self._seen_revision != rev:
            self._csr = self._graph.undirected_csr()
            self._seen_revision = rev
            self._generation += 1
        return self._csr

    # ------------------------------------------------------------------
    def base(self) -> DistanceEngine:
        """Engine over ``U(G)``, synced to the graph's current revision."""
        csr = self._sync()
        if self._base is None:
            self._base = DistanceEngine(csr, **self._engine_kwargs)
        elif self._base_generation != self._generation:
            self._base.update(csr)
        self._base_generation = self._generation
        return self._base

    def base_if_fresh(self) -> DistanceEngine | None:
        """The ``U(G)`` engine only if it is already synced, else ``None``.

        Point reads (one lemma check, one eccentricity) are cheaper as a
        single BFS than as a full matrix rebuild, so callers that only
        need a row use the maintained matrix when it happens to be
        current and fall back to the direct computation otherwise,
        instead of forcing a sync.
        """
        if (
            self._base is not None
            and self._seen_revision == self._graph.revision
            and self._base_generation == self._generation
        ):
            return self._base
        return None

    def query(self, u: int, v: int) -> int:
        """Single ``dist(u, v)`` in ``U(G)`` (``Cinf`` across components).

        Tier-1 read: a fresh (or lazy, hence cheap to sync) base engine
        answers from whatever it has materialised; a cold full-mode
        cache answers with one bounded bidirectional search on the
        substrate — never a full all-pairs build.
        """
        csr = self._sync()
        if self._lazy_rows or (
            self._base is not None and self._base_generation == self._generation
        ):
            return self.base().query(u, v)
        from ..graphs.query import point_to_point

        return point_to_point(csr, u, v, inf=cinf(csr.n))

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serialising engine access across threads.

        The cache's engines are single-threaded state machines; an
        asyncio server hands them between the event loop and its
        per-instance compute thread. :meth:`batch_query` takes this
        lock itself; callers composing multi-call sequences (sync +
        environment + evaluate) hold it around the whole sequence —
        reentrancy makes nesting with :meth:`batch_query` safe.
        """
        return self._lock

    def batch_query(self, pairs: "np.ndarray | list[tuple[int, int]]") -> np.ndarray:
        """Distances for many ``(u, v)`` pairs in ``U(G)`` — one sweep.

        The thread-safe batched entry the serve layer's micro-batching
        dispatcher coalesces concurrent requests into: ``k >= 2`` pairs
        materialise the union of needed rows with **one** batched
        flat-frontier sweep on the base engine (cold full-mode caches
        route through
        :func:`~repro.graphs.query.batched_pair_distances`, same single
        sweep without building an engine), while a singleton batch
        falls back to :meth:`query`'s bidirectional point kernel.
        Returns an ``int64`` array, each entry bit-identical to the
        corresponding :meth:`query` call.
        """
        with self._lock:
            p = np.asarray(pairs, dtype=np.int64)
            if p.ndim != 2 or p.shape[1] != 2:
                raise GraphError(
                    f"pairs must be a (k, 2) array of (u, v) endpoints, "
                    f"got shape {p.shape}"
                )
            n = self._graph.n
            if p.size and (p.min() < 0 or p.max() >= n):
                bad = int(p.min()) if p.min() < 0 else int(p.max())
                raise VertexError(bad, n)
            k = p.shape[0]
            if k == 0:
                return np.empty(0, dtype=np.int64)
            if k == 1:
                return np.asarray(
                    [self.query(int(p[0, 0]), int(p[0, 1]))], dtype=np.int64
                )
            csr = self._sync()
            if self._lazy_rows or (
                self._base is not None and self._base_generation == self._generation
            ):
                engine = self.base()
                engine.ensure_rows(np.unique(p[:, 0]))
                return np.asarray(
                    [engine.query(int(u), int(v)) for u, v in p], dtype=np.int64
                )
            from ..graphs.query import batched_pair_distances

            return batched_pair_distances(csr, p, inf=cinf(csr.n))

    def player(self, u: int) -> DistanceEngine:
        """Engine over ``U(G - u)``, synced to the current revision."""
        if not 0 <= u < self._graph.n:
            raise VertexError(u, self._graph.n)
        self._sync()
        engine = self._players.get(u)
        if engine is None:
            engine = DistanceEngine(
                self._graph.undirected_csr_without(u), **self._engine_kwargs
            )
            self._players[u] = engine
            if len(self._players) > self._max_players:
                evicted, _ = self._players.popitem(last=False)
                self._player_generations.pop(evicted, None)
                for version in Version:
                    self._envs.pop((evicted, version), None)
                self.evictions += 1
        elif self._player_generations.get(u) != self._generation:
            engine.update(self._graph.undirected_csr_without(u))
        self._players.move_to_end(u)
        self._player_generations[u] = self._generation
        return engine

    def environment(self, u: int, version: Version | str) -> BestResponseEnvironment:
        """Engine-backed evaluation substrate for player ``u``.

        The environment snapshots the engine's epoch; if the graph moves
        on afterwards, its evaluation calls raise
        :class:`~repro.errors.StaleDistanceError` instead of silently
        using outdated distances.

        Environments are themselves cached per ``(player, version)``:
        while the graph revision is unchanged, the previous round's
        in-neighbour sets and component labels are still exact, so the
        whole object is reused without touching the graph.
        """
        version = Version.coerce(version)
        key = (int(u), version)
        cached = self._envs.get(key)
        if cached is not None and cached[1] == self._graph.revision:
            self.env_hits += 1
            return cached[0]
        env = BestResponseEnvironment(self._graph, u, version, engine=self.player(u))
        self._envs[key] = (env, self._graph.revision)
        return env

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Engine counters summed over the pool, plus the cache's own.

        Cumulative since construction, including across :meth:`rebind`.
        """
        engines = list(self._players.values())
        if self._base is not None:
            engines.append(self._base)
        total = {key: sum(e.stats[key] for e in engines) for key in STAT_KEYS}
        total["player_engines"] = len(self._players)
        total["evictions"] = self.evictions
        total["env_hits"] = self.env_hits
        return total
