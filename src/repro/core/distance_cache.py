"""Shared distance engines over one frozen realization.

Serve needs two families of distance matrices: the underlying graph
``U(G)`` (social cost, Lemma 2.2 skips) and, per player ``u``, the
punctured substrate ``U(G - u)`` that every candidate strategy of ``u``
is evaluated against. :class:`DistanceCache` keeps one
:class:`~repro.graphs.engine.DistanceEngine` per substrate, built on
first access.

Coherence comes from immutability: the constructor freezes the graph
(:meth:`~repro.graphs.digraph.OwnedDigraph.freeze`), so every later
mutation raises :class:`~repro.errors.GraphError` and an engine, once
built, describes its substrate for the cache's whole life. Code that
evolves a realization works on a ``copy()`` and builds its own engines
or environments for the graph it holds.

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
    """:class:`DistanceEngine` pool for one frozen graph.

    Parameters
    ----------
    graph:
        The realization to serve. The constructor freezes it.
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
        graph.freeze()
        self._graph = graph
        self._max_players = self._resolve_max_players(graph.n, max_player_engines)
        self._engine_kwargs = {} if rows is None else {"rows": rows}
        self._lazy_rows = rows == "lazy"
        self._base: DistanceEngine | None = None
        self._players: "OrderedDict[int, DistanceEngine]" = OrderedDict()
        self._envs: dict[tuple[int, Version], BestResponseEnvironment] = {}
        self._lock = threading.RLock()
        self.evictions = 0
        self.env_hits = 0

    @staticmethod
    def _resolve_max_players(n: int, requested: "int | None") -> int:
        """Engine-count cap for instance size ``n`` (at least one).

        With no explicit request, sized so the matrices fit the ~256 MB
        budget: engines store int32 whenever the sentinel arithmetic
        fits (every realistic ``n``), int64 otherwise.
        """
        if requested is not None:
            return max(1, int(requested))
        itemsize = 4 if 2 * cinf(n) < 2**31 else 8
        per_engine = max(1, n * n * itemsize)
        return max(1, min(n, _DEFAULT_CACHE_BYTES // per_engine))

    @property
    def graph(self) -> OwnedDigraph:
        """The (frozen) realization the engines describe."""
        return self._graph

    @property
    def lazy_rows(self) -> bool:
        """Whether cache-built engines start in row-on-demand mode."""
        return self._lazy_rows

    # ------------------------------------------------------------------
    def base(self) -> DistanceEngine:
        """Engine over ``U(G)``, built on first access."""
        if self._base is None:
            self._base = DistanceEngine(
                self._graph.undirected_csr(), **self._engine_kwargs
            )
        return self._base

    def query(self, u: int, v: int) -> int:
        """Single ``dist(u, v)`` in ``U(G)`` (``Cinf`` across components).

        Tier-1 read: a built (or lazy, hence free to build) base engine
        answers from whatever it has materialised; a cold full-mode
        cache answers with one bounded bidirectional search on the
        substrate — never a full all-pairs build.
        """
        if self._lazy_rows or self._base is not None:
            return self.base().query(u, v)
        from ..graphs.query import point_to_point

        csr = self._graph.undirected_csr()
        return point_to_point(csr, u, v, inf=cinf(csr.n))

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serialising engine access across threads.

        The cache's engines are single-threaded state machines; an
        asyncio server hands them between the event loop and its
        per-instance compute thread. :meth:`batch_query` takes this
        lock itself; callers composing multi-call sequences (engine +
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
            if self._lazy_rows or self._base is not None:
                engine = self.base()
                engine.ensure_rows(np.unique(p[:, 0]))
                return np.asarray(
                    [engine.query(int(u), int(v)) for u, v in p], dtype=np.int64
                )
            from ..graphs.query import batched_pair_distances

            csr = self._graph.undirected_csr()
            return batched_pair_distances(csr, p, inf=cinf(csr.n))

    def player(self, u: int) -> DistanceEngine:
        """Engine over ``U(G - u)``, built on first access (LRU-cached)."""
        if not 0 <= u < self._graph.n:
            raise VertexError(u, self._graph.n)
        engine = self._players.get(u)
        if engine is None:
            engine = DistanceEngine(
                self._graph.undirected_csr_without(u), **self._engine_kwargs
            )
            self._players[u] = engine
            if len(self._players) > self._max_players:
                evicted, _ = self._players.popitem(last=False)
                for version in Version:
                    self._envs.pop((evicted, version), None)
                self.evictions += 1
        self._players.move_to_end(u)
        return engine

    def environment(self, u: int, version: Version | str) -> BestResponseEnvironment:
        """Engine-backed evaluation substrate for player ``u``.

        Environments are cached per ``(player, version)`` next to the
        player engine: the graph is frozen, so a built environment's
        in-neighbour set and component labels stay exact.
        """
        version = Version.coerce(version)
        key = (int(u), version)
        env = self._envs.get(key)
        if env is not None:
            self.env_hits += 1
            return env
        env = BestResponseEnvironment(self._graph, u, version, engine=self.player(u))
        self._envs[key] = env
        return env

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Engine counters summed over the pool, plus the cache's own."""
        engines = list(self._players.values())
        if self._base is not None:
            engines.append(self._base)
        total = {key: sum(e.stats[key] for e in engines) for key in STAT_KEYS}
        total["player_engines"] = len(self._players)
        total["evictions"] = self.evictions
        total["env_hits"] = self.env_hits
        return total
