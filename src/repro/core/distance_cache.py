"""Shared distance engines kept coherent with one evolving realization.

Best-response dynamics needs two families of distance matrices: the
underlying graph ``U(G)`` (social cost, Lemma 2.2 skips) and, per
deviating player ``u``, the punctured substrate ``U(G - u)`` that every
candidate strategy of ``u`` is evaluated against. Both change by a few
edges per dynamics step, so :class:`DistanceCache` keeps one
:class:`~repro.graphs.engine.DistanceEngine` per substrate and repairs
it lazily on access instead of recomputing all-pairs BFS from scratch.

Coherence is revision-driven, not notification-driven: every access
compares the graph's mutation counter with the revision the engine last
synced to, and on mismatch hands the engine the current CSR to diff.
Out-of-band mutations (callers poking the graph directly) are therefore
picked up automatically — there is no way to read distances of a stale
substrate, and a changed-then-rolled-back graph syncs as a no-op.

Two structural facts make the per-player family cheap:

* ``U(G - u)`` does not depend on ``u``'s own strategy, so a player's
  engine survives that player's own moves untouched;
* every other player's move rewires only edges incident to that mover,
  which is exactly the single-pivot delta the engine repairs fastest.

Memory: each cached player engine holds an ``(n, n)`` matrix (int32
for every realistic ``n``). ``max_player_engines`` (default: a ~256 MB
budget) bounds the total; least-recently-used engines are evicted and
rebuilt on re-entry, which degrades gracefully to the from-scratch
cost, never worse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import GraphError, VertexError
from ..graphs.digraph import OwnedDigraph
from ..graphs.distances import cinf
from ..graphs.engine import DistanceEngine
from ..graphs.weighted_engine import (
    EdgeWeightMap,
    WeightedCSR,
    WeightedDistanceEngine,
    weighted_csr_from_csr,
    weighted_csr_without_vertex,
)
from .best_response import BestResponseEnvironment
from .costs import Version

__all__ = ["DistanceCache", "WeightedDistanceCache"]

#: Default memory budget for per-player engines (bytes of distance rows).
_DEFAULT_CACHE_BYTES: int = 256 * 1024 * 1024


class _StepHistory:
    """Bounded replay log of small sync steps (shared cache machinery).

    Both caches forward tiny deltas into lagging player engines by
    replaying recorded ops instead of rebuilding punctured substrates;
    the token/history/chain bookkeeping is substrate-agnostic and lives
    here once. ``token`` identifies the current sync generation; each
    :meth:`advance` either records the ops of the step just crossed or
    — for an unforwardable step — breaks every chain that would have to
    cross it.
    """

    __slots__ = ("token", "_history", "_max_steps")

    def __init__(self, max_steps: int) -> None:
        self.token = 0
        self._history: "OrderedDict[int, tuple[int, tuple]]" = OrderedDict()
        self._max_steps = max_steps

    def advance(self, ops: "tuple | None") -> None:
        """Bump the token, recording ``ops`` (``None`` breaks chains)."""
        if ops is None:
            self._history.clear()
        else:
            self._history[self.token] = (self.token + 1, ops)
            while len(self._history) > self._max_steps:
                self._history.popitem(last=False)
        self.token += 1

    def chain(self, from_token: "int | None") -> "list[tuple] | None":
        """Replayable op lists covering ``from_token -> token``.

        ``None`` when any intermediate step is unknown (history
        evicted, or a step too large to forward) — the caller then
        falls back to the full substrate rebuild + diff.
        """
        if from_token is None:
            return None
        out: "list[tuple]" = []
        t = from_token
        while t != self.token:
            nxt = self._history.get(t)
            if nxt is None:
                return None
            out.append(nxt[1])
            t = nxt[0]
        return out

    def clear(self) -> None:
        """Forget every recorded step (token keeps counting)."""
        self._history.clear()


class DistanceCache:
    """Lazily repaired :class:`DistanceEngine` pool for one graph.

    Parameters
    ----------
    graph:
        The realization to track. The cache never mutates it.
    max_player_engines:
        Cap on simultaneously cached per-player engines (LRU eviction).
        Defaults to whatever fits a ~256 MB matrix budget, at least one.
    dirty_fraction:
        Forwarded to every engine; a float fixes the delta-vs-rebuild
        cutoff, ``"adaptive"`` lets each engine tune it from its own
        cost EMAs — see :mod:`repro.graphs.engine` for the policy.
    rows:
        Forwarded to every engine the cache builds: ``"lazy"`` starts
        each matrix unmaterialised with row-on-demand reads (the cold
        single-verdict regime — :meth:`query` / :meth:`query_punctured`
        then cost one bounded bidirectional search instead of a full
        build), ``None`` keeps the engines' default full
        materialisation. An adopted ``base_engine`` is used as
        constructed either way.
    base_engine:
        Optional pre-warmed ``U(G)`` engine adopted instead of building
        one on first access — e.g. a copy-on-write engine attached from
        a :class:`~repro.core.pool_store.PoolStore` file by the query
        server. The caller asserts it describes ``graph``'s *current*
        CSR; the golden suites pin that contract.

    Step forwarding
    ---------------
    When one revision bump changed at most two undirected edges — a
    fold's single removal, or a census Gray step's remove-one-add-one
    arc swap — the ops are recorded in a bounded step *history* and
    replayed into lagging player engines through the diff-free
    :meth:`~repro.graphs.engine.DistanceEngine.remove_edge` /
    :meth:`~repro.graphs.engine.DistanceEngine.add_edge` entry points,
    skipping the per-player punctured-substrate rebuild plus edge-set
    diff entirely (ops incident to ``u`` are dropped — the puncture
    removes those edges from ``U(G - u)`` on both sides of the step).
    The history keeps the last few steps so engines that skipped a
    revision (screened players) still catch up by replay; any engine
    lagging across an unknown or oversized step falls back to the full
    substrate diff of :meth:`player`.
    """

    def __init__(
        self,
        graph: OwnedDigraph,
        *,
        max_player_engines: int | None = None,
        dirty_fraction: "float | str | None" = None,
        rows: "str | None" = None,
        base_engine: "DistanceEngine | None" = None,
    ) -> None:
        self._graph = graph
        self._max_players_requested = max_player_engines
        self._max_players = self._resolve_max_players(graph.n)
        self._engine_kwargs = (
            {} if dirty_fraction is None else {"dirty_fraction": dirty_fraction}
        )
        self._lazy_rows = rows == "lazy"
        if rows is not None:
            self._engine_kwargs["rows"] = rows  # engines validate the value
        self._base: DistanceEngine | None = None
        self._players: "OrderedDict[int, DistanceEngine]" = OrderedDict()
        self._player_tokens: dict[int, int] = {}
        self._envs: dict[tuple[int, Version], tuple[BestResponseEnvironment, int]] = {}
        self._csr = None
        self._seen_revision: "int | None" = None
        self._steps = _StepHistory(self._MAX_STEP_HISTORY)
        self._base_token = -1
        self._lock = threading.RLock()
        self.evictions = 0
        self.env_hits = 0
        self.step_forwards = 0
        if base_engine is not None:
            if base_engine.n != graph.n:
                raise GraphError(
                    f"base engine is over {base_engine.n} vertices, "
                    f"graph has {graph.n}"
                )
            # The adopted engine describes the graph's *current*
            # substrate: seed the sync state so its first access
            # replays nothing.
            self._csr = graph.undirected_csr()
            self._seen_revision = graph.revision
            self._steps.advance(None)
            self._base = base_engine
            self._base_token = self._steps.token

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
        """Point the cache at another graph of the same size.

        Engines (and their preallocated matrices) are kept, and so is
        the previous substrate: the next access diffs content against
        the new graph's — one arc apart (a fold onto a working copy)
        even forwards as a single-op step, unrelated graphs degrade to
        buffer-reusing rebuilds. Sweep workers use this to recycle
        buffers across tasks.
        """
        if graph.n != self._graph.n:
            self._base = None
            self._players.clear()
            self._player_tokens.clear()
            self._steps.clear()
            self._csr = None
            self._base_token = -1
            self._max_players = self._resolve_max_players(graph.n)
        self._graph = graph
        self._seen_revision = None
        self._envs.clear()

    def trim(self) -> None:
        """Drop the per-player engines (and environments), keep the base.

        The per-player family dominates a cache's footprint (up to
        ``max_player_engines`` full matrices); a cache parked for later
        recycling — e.g. retired from the sweep pool — only needs its
        base buffer to stay cheap to revive.
        """
        self._players.clear()
        self._player_tokens.clear()
        self._envs.clear()

    #: Steps kept replayable; engines lagging further fall back to the
    #: full substrate rebuild + diff of :meth:`player`.
    _MAX_STEP_HISTORY: int = 8

    #: The op detector is for the tiny-substrate census/dynamics regime;
    #: above this many edges the per-sync set diff is not worth it.
    _MAX_STEP_EDGES: int = 512

    def _detect_step_ops(self, old, new) -> "tuple[tuple, ...] | None":
        """Ops of one sync step when it is small enough to forward.

        Returns ``(("rm"|"add", x, y), ...)`` (removals first) when the
        step changed at most two undirected edges — exactly a fold's
        single removal or a Gray step's arc swap — else ``None``.
        """
        from ..graphs.engine import _edge_ids

        # indices holds two directed entries per undirected edge.
        if old is None or max(old.indices.size, new.indices.size) > (
            2 * self._MAX_STEP_EDGES
        ):
            return None
        if abs(int(old.indices.size) - int(new.indices.size)) > 4:
            return None  # more than two edges apart: never forwardable
        old_set = set(_edge_ids(old).tolist())
        new_set = set(_edge_ids(new).tolist())
        removed = sorted(old_set - new_set)
        added = sorted(new_set - old_set)
        if not 1 <= len(removed) + len(added) <= 2:
            return None
        n = old.n
        return tuple(("rm", eid // n, eid % n) for eid in removed) + tuple(
            ("add", eid // n, eid % n) for eid in added
        )

    def _sync(self):
        """Refresh the ``U(G)`` substrate, the token and the step history."""
        rev = self._graph.revision
        if self._csr is None or self._seen_revision != rev:
            new_csr = self._graph.undirected_csr()
            self._steps.advance(self._detect_step_ops(self._csr, new_csr))
            self._csr = new_csr
            self._seen_revision = rev
        return self._csr

    # ------------------------------------------------------------------
    def base(self) -> DistanceEngine:
        """Engine over ``U(G)``, synced to the graph's current revision."""
        csr = self._sync()
        if self._base is None:
            self._base = DistanceEngine(csr, **self._engine_kwargs)
        elif self._base_token != self._steps.token:
            self._base.update(csr)
        self._base_token = self._steps.token
        return self._base

    def base_if_fresh(self) -> DistanceEngine | None:
        """The ``U(G)`` engine only if it is already synced, else ``None``.

        Point reads (one lemma check, one eccentricity) are cheaper as a
        single BFS than as a full matrix repair, so callers that only
        need a row use the maintained matrix when it happens to be
        current — e.g. for every player of a converged round, right
        after the round-boundary :meth:`base` sync — and fall back to
        the direct computation otherwise, instead of forcing a sync.
        """
        if (
            self._base is not None
            and self._seen_revision == self._graph.revision
            and self._base_token == self._steps.token
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
            self._base is not None and self._base_token == self._steps.token
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
                self._base is not None and self._base_token == self._steps.token
            ):
                engine = self.base()
                engine.ensure_rows(np.unique(p[:, 0]))
                return np.asarray(
                    [engine.query(int(u), int(v)) for u, v in p], dtype=np.int64
                )
            from ..graphs.query import batched_pair_distances

            return batched_pair_distances(csr, p, inf=cinf(csr.n))

    def query_punctured(self, player: int, u: int, v: int) -> int:
        """Single ``dist(u, v)`` in the punctured ``U(G - player)``.

        The single-pair form of the per-player family — what one swap
        check or Lemma 2.2 deviation screen needs. Same tiering as
        :meth:`query`: a cached-and-synced (or lazy) player engine
        answers directly, a cold full-mode cache runs one bounded
        bidirectional search on the punctured substrate without
        building the engine.
        """
        if not 0 <= player < self._graph.n:
            raise VertexError(player, self._graph.n)
        self._sync()
        engine = self._players.get(player)
        synced = (
            engine is not None
            and self._player_tokens.get(player) == self._steps.token
        )
        if self._lazy_rows or synced:
            return self.player(player).query(u, v)
        from ..graphs.query import point_to_point

        csr = self._graph.undirected_csr_without(player)
        return point_to_point(csr, u, v, inf=cinf(csr.n))

    def player(self, u: int) -> DistanceEngine:
        """Engine over ``U(G - u)``, synced to the current revision.

        Lagging engines catch up by replaying the recorded step ops
        (see the class docstring) when every intervening step is known
        and small; otherwise by diffing the freshly built punctured
        substrate.
        """
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
                self._player_tokens.pop(evicted, None)
                for version in Version:
                    self._envs.pop((evicted, version), None)
                self.evictions += 1
        elif self._player_tokens.get(u) != self._steps.token:
            chain = self._steps.chain(self._player_tokens.get(u))
            if chain is not None:
                # Every step between the engine's token and now is a
                # known small delta: replay them through the diff-free
                # entry points. Ops incident to ``u`` are skipped — the
                # puncture removes those edges from ``U(G - u)`` on both
                # sides of the step, so they change nothing.
                for ops in chain:
                    for kind, x, y in ops:
                        if x == u or y == u:
                            continue
                        if kind == "rm":
                            engine.remove_edge(x, y)
                        else:
                            engine.add_edge(x, y)
                self.step_forwards += 1
            else:
                engine.update(self._graph.undirected_csr_without(u))
        self._players.move_to_end(u)
        self._player_tokens[u] = self._steps.token
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
    def reset_stats(self) -> None:
        """Zero every engine's counters (and the cache's own).

        Counters are cumulative over the cache's lifetime — including
        across :meth:`rebind` — so callers that want per-run numbers
        from a shared cache should reset before the run.
        """
        for engine in self._players.values():
            for key in engine.stats:
                engine.stats[key] = 0
        if self._base is not None:
            for key in self._base.stats:
                self._base.stats[key] = 0
        self.evictions = 0
        self.env_hits = 0
        self.step_forwards = 0

    def stats(self) -> dict[str, int]:
        """Aggregated engine counters (rebuilds/deltas/noops/rows/evictions).

        Cumulative since construction or the last :meth:`reset_stats` —
        a cache shared across several dynamics runs reports the total,
        not the last run's share.
        """
        total = {
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
        engines = list(self._players.values())
        if self._base is not None:
            engines.append(self._base)
        for engine in engines:
            for key in total:
                total[key] += engine.stats[key]
        total["player_engines"] = len(self._players)
        total["evictions"] = self.evictions
        total["env_hits"] = self.env_hits
        total["step_forwards"] = self.step_forwards
        return total


class WeightedDistanceCache:
    """Lazily repaired :class:`WeightedDistanceEngine` pool for one graph.

    The weighted sibling of :class:`DistanceCache`: one engine per
    substrate (``U(G)`` and per-player ``U(G - u)``), each holding the
    full weighted distance matrix, repaired lazily on access. Coherence
    is keyed by *two* revision counters — the graph's mutation counter
    and the :class:`~repro.graphs.weighted_engine.EdgeWeightMap`
    revision — so both topology edits and out-of-band edge-weight edits
    are picked up on the next read; neither can serve stale distances.

    With ``edge_weights=None`` every edge has length 1 and the weighted
    engines produce matrices bit-identical to the BFS engines (same
    ``Cinf = n^2`` sentinel, same dtype), which is the regime the
    Section 6 machinery in :mod:`repro.analysis.weighted` runs in.

    Parameters
    ----------
    graph:
        The realization to track. The cache never mutates it.
    edge_weights:
        Optional mutable edge-length assignment; its revision counter
        joins the coherence key.
    max_player_engines:
        Cap on simultaneously cached per-player engines (LRU eviction),
        sized like :class:`DistanceCache`'s by default.
    max_weight:
        Headroom hint forwarded to every engine so later weight edits
        never overflow the ``inf`` sentinel.
    dirty_fraction:
        Delta-vs-rebuild cutoff forwarded to every engine.
    rows:
        Forwarded to every engine the cache builds: ``"lazy"`` for
        row-on-demand matrices (the cold single-verdict regime),
        ``None`` for the engines' default full materialisation.
    """

    def __init__(
        self,
        graph: OwnedDigraph,
        *,
        edge_weights: "EdgeWeightMap | None" = None,
        max_player_engines: "int | None" = None,
        max_weight: "int | None" = None,
        dirty_fraction: "float | None" = None,
        rows: "str | None" = None,
    ) -> None:
        self._graph = graph
        self._edge_weights = edge_weights
        self._max_players_requested = max_player_engines
        self._engine_kwargs: dict = {}
        if dirty_fraction is not None:
            self._engine_kwargs["dirty_fraction"] = dirty_fraction
        self._lazy_rows = rows == "lazy"
        if rows is not None:
            self._engine_kwargs["rows"] = rows  # engines validate the value
        if max_weight is not None:
            self._max_weight = int(max_weight)
        elif edge_weights is not None:
            self._max_weight = edge_weights.max_weight()
        else:
            self._max_weight = 1
        self._engine_kwargs["max_weight"] = self._max_weight
        self._max_players = self._resolve_max_players(graph.n)
        self._base: "WeightedDistanceEngine | None" = None
        self._base_token = -1
        self._players: "OrderedDict[int, WeightedDistanceEngine]" = OrderedDict()
        self._player_tokens: "dict[int, int]" = {}
        self._wcsr: "WeightedCSR | None" = None
        self._seen_key: "tuple[int, int] | None" = None
        # The _step forwarder: when one sync step changed at most two
        # edges (a fold's single removal; a census Gray step's
        # remove-one-add-one arc swap) with weights untouched, the ops
        # are recorded in the shared :class:`_StepHistory` and replayed
        # into lagging player engines via the diff-free
        # ``remove_edge``/``add_edge`` entry points, skipping the
        # per-player substrate rebuild + edge-set diff entirely. The
        # history keeps the last few steps so engines that skipped a
        # profile (screened players) still catch up by replay.
        self._steps = _StepHistory(self._MAX_STEP_HISTORY)
        self._lock = threading.RLock()
        self.evictions = 0
        self.step_forwards = 0

    def _resolve_max_players(self, n: int) -> int:
        if self._max_players_requested is not None:
            return max(1, int(self._max_players_requested))
        # Engines pick int64 matrices when the weighted sentinel
        # (inf = max(Cinf, (n-1) * w_max + 1)) outgrows int32 headroom,
        # so the memory budget must use the same dtype rule.
        inf = max(cinf(n), (n - 1) * self._max_weight + 1)
        itemsize = 4 if 2 * inf < 2**31 else 8
        per_engine = max(1, n * n * itemsize)
        return max(1, min(n, _DEFAULT_CACHE_BYTES // per_engine))

    @property
    def graph(self) -> OwnedDigraph:
        """The tracked realization."""
        return self._graph

    @property
    def edge_weights(self) -> "EdgeWeightMap | None":
        """The tracked edge-length assignment (``None`` means unit)."""
        return self._edge_weights

    @property
    def lazy_rows(self) -> bool:
        """Whether cache-built engines start in row-on-demand mode."""
        return self._lazy_rows

    @property
    def max_weight(self) -> int:
        """Edge-length headroom every pooled engine's sentinel covers.

        Starts at the construction-time hint (or the edge map's current
        maximum) and grows automatically when a later weight edit
        exceeds it — the pool is then rebuilt with a larger sentinel
        instead of erroring on the next access.
        """
        return self._max_weight

    def _key(self) -> "tuple[int, int]":
        rev = self._graph.revision
        wrev = 0 if self._edge_weights is None else self._edge_weights.revision
        return (rev, wrev)

    #: Steps kept replayable; engines lagging further fall back to the
    #: full substrate rebuild + diff of :meth:`player`.
    _MAX_STEP_HISTORY: int = 8

    #: The op detector is for the tiny-substrate census/fold regime;
    #: above this many edge ids the per-sync dict diff is not worth it.
    _MAX_STEP_EDGES: int = 512

    def _detect_step_ops(
        self, old: "WeightedCSR | None", new: WeightedCSR
    ) -> "tuple[tuple[str, int, int, int], ...] | None":
        """Ops of one sync step when it is small enough to forward.

        Returns ``(("rm"|"add", x, y, w), ...)`` (removals first) when
        the step changed at most two edges and touched no surviving
        edge's weight — exactly a fold's single removal or a Gray
        step's arc swap — else ``None``. Forwardable ops are what the
        ``_step`` forwarder replays into lagging player engines.
        """
        from ..graphs.weighted_engine import _edge_ids_weights

        # indices holds two directed entries per undirected edge.
        if old is None or max(old.indices.size, new.indices.size) > (
            2 * self._MAX_STEP_EDGES
        ):
            return None
        if abs(old.indices.size - new.indices.size) > 4:
            return None  # more than two edges apart: never forwardable
        old_ids, old_w = _edge_ids_weights(old)
        new_ids, new_w = _edge_ids_weights(new)
        old_map = dict(zip(old_ids.tolist(), old_w.tolist()))
        new_map = dict(zip(new_ids.tolist(), new_w.tolist()))
        removed = sorted(old_map.keys() - new_map.keys())
        added = sorted(new_map.keys() - old_map.keys())
        if not 1 <= len(removed) + len(added) <= 2:
            return None
        if any(old_map[k] != new_map[k] for k in old_map.keys() & new_map.keys()):
            return None  # a surviving edge changed weight: not a pure swap
        n = old.n
        ops = tuple(
            ("rm", eid // n, eid % n, old_map[eid]) for eid in removed
        ) + tuple(("add", eid // n, eid % n, new_map[eid]) for eid in added)
        return ops

    def _sync(self) -> WeightedCSR:
        """Refresh the ``U(G)`` substrate and the coherence token."""
        key = self._key()
        if self._wcsr is None or self._seen_key != key:
            new_wcsr = weighted_csr_from_csr(
                self._graph.undirected_csr(), self._edge_weights
            )
            if new_wcsr.max_weight() > self._max_weight:
                # A weight edit outgrew the engines' sentinel headroom:
                # drop the pool (rare resize event) so every engine is
                # rebuilt with a sentinel covering the new maximum,
                # instead of erroring on its next update.
                self._max_weight = new_wcsr.max_weight()
                self._engine_kwargs["max_weight"] = self._max_weight
                self._max_players = self._resolve_max_players(self._graph.n)
                self._base = None
                self._base_token = -1
                self._players.clear()
                self._player_tokens.clear()
                self._steps.clear()
            self._steps.advance(self._detect_step_ops(self._wcsr, new_wcsr))
            self._wcsr = new_wcsr
            self._seen_key = key
        return self._wcsr

    def rebind(self, graph: OwnedDigraph) -> None:
        """Point the cache at another graph of the same size.

        Engines (and their matrices) are kept, and so is the previous
        substrate: the next access diffs content against the new
        graph's — one arc apart (a fold onto a working copy) repairs as
        a single-edge delta, unrelated graphs degrade to buffer-reusing
        rebuilds.
        """
        if graph.n != self._graph.n:
            self._base = None
            self._players.clear()
            self._player_tokens.clear()
            self._steps.clear()
            self._wcsr = None
            self._max_players = self._resolve_max_players(graph.n)
        self._graph = graph
        self._seen_key = None

    # ------------------------------------------------------------------
    def base(self) -> WeightedDistanceEngine:
        """Engine over weighted ``U(G)``, synced to both revisions."""
        wcsr = self._sync()
        if self._base is None:
            self._base = WeightedDistanceEngine(wcsr, **self._engine_kwargs)
        elif self._base_token != self._steps.token:
            self._base.update(wcsr)
        self._base_token = self._steps.token
        return self._base

    def _query_inf(self) -> int:
        """The pooled engines' shared ``inf`` sentinel.

        Every engine gets the same ``max_weight`` headroom hint, so
        base and punctured engines agree on
        ``max(Cinf, (n - 1) * max_weight + 1)`` — a bypassing
        bidirectional search must use the same sentinel to stay
        bit-identical.
        """
        n = self._graph.n
        return max(cinf(n), (n - 1) * self._max_weight + 1)

    def query(self, u: int, v: int) -> int:
        """Single weighted ``dist(u, v)`` in ``U(G)``.

        The weighted sibling of :meth:`DistanceCache.query`: a synced
        (or lazy) base engine answers directly, a cold full-mode cache
        runs one bounded bidirectional Dial search on the substrate.
        """
        wcsr = self._sync()
        if self._lazy_rows or (
            self._base is not None and self._base_token == self._steps.token
        ):
            return self.base().query(u, v)
        from ..graphs.query import point_to_point

        return point_to_point(wcsr, u, v, inf=self._query_inf())

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serialising engine access across threads.

        Same contract as :attr:`DistanceCache.lock` — the serve layer
        holds it around every compute-thread touch of this cache.
        """
        return self._lock

    def batch_query(self, pairs: "np.ndarray | list[tuple[int, int]]") -> np.ndarray:
        """Weighted distances for many ``(u, v)`` pairs — one sweep.

        The weighted sibling of :meth:`DistanceCache.batch_query`:
        thread-safe, one batched sweep (Dial-bucket for true weights)
        for ``k >= 2`` pairs, the bidirectional point kernel for a
        singleton, every entry bit-identical to :meth:`query`.
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
            wcsr = self._sync()
            if self._lazy_rows or (
                self._base is not None and self._base_token == self._steps.token
            ):
                engine = self.base()
                engine.ensure_rows(np.unique(p[:, 0]))
                return np.asarray(
                    [engine.query(int(u), int(v)) for u, v in p], dtype=np.int64
                )
            from ..graphs.query import batched_pair_distances

            return batched_pair_distances(wcsr, p, inf=self._query_inf())

    def query_punctured(self, player: int, u: int, v: int) -> int:
        """Single weighted ``dist(u, v)`` in the punctured ``U(G - player)``.

        Same tiering as :meth:`query`, against the per-player family.
        """
        if not 0 <= player < self._graph.n:
            raise VertexError(player, self._graph.n)
        wcsr = self._sync()
        engine = self._players.get(player)
        synced = (
            engine is not None
            and self._player_tokens.get(player) == self._steps.token
        )
        if self._lazy_rows or synced:
            return self.player(player).query(u, v)
        from ..graphs.query import point_to_point

        punctured = weighted_csr_without_vertex(wcsr, player)
        return point_to_point(punctured, u, v, inf=self._query_inf())

    def player(self, u: int) -> WeightedDistanceEngine:
        """Engine over weighted ``U(G - u)``, synced to both revisions."""
        if not 0 <= u < self._graph.n:
            raise VertexError(u, self._graph.n)
        wcsr = self._sync()
        engine = self._players.get(u)
        if engine is None:
            engine = WeightedDistanceEngine(
                weighted_csr_without_vertex(wcsr, u), **self._engine_kwargs
            )
            self._players[u] = engine
            if len(self._players) > self._max_players:
                evicted, _ = self._players.popitem(last=False)
                self._player_tokens.pop(evicted, None)
                self.evictions += 1
        elif self._player_tokens.get(u) != self._steps.token:
            chain = self._steps.chain(self._player_tokens.get(u))
            if chain is not None:
                # Every step between the engine's token and now is a
                # known small delta: replay them through the diff-free
                # entry points. Ops incident to ``u`` are skipped — the
                # puncture removes those edges from ``U(G - u)`` on both
                # sides of the step, so they change nothing.
                for ops in chain:
                    for kind, x, y, w in ops:
                        if x == u or y == u:
                            continue
                        if kind == "rm":
                            engine.remove_edge(x, y)
                        else:
                            engine.add_edge(x, y, w)
                self.step_forwards += 1
            else:
                engine.update(weighted_csr_without_vertex(wcsr, u))
        self._players.move_to_end(u)
        self._player_tokens[u] = self._steps.token
        return engine

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every engine's counters (and the cache's own)."""
        for engine in self._players.values():
            for key in engine.stats:
                engine.stats[key] = 0
        if self._base is not None:
            for key in self._base.stats:
                self._base.stats[key] = 0
        self.evictions = 0
        self.step_forwards = 0

    def stats(self) -> dict[str, int]:
        """Aggregated engine counters, cumulative since construction."""
        total = {
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
        engines = list(self._players.values())
        if self._base is not None:
            engines.append(self._base)
        for engine in engines:
            for key in total:
                total[key] += engine.stats[key]
        total["player_engines"] = len(self._players)
        total["evictions"] = self.evictions
        total["step_forwards"] = self.step_forwards
        return total
