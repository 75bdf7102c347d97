"""Best-response computation (exact, greedy, and single-arc swap).

Key observation (and the engine's whole design): a shortest path from
player ``u`` never revisits ``u``, so for any strategy ``S`` of ``u``,

    ``dist(u, v) = 1 + min_{w in S ∪ In(u)} dist_{G-u}(w, v)``

where ``In(u)`` is the (fixed) set of players owning an arc *to* ``u``
and ``G - u`` is the graph with ``u`` deleted. ``dist_{G-u}`` does not
depend on ``u``'s strategy, so one all-pairs BFS of ``G - u`` per player
turns every candidate-strategy evaluation into a vectorised row-min over
a distance matrix — no graph mutation, no repeated BFS. This is the
"replace the inner loop with a numpy reduction" idiom of the HPC guides.

Finding the true optimum is NP-hard (Theorem 2.1: it embeds k-center /
k-median), so the exact routine enumerates ``C(n-1, b)`` candidate
subsets in vectorised chunks, and polynomial heuristics (greedy marginal
insertion, single-arc swap) are provided for dynamics at scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import GameError, StaleDistanceError, VertexError
from ..graphs.connectivity import connected_components
from ..graphs.digraph import OwnedDigraph
from ..graphs.distances import cinf
from ..graphs.engine import DistanceEngine, LazyRowGather
from .costs import Version

__all__ = [
    "BestResponseEnvironment",
    "BestResponseResult",
    "exact_best_response",
    "greedy_best_response",
    "swap_best_response",
    "DEFAULT_MAX_CANDIDATES",
]

#: Refuse exact enumeration beyond this many candidate subsets unless the
#: caller explicitly raises the limit. ~2M subsets keeps single-player
#: certification under a second for typical n.
DEFAULT_MAX_CANDIDATES: int = 2_000_000

#: Chunk size (in candidate subsets) for vectorised batch evaluation;
#: bounds peak memory of the ``(chunk, b, n)`` gather.
_CHUNK_TARGET_ELEMENTS: int = 1 << 22


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of a best-response search for one player.

    Attributes
    ----------
    player:
        The deviating player.
    cost:
        Cost of the best strategy found.
    strategy:
        The best strategy found (sorted tuple of targets).
    current_cost:
        Cost of the player's current strategy (same evaluation path, so
        directly comparable).
    evaluated:
        Number of candidate strategies evaluated.
    exact:
        Whether the search provably covered the whole strategy space.
    """

    player: int
    cost: int
    strategy: tuple[int, ...]
    current_cost: int
    evaluated: int
    exact: bool

    @property
    def improvement(self) -> int:
        """Positive iff the player can strictly lower its cost."""
        return self.current_cost - self.cost

    @property
    def is_improving(self) -> bool:
        """Whether a strictly better strategy than the current one exists."""
        return self.cost < self.current_cost


class BestResponseEnvironment:
    """Precomputed substrate for evaluating strategies of one player.

    Builds the all-pairs distance matrix of ``G - u`` and the component
    labelling of ``G - u`` once; thereafter any candidate strategy (or a
    whole batch) is evaluated with numpy reductions only.

    Parameters
    ----------
    graph:
        The current realization.
    u:
        The deviating player; its *current* strategy is irrelevant to the
        environment (only other players' arcs matter).
    version:
        SUM or MAX.
    engine:
        Optional shared :class:`~repro.graphs.engine.DistanceEngine`
        over ``U(G - u)`` (as handed out by
        :class:`~repro.core.distance_cache.DistanceCache`). When given,
        its matrix is used zero-copy and the engine's epoch is
        snapshotted: evaluations after the engine moves on raise
        :class:`~repro.errors.StaleDistanceError`. When omitted, a
        private engine is built from scratch.
    """

    def __init__(
        self,
        graph: OwnedDigraph,
        u: int,
        version: Version | str,
        *,
        engine: DistanceEngine | None = None,
    ) -> None:
        if not 0 <= u < graph.n:
            raise VertexError(u, graph.n)
        self.u = int(u)
        self.version = Version.coerce(version)
        self.n = graph.n
        self.cinf = cinf(self.n)
        if engine is None:
            engine = DistanceEngine(graph.undirected_csr_without(u))
        else:
            if engine.n != self.n:
                raise GameError(
                    f"engine substrate has {engine.n} vertices, graph has {self.n}"
                )
            if engine.csr.degree(u) != 0:
                raise GameError(
                    f"engine substrate must isolate player {u} (U(G - u))"
                )
        if engine.inf != self.cinf:
            raise GameError(
                f"engine sentinel {engine.inf} != Cinf = {self.cinf}; build the "
                f"engine with the default inf"
            )
        self._engine = engine
        self._epoch = engine.epoch
        self._graph = graph
        self._revision = graph.revision
        # D[w, v] = dist_{G-u}(w, v); unreachable pairs carry the engine's
        # sentinel, strictly larger than any finite distance (cinf works:
        # finite distances are <= n - 2 < n^2 for n >= 2). A lazy engine
        # is wrapped in a row-materialising facade so evaluations only
        # pay for the rows they touch (cur ∪ In(u) ∪ candidates) instead
        # of promoting the whole matrix up front.
        D = self.D = LazyRowGather(engine) if engine.lazy else engine.matrix
        self.in_nbrs = graph.in_neighbors(u)
        if self.in_nbrs.size:
            self._base_min = D[self.in_nbrs].min(axis=0)
        else:
            self._base_min = np.full(self.n, self.cinf, dtype=np.int64)
        self._others_mask = np.ones(self.n, dtype=bool)
        self._others_mask[u] = False
        # Component labels of G - u are only consumed by the MAX
        # version's kappa term; they are computed on first use so SUM
        # evaluations never pay for the extra BFS sweep.
        self._comp: "np.ndarray | None" = None
        self._ncomp_others = 0
        self._in_labels = np.empty(0, dtype=np.int64)

    def _ensure_components(self) -> None:
        if self._comp is None:
            comp, ncomp = connected_components(self._engine.csr)
            self._comp = comp
            # u is isolated in the substrate and forms a singleton
            # component, so the other n-1 vertices span ncomp - 1.
            self._ncomp_others = ncomp - 1 if self.n > 1 else 0
            if self.in_nbrs.size:
                self._in_labels = np.unique(comp[self.in_nbrs])

    @property
    def comp(self) -> np.ndarray:
        """Component labels of ``G - u`` (lazily computed)."""
        self._ensure_components()
        return self._comp

    @property
    def ncomp_others(self) -> int:
        """Components of ``G - u`` spanned by the other vertices."""
        self._ensure_components()
        return self._ncomp_others

    # ------------------------------------------------------------------
    @property
    def engine(self) -> DistanceEngine:
        """The distance engine whose matrix this environment evaluates on."""
        return self._engine

    @property
    def graph(self) -> OwnedDigraph:
        """The realization this environment evaluates against."""
        return self._graph

    def is_fresh(self) -> bool:
        """Whether this environment still describes the current graph.

        True while the backing engine serves the epoch captured at
        construction and, if the graph has mutated since, both the
        substrate ``U(G - u)`` and the player's in-neighbourhood are
        verifiably unchanged. The player's own moves keep all of these
        invariants (``U(G - u)`` and ``In(u)`` do not depend on ``u``'s
        strategy), so an environment survives its own player's
        deviations by design.
        """
        try:
            self._check_fresh()
        except StaleDistanceError:
            return False
        return True

    def _check_fresh(self) -> None:
        if self._engine.epoch != self._epoch:
            raise StaleDistanceError(
                f"environment for player {self.u} was built at engine epoch "
                f"{self._epoch}, but the engine is now at epoch "
                f"{self._engine.epoch}; rebuild the environment"
            )
        rev = self._graph.revision
        if rev != self._revision:
            # The graph mutated since this environment was built. The
            # evaluation is still exact iff the substrate U(G - u) and
            # the player's in-neighbourhood both survived — the engine
            # epoch alone cannot witness this, because a lazily-synced
            # engine only bumps it when someone hands it the new CSR.
            cur = self._graph.undirected_csr_without(self.u)
            eng_csr = self._engine.csr
            if not (
                cur.indices.size == eng_csr.indices.size
                and np.array_equal(cur.indptr, eng_csr.indptr)
                and np.array_equal(cur.indices, eng_csr.indices)
            ):
                raise StaleDistanceError(
                    f"substrate U(G - {self.u}) changed since this environment "
                    f"was built and its engine was not re-synced; rebuild the "
                    f"environment"
                )
            if not np.array_equal(self._graph.in_neighbors(self.u), self.in_nbrs):
                raise StaleDistanceError(
                    f"in-neighbourhood of player {self.u} changed since this "
                    f"environment was built; rebuild the environment"
                )
            self._revision = rev

    def candidate_pool(self) -> np.ndarray:
        """All legal link targets for the player (everyone but itself)."""
        return np.flatnonzero(self._others_mask).astype(np.int64)

    def _distances_for_min(self, mins: np.ndarray) -> np.ndarray:
        """Turn neighbour-min vectors into distance vectors from ``u``.

        ``mins`` has shape ``(..., n)``; unreachable stays at ``cinf``
        (never ``cinf + 1``), and the ``u`` column is zeroed.
        """
        dist = np.minimum(mins + 1, self.cinf)
        dist[..., self.u] = 0
        return dist

    def _kappa_batch(self, candidates: np.ndarray) -> np.ndarray:
        """Component count of the new graph for each candidate row.

        ``kappa = (#components of G-u among others) - (#distinct
        components touched by S ∪ In(u)) + 1``: ``u`` and everything it
        touches merge into a single component; untouched components
        survive unchanged.
        """
        k, b = candidates.shape
        if self.ncomp_others <= 1:
            # Fast path: G-u connected (or n == 1). Touching anything at
            # all yields a connected graph.
            touched = b > 0 or self._in_labels.size > 0
            kappa = 1 if touched else min(2, self.ncomp_others + 1)
            return np.full(k, kappa, dtype=np.int64)
        fixed = self._in_labels
        labels = self.comp[candidates] if b else np.empty((k, 0), dtype=np.int64)
        if fixed.size:
            labels = np.concatenate(
                [labels, np.broadcast_to(fixed, (k, fixed.size))], axis=1
            )
        if labels.shape[1] == 0:
            return np.full(k, self.ncomp_others + 1, dtype=np.int64)
        labels = np.sort(labels, axis=1)
        distinct = (np.diff(labels, axis=1) != 0).sum(axis=1) + 1
        return self.ncomp_others - distinct + 1

    # ------------------------------------------------------------------
    def evaluate_batch(self, candidates: np.ndarray) -> np.ndarray:
        """Costs of a batch of candidate strategies.

        Parameters
        ----------
        candidates:
            ``(k, b)`` integer array; each row is a strategy (distinct
            targets, none equal to ``u``). ``b`` may be 0.

        Returns
        -------
        ``(k,)`` ``int64`` array of costs.
        """
        self._check_fresh()
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.ndim != 2:
            raise GameError("candidates must be a 2-D (k, b) array")
        k, b = candidates.shape
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if self.n == 1:
            return np.zeros(k, dtype=np.int64)
        if b:
            mins = self.D[candidates].min(axis=1)
            np.minimum(mins, self._base_min, out=mins)
        else:
            mins = np.broadcast_to(self._base_min, (k, self.n)).copy()
        dist = self._distances_for_min(mins)
        if self.version is Version.SUM:
            return dist.sum(axis=1, dtype=np.int64)
        kappa = self._kappa_batch(candidates)
        return dist.max(axis=1) + (kappa - 1) * self.cinf

    def evaluate(self, strategy: "np.ndarray | tuple[int, ...] | list[int] | frozenset[int]") -> int:
        """Cost of a single candidate strategy."""
        s = np.asarray(sorted(strategy), dtype=np.int64)
        return int(self.evaluate_batch(s.reshape(1, -1))[0])

    def distances_for(self, strategy: "np.ndarray | tuple[int, ...] | list[int]") -> np.ndarray:
        """Distance vector from ``u`` under a hypothetical strategy."""
        self._check_fresh()
        s = np.asarray(sorted(strategy), dtype=np.int64)
        if s.size:
            mins = np.minimum(self.D[s].min(axis=0), self._base_min)
        else:
            mins = self._base_min.copy()
        return self._distances_for_min(mins)

    # ------------------------------------------------------------------
    def exact(
        self,
        budget: int,
        *,
        current: tuple[int, ...] | None = None,
        max_candidates: int | None = DEFAULT_MAX_CANDIDATES,
    ) -> tuple[int, tuple[int, ...], int]:
        """Exhaustive minimum over all ``C(n-1, budget)`` strategies.

        Returns ``(best_cost, best_strategy, num_evaluated)``. Ties break
        to the lexicographically smallest subset. Raises
        :class:`~repro.errors.GameError` if the space exceeds
        ``max_candidates`` (pass ``None`` to lift the cap).
        """
        pool = self.candidate_pool()
        total = math.comb(pool.size, budget)
        if max_candidates is not None and total > max_candidates:
            raise GameError(
                f"exact best response would enumerate {total} subsets (> "
                f"{max_candidates}); use greedy/swap or raise max_candidates"
            )
        if budget == 0:
            return int(self.evaluate_batch(np.empty((1, 0), dtype=np.int64))[0]), (), 1
        chunk_rows = max(1, _CHUNK_TARGET_ELEMENTS // (max(budget, 1) * self.n))
        best_cost: int | None = None
        best_strategy: tuple[int, ...] = ()
        evaluated = 0
        combos = itertools.combinations(pool.tolist(), budget)
        while True:
            block = list(itertools.islice(combos, chunk_rows))
            if not block:
                break
            arr = np.asarray(block, dtype=np.int64)
            costs = self.evaluate_batch(arr)
            i = int(costs.argmin())
            evaluated += arr.shape[0]
            if best_cost is None or costs[i] < best_cost:
                best_cost = int(costs[i])
                best_strategy = tuple(arr[i].tolist())
        assert best_cost is not None
        return best_cost, best_strategy, evaluated

    def greedy(self, budget: int) -> tuple[int, tuple[int, ...], int]:
        """Greedy marginal insertion: add the single best arc, ``budget``
        times.

        Polynomial (``O(budget * n^2)``) but not optimal in general —
        Theorem 2.1 forbids a polynomial exact algorithm unless P = NP.
        Returns ``(cost, strategy, num_evaluated)``.
        """
        self._check_fresh()
        pool = list(self.candidate_pool().tolist())
        chosen: list[int] = []
        evaluated = 0
        cur_min = self._base_min.copy()
        for _ in range(budget):
            remaining = np.asarray([w for w in pool if w not in chosen], dtype=np.int64)
            # Candidate w's neighbour-min vector is elementwise
            # min(cur_min, D[w]) — one broadcast per greedy step.
            mins = np.minimum(self.D[remaining], cur_min)
            dist = self._distances_for_min(mins)
            if self.version is Version.SUM:
                costs = dist.sum(axis=1, dtype=np.int64)
            else:
                base = np.asarray(chosen, dtype=np.int64)
                cand_rows = remaining.reshape(-1, 1)
                rows = (
                    np.concatenate(
                        [cand_rows, np.broadcast_to(base, (remaining.size, base.size))],
                        axis=1,
                    )
                    if base.size
                    else cand_rows
                )
                kappa = self._kappa_batch(rows)
                costs = dist.max(axis=1) + (kappa - 1) * self.cinf
            evaluated += remaining.size
            pick = int(costs.argmin())
            chosen.append(int(remaining[pick]))
            cur_min = np.minimum(cur_min, self.D[chosen[-1]])
        final = self.evaluate(tuple(chosen))
        return final, tuple(sorted(chosen)), evaluated

    def best_swap(
        self, current: "tuple[int, ...] | frozenset[int]"
    ) -> tuple[int, tuple[int, ...], int]:
        """Best single-arc swap from ``current`` (including "stay put").

        Considers every (drop one owned arc, add one new arc) move —
        the transition set of Alon et al.'s *swap equilibria*, which the
        paper's Section 6 uses as *weak equilibria*. Returns
        ``(cost, strategy, num_evaluated)``.
        """
        self._check_fresh()
        cur = tuple(sorted(int(v) for v in current))
        cur_cost = self.evaluate(cur)
        best_cost, best_strategy = cur_cost, cur
        evaluated = 1
        if not cur:
            return best_cost, best_strategy, evaluated
        cur_arr = np.asarray(cur, dtype=np.int64)
        in_set = set(cur) | {self.u}
        pool = np.asarray(
            [w for w in range(self.n) if w not in in_set], dtype=np.int64
        )
        if pool.size == 0:
            return best_cost, best_strategy, evaluated
        # Per-column first/second minima over the kept rows S \ {a} ∪ In(u)
        # let us exclude any one owned arc in O(1) per column.
        rows = self.D[cur_arr]
        if self.in_nbrs.size:
            rows = np.vstack([rows, self.D[self.in_nbrs]])
        order = np.argsort(rows, axis=0, kind="stable")
        m1 = np.take_along_axis(rows, order[:1], axis=0)[0]
        arg1 = order[0]
        if rows.shape[0] > 1:
            m2 = np.take_along_axis(rows, order[1:2], axis=0)[0]
        else:
            m2 = np.full(self.n, self.cinf, dtype=np.int64)
        for i, dropped in enumerate(cur):
            # Min over remaining rows when row i (an owned arc) is excluded.
            excl = np.where(arg1 == i, m2, m1)
            kept = tuple(v for v in cur if v != dropped)
            mins = np.minimum(excl, self.D[pool])
            dist = self._distances_for_min(mins)
            if self.version is Version.SUM:
                costs = dist.sum(axis=1, dtype=np.int64)
            else:
                kept_arr = np.asarray(kept, dtype=np.int64)
                cand_rows = pool.reshape(-1, 1)
                rows_k = (
                    np.concatenate(
                        [cand_rows, np.broadcast_to(kept_arr, (pool.size, kept_arr.size))],
                        axis=1,
                    )
                    if kept_arr.size
                    else cand_rows
                )
                kappa = self._kappa_batch(rows_k)
                costs = dist.max(axis=1) + (kappa - 1) * self.cinf
            evaluated += pool.size
            j = int(costs.argmin())
            if int(costs[j]) < best_cost:
                best_cost = int(costs[j])
                best_strategy = tuple(sorted(kept + (int(pool[j]),)))
        return best_cost, best_strategy, evaluated


# ----------------------------------------------------------------------
# Public one-shot wrappers
# ----------------------------------------------------------------------
def _current_strategy(graph: OwnedDigraph, u: int) -> tuple[int, ...]:
    return tuple(int(v) for v in graph.out_neighbors(u))


def _coerce_env(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    env: BestResponseEnvironment | None,
) -> BestResponseEnvironment:
    """Validate a shared environment or build a fresh one."""
    if env is None:
        return BestResponseEnvironment(graph, u, version)
    if env.u != u or env.version is not Version.coerce(version):
        raise GameError(
            f"environment is for player {env.u}/{env.version.value}, "
            f"requested {u}/{Version.coerce(version).value}"
        )
    if env.graph is not graph:
        raise GameError(
            "environment was built on a different graph object; build one "
            "for this graph (or route through DistanceCache.environment)"
        )
    return env


def exact_best_response(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    *,
    max_candidates: int | None = DEFAULT_MAX_CANDIDATES,
    env: BestResponseEnvironment | None = None,
) -> BestResponseResult:
    """Provably optimal strategy for player ``u`` (exponential in budget).

    NP-hard in general (Theorem 2.1); intended for certification and for
    the small budgets that dominate the paper's instances. Pass ``env``
    (e.g. from :class:`~repro.core.distance_cache.DistanceCache`) to
    reuse a shared distance substrate.
    """
    env = _coerce_env(graph, u, version, env)
    current = _current_strategy(graph, u)
    current_cost = env.evaluate(current)
    cost, strategy, evaluated = env.exact(
        len(current), current=current, max_candidates=max_candidates
    )
    return BestResponseResult(
        player=u,
        cost=cost,
        strategy=strategy,
        current_cost=current_cost,
        evaluated=evaluated,
        exact=True,
    )


def greedy_best_response(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    *,
    env: BestResponseEnvironment | None = None,
) -> BestResponseResult:
    """Greedy heuristic response for player ``u`` (polynomial)."""
    env = _coerce_env(graph, u, version, env)
    current = _current_strategy(graph, u)
    current_cost = env.evaluate(current)
    cost, strategy, evaluated = env.greedy(len(current))
    # Never report a "response" worse than staying put: the greedy search
    # space does not include the current strategy, so guard explicitly.
    if cost >= current_cost:
        cost, strategy = current_cost, current
    return BestResponseResult(
        player=u,
        cost=cost,
        strategy=tuple(sorted(strategy)),
        current_cost=current_cost,
        evaluated=evaluated,
        exact=False,
    )


def swap_best_response(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    *,
    env: BestResponseEnvironment | None = None,
) -> BestResponseResult:
    """Best single-arc swap for player ``u`` (polynomial).

    A profile stable under these moves for every player is a *weak
    equilibrium* in the sense of Section 6 of the paper.
    """
    env = _coerce_env(graph, u, version, env)
    current = _current_strategy(graph, u)
    current_cost = env.evaluate(current)
    cost, strategy, evaluated = env.best_swap(current)
    return BestResponseResult(
        player=u,
        cost=cost,
        strategy=strategy,
        current_cost=current_cost,
        evaluated=evaluated,
        exact=False,
    )
