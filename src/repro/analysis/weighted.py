"""Section 6 proof machinery: weighted weak equilibria and leaf folding.

The 2^O(√log n) upper bound (Theorem 6.9) runs through *weighted weak
equilibrium graphs*: vertices carry positive integer weights, the SUM
cost of ``u`` is ``sum_v w(v) dist(u, v)``, and a graph is a weak
equilibrium when no single-arc swap pays for any vertex. Three tools
from the proof are implemented and empirically checkable here:

* **poor/rich leaves** — a degree-1 vertex with out-degree 0 is *poor*
  (its supporting arc belongs to its neighbour), with out-degree 1
  *rich*;
* **folding** (Lemma 6.2 setup) — a poor leaf can be folded into its
  neighbour, transferring its weight; folding preserves weak
  equilibrium;
* **Lemma 6.4** — any two rich leaves of a weighted weak equilibrium
  are within distance 2 of each other.

Cache-backed path
-----------------
Every distance-consuming checker in this module takes an optional
``cache`` — a :class:`~repro.core.distance_cache.DistanceCache` bound to
``wr.graph`` — and then reads distances from the cache's revision-synced
hop-distance engines instead of fresh per-call BFS sweeps (vertex
weights enter only the cost sums, never the distances):
:func:`weighted_sum_cost` becomes one row·weights product, the swap
check evaluates against the cached ``U(G - u)`` matrix via
:class:`WeightedSwapEnvironment`, and :func:`fold_all_poor_leaves` runs
the whole cascade in place on one working copy, each fold a weight
transfer plus one arc removal (the engines rebuild on their next read).
Verdicts, fold sequences and reports are bit-identical to the retained
loop path (``cache=None``); the cache only trades time.
Environments snapshot both the engine epoch and the realization's
vertex-``weights_revision``, so reads after a weight transfer raise
:class:`~repro.errors.StaleDistanceError` instead of pricing swaps
with outdated weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.best_response import BestResponseEnvironment
from ..errors import GameError, GraphError, StaleDistanceError
from ..graphs.digraph import OwnedDigraph
from ..graphs.engine import DistanceEngine, LazyRowGather

__all__ = [
    "WeightedRealization",
    "WeightedSwapEnvironment",
    "weighted_sum_cost",
    "poor_leaves",
    "rich_leaves",
    "fold_poor_leaf",
    "fold_all_poor_leaves",
    "is_weighted_weak_equilibrium",
    "weighted_swap_sweep",
    "weighted_swap_check",
    "check_lemma_6_4",
    "degree_two_path_edges",
    "lemma_6_5_bound",
    "tree_ball_radius",
    "theorem_6_1_radius",
]


@dataclass
class WeightedRealization:
    """A realization together with positive integer vertex weights.

    Folding reduces the vertex count conceptually; here folded vertices
    simply become isolated weight-0 ghosts (mask ``active``), keeping
    the index space stable.

    Weight mutations made through :meth:`transfer_weight` bump
    :attr:`weights_revision`, which cached swap environments snapshot
    to detect stale reads. Poking ``weights`` directly bypasses that
    bookkeeping — use the method on any engine-backed path.
    """

    graph: OwnedDigraph
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.shape != (self.graph.n,):
            raise GraphError(
                f"weights shape {self.weights.shape} != (n,) = ({self.graph.n},)"
            )
        if (self.weights < 0).any():
            raise GraphError("weights must be nonnegative")
        self._weights_revision = 0

    @property
    def weights_revision(self) -> int:
        """Counter bumped by every :meth:`transfer_weight`."""
        return self._weights_revision

    @property
    def active(self) -> np.ndarray:
        """Vertices still present (weight > 0)."""
        return np.flatnonzero(self.weights > 0).astype(np.int64)

    @classmethod
    def unit(cls, graph: OwnedDigraph) -> "WeightedRealization":
        """All-ones weights: the unweighted game as a weighted instance."""
        return cls(graph=graph.copy(), weights=np.ones(graph.n, dtype=np.int64))

    def total_weight(self) -> int:
        """``w(G)`` in the paper's notation."""
        return int(self.weights.sum())

    def transfer_weight(self, src: int, dst: int) -> None:
        """Move all of ``src``'s weight onto ``dst`` (the fold primitive).

        ``src`` becomes a weight-0 ghost; the revision counter bumps so
        environments snapshotted before the transfer raise
        :class:`~repro.errors.StaleDistanceError` on their next read.
        """
        n = self.graph.n
        if not 0 <= src < n or not 0 <= dst < n:
            raise GraphError(f"transfer endpoints ({src}, {dst}) out of range [0, {n})")
        if src == dst:
            raise GraphError(f"cannot transfer weight from {src} onto itself")
        self.weights[dst] += self.weights[src]
        self.weights[src] = 0
        self._weights_revision += 1


def _check_cache(wr: WeightedRealization, cache) -> None:
    """Refuse a cache that tracks a *different graph object* than ``wr``.

    Its distances would then describe another realization and silently
    disagree with the loop reference.
    """
    if cache.graph is not wr.graph:
        raise GameError(
            "distance cache is bound to a different graph object; "
            "call cache.rebind(wr.graph) first"
        )


def weighted_sum_cost(
    wr: WeightedRealization, u: int, *, cache=None
) -> int:
    """``c(u) = sum_v w(v) dist(u, v)`` with the ``Cinf`` convention.

    With ``cache`` the cost is one row·weights product over the
    maintained ``U(G)`` matrix (whose sentinel *is* ``Cinf``); without,
    a fresh BFS — identical integers either way.
    """
    if cache is not None:
        _check_cache(wr, cache)
        row = cache.base().row(u).astype(np.int64)
        return int(row @ wr.weights)
    from ..graphs.bfs import UNREACHABLE, bfs_distances
    from ..graphs.distances import cinf

    d = bfs_distances(wr.graph.undirected_csr(), u).astype(np.int64)
    d[d == UNREACHABLE] = cinf(wr.graph.n)
    return int((d * wr.weights).sum())


def _undirected_degree(graph: OwnedDigraph, v: int) -> int:
    return int(graph.neighbors(v).size)


def poor_leaves(wr: WeightedRealization) -> list[int]:
    """Active degree-1 vertices that own no arc (supported by others).

    Ascending vertex order — the fold routines rely on this to make
    the loop path and the engine path pick identical fold sequences.
    """
    out = []
    for v in wr.active.tolist():
        if _undirected_degree(wr.graph, v) == 1 and wr.graph.out_degree(v) == 0:
            out.append(v)
    return out


def rich_leaves(wr: WeightedRealization) -> list[int]:
    """Active degree-1 vertices that own their single arc."""
    out = []
    for v in wr.active.tolist():
        if _undirected_degree(wr.graph, v) == 1 and wr.graph.out_degree(v) == 1:
            out.append(v)
    return out


def _is_poor_leaf(wr: WeightedRealization, v: int) -> bool:
    return (
        wr.weights[v] > 0
        and _undirected_degree(wr.graph, v) == 1
        and wr.graph.out_degree(v) == 0
    )


def _fold_in_place(wr: WeightedRealization, leaf: int) -> int:
    """Apply one fold to ``wr`` itself; returns the absorbing neighbour.

    The supporting arc is removed from the live graph (one revision
    bump) and the weight moves by
    :meth:`WeightedRealization.transfer_weight`.
    """
    owners = wr.graph.in_neighbors(leaf)
    assert owners.size == 1, "a poor leaf has exactly one (incoming) arc"
    u = int(owners[0])
    wr.graph.remove_arc(u, leaf)
    wr.transfer_weight(leaf, u)
    return u


def fold_poor_leaf(
    wr: WeightedRealization, leaf: int, *, cache=None
) -> WeightedRealization:
    """Fold a poor leaf into its unique neighbour (the paper's G -> G0).

    The supporting arc ``u -> leaf`` is removed and ``w(u) += w(leaf)``;
    the leaf becomes a weight-0 ghost. If ``G`` was a weighted weak
    equilibrium, so is the folded graph (checked empirically in tests).

    ``wr`` itself is never mutated. With ``cache`` (bound to
    ``wr.graph``) the fold runs on a fresh working copy that the cache
    is re-bound to, so subsequent cached checks on the returned
    realization reuse the cache's engine buffers.
    """
    if not _is_poor_leaf(wr, leaf):
        raise GraphError(f"vertex {leaf} is not a poor leaf")
    if cache is not None:
        _check_cache(wr, cache)
    out = WeightedRealization(graph=wr.graph.copy(), weights=wr.weights.copy())
    if cache is not None:
        cache.rebind(out.graph)
    _fold_in_place(out, leaf)
    return out


def fold_all_poor_leaves(
    wr: WeightedRealization,
    *,
    max_rounds: "int | None" = None,
    cache=None,
) -> WeightedRealization:
    """Fold until no poor leaf remains (Corollary 6.3's normalisation).

    The retained loop path (``cache=None``) re-copies the graph and
    re-scans for poor leaves every round. With ``cache`` the whole
    cascade runs in place on one working copy: each fold is an arc
    removal plus a weight transfer, and the poor-leaf set is maintained
    incrementally (a fold can only change the status of the absorbing
    neighbour). Both paths fold the same leaves in the same order and
    return identical realizations.
    """
    if cache is None:
        current = wr
        rounds = 0
        while True:
            leaves = poor_leaves(current)
            if not leaves:
                return current
            current = fold_poor_leaf(current, leaves[0])
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                return current

    _check_cache(wr, cache)
    out = WeightedRealization(graph=wr.graph.copy(), weights=wr.weights.copy())
    cache.rebind(out.graph)
    poor = set(poor_leaves(out))
    rounds = 0
    while poor:
        leaf = min(poor)
        u = _fold_in_place(out, leaf)
        poor.discard(leaf)
        # The removed arc is incident only to `leaf` and `u`, so only
        # the absorbing neighbour's leaf status can have changed.
        if _is_poor_leaf(out, u):
            poor.add(u)
        else:
            poor.discard(u)
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            break
    return out


def _swap_block_improves(
    D: np.ndarray,
    cinf_val: int,
    cur: "tuple[int, ...]",
    in_nbrs: np.ndarray,
    pool: np.ndarray,
    w: np.ndarray,
    u: int,
    cur_cost: int,
) -> bool:
    """Shared swap algebra: does any (drop, add) pair beat ``cur_cost``?

    Per-column first/second minima over the kept rows (current strategy
    plus in-neighbours of ``u``) evaluate every "drop one arc"
    exclusion in O(1) per column; each "add one arc" candidate is one
    row-min against that exclusion; a candidate block's weighted costs
    reduce to one matrix–vector product. Both the loop reference path
    (``D`` from a fresh per-call BFS) and the engine path (``D`` from a
    maintained matrix) evaluate through this one helper — the
    paths differ only in where the distances come from.
    """
    n = D.shape[1]
    rows = D[np.asarray(cur, dtype=np.int64)]
    if in_nbrs.size:
        rows = np.vstack([rows, D[in_nbrs]])
    order = np.argsort(rows, axis=0, kind="stable")
    m1 = np.take_along_axis(rows, order[:1], axis=0)[0]
    arg1 = order[0]
    if rows.shape[0] > 1:
        m2 = np.take_along_axis(rows, order[1:2], axis=0)[0]
    else:
        m2 = np.full(n, cinf_val, dtype=np.int64)
    cand_rows = D[pool]
    for i in range(len(cur)):
        # Min over the kept rows when owned row i is excluded.
        excl = np.where(arg1 == i, m2, m1)
        mins = np.minimum(excl, cand_rows)
        dist = np.minimum(mins + 1, cinf_val)
        dist[:, u] = 0
        if (dist @ w < cur_cost).any():
            return True
    return False


class WeightedSwapEnvironment:
    """Evaluation substrate for weighted single-arc swaps of one player.

    The weighted counterpart of
    :class:`~repro.core.best_response.BestResponseEnvironment`,
    restricted to the Section 6 move set (drop one owned arc, add one).
    It reads the ``U(G - u)`` matrix of a shared
    :class:`~repro.core.distance_cache.DistanceCache` engine zero-copy
    and snapshots *three* freshness tokens: the engine epoch,
    the graph revision, and the realization's vertex-weights revision.
    Any read after the substrate, the in-neighbourhood, or the weights
    move on raises :class:`~repro.errors.StaleDistanceError` — in
    particular a :meth:`WeightedRealization.transfer_weight` (a fold)
    stales every environment built before it.
    """

    def __init__(
        self,
        wr: WeightedRealization,
        u: int,
        *,
        cache=None,
        engine=None,
        in_nbrs: "np.ndarray | None" = None,
    ) -> None:
        graph = wr.graph
        if not 0 <= u < graph.n:
            raise GraphError(f"vertex {u} out of range [0, {graph.n})")
        if cache is not None:
            _check_cache(wr, cache)
            engine = cache.player(u)
        elif engine is None:
            engine = DistanceEngine(graph.undirected_csr_without(u))
        else:
            if engine.n != graph.n:
                raise GameError(
                    f"engine substrate has {engine.n} vertices, graph has {graph.n}"
                )
            if engine.csr.degree(u) != 0:
                raise GameError(
                    f"engine substrate must isolate player {u} (U(G - u))"
                )
        self.u = int(u)
        self.n = graph.n
        self.cinf = engine.inf
        self._wr = wr
        self._engine = engine
        self._epoch = engine.epoch
        self._revision = graph.revision
        self._weights_rev = wr.weights_revision
        # A lazy engine reads through the row-on-demand facade so that
        # a single check_swap prices against rows of cur ∪ In(u) ∪ {add}
        # only; the full swap_improves sweep still touches ~n rows and
        # simply promotes along the way.
        self.D = LazyRowGather(engine) if engine.lazy else engine.matrix
        self.in_nbrs = graph.in_neighbors(u) if in_nbrs is None else in_nbrs
        if self.in_nbrs.size:
            self._base_min = self.D[self.in_nbrs].min(axis=0)
        else:
            self._base_min = np.full(self.n, self.cinf, dtype=np.int64)

    @property
    def engine(self):
        """The engine whose ``U(G - u)`` matrix this environment reads."""
        return self._engine

    def is_fresh(self) -> bool:
        """Whether this environment still prices the current state."""
        try:
            self._check_fresh()
        except StaleDistanceError:
            return False
        return True

    def _check_fresh(self) -> None:
        if self._engine.epoch != self._epoch:
            raise StaleDistanceError(
                f"weighted environment for player {self.u} was built at engine "
                f"epoch {self._epoch}, but the engine is now at epoch "
                f"{self._engine.epoch}; rebuild the environment"
            )
        if self._wr.weights_revision != self._weights_rev:
            raise StaleDistanceError(
                f"vertex weights moved from revision {self._weights_rev} to "
                f"{self._wr.weights_revision} since this environment was "
                f"built; rebuild the environment"
            )
        rev = self._wr.graph.revision
        if rev != self._revision:
            # Same structural re-validation as BestResponseEnvironment:
            # the player's own moves leave U(G - u) and In(u) intact.
            cur = self._wr.graph.undirected_csr_without(self.u)
            sub = self._engine.csr
            if not (
                cur.indices.size == sub.indices.size
                and np.array_equal(cur.indptr, sub.indptr)
                and np.array_equal(cur.indices, sub.indices)
            ):
                raise StaleDistanceError(
                    f"substrate U(G - {self.u}) changed since this weighted "
                    f"environment was built; rebuild the environment"
                )
            if not np.array_equal(self._wr.graph.in_neighbors(self.u), self.in_nbrs):
                raise StaleDistanceError(
                    f"in-neighbourhood of player {self.u} changed since this "
                    f"weighted environment was built; rebuild the environment"
                )
            self._revision = rev

    def distances_for(self, strategy) -> np.ndarray:
        """Distance vector from ``u`` under a hypothetical strategy."""
        self._check_fresh()
        s = np.asarray(sorted(strategy), dtype=np.int64)
        if s.size:
            mins = np.minimum(self.D[s].min(axis=0), self._base_min)
        else:
            mins = np.asarray(self._base_min).copy()
        dist = np.minimum(mins + 1, self.cinf)
        dist[self.u] = 0
        return dist

    def current_cost(self) -> int:
        """Weighted SUM cost of ``u``'s current strategy."""
        cur = tuple(int(v) for v in self._wr.graph.out_neighbors(self.u))
        return int(self.distances_for(cur) @ self._wr.weights)

    def swap_improves(self) -> bool:
        """Whether some single-arc swap strictly lowers ``u``'s cost.

        Per-column first/second minima over the kept rows evaluate every
        "drop one arc" exclusion in O(1) per column; each "add one arc"
        candidate is a row-min against that exclusion; the whole
        candidate block's weighted costs reduce to one matrix–vector
        product — the same algebra as the reference path, read off the
        maintained matrix. Weight-0 vertices are folded ghosts and are
        never swap targets (see :func:`_weighted_swap_improves`).
        """
        self._check_fresh()
        wr = self._wr
        u = self.u
        cur = tuple(int(v) for v in wr.graph.out_neighbors(u))
        if not cur:
            return False
        n = self.n
        w = wr.weights
        cur_cost = int(self.distances_for(cur) @ w)
        blocked = set(cur) | {u} | set(np.flatnonzero(w == 0).tolist())
        pool = np.asarray([v for v in range(n) if v not in blocked], dtype=np.int64)
        if pool.size == 0:
            return False
        return _swap_block_improves(
            self.D, self.cinf, cur, self.in_nbrs, pool, w, u, cur_cost
        )

    def check_swap(self, drop: int, add: int) -> bool:
        """Whether the single swap ``drop -> add`` strictly lowers cost.

        The point verdict beneath :meth:`swap_improves`: one named
        (drop, add) pair is priced instead of the whole grid, touching
        only the distance rows of ``cur ∪ In(u) ∪ {add}`` — on a lazy
        engine that is a bounded batch of single-source sweeps, never a
        full all-pairs build. ``drop`` must be a currently owned arc and
        ``add`` a legal swap target (not ``u``, not already owned, not a
        weight-0 folded ghost), mirroring :meth:`swap_improves`'s move
        set so the disjunction of legal ``check_swap`` verdicts equals
        its answer.
        """
        self._check_fresh()
        wr = self._wr
        u = self.u
        cur = tuple(int(v) for v in wr.graph.out_neighbors(u))
        drop = int(drop)
        add = int(add)
        if drop not in cur:
            raise GameError(f"player {u} owns no arc to {drop}; cannot drop it")
        if not 0 <= add < self.n:
            raise GraphError(f"vertex {add} out of range [0, {self.n})")
        if add == u:
            raise GameError(f"player {u} cannot link to itself")
        if add in cur:
            raise GameError(f"player {u} already owns an arc to {add}")
        if wr.weights[add] == 0:
            raise GameError(
                f"vertex {add} is a folded weight-0 ghost; not a swap target"
            )
        w = wr.weights
        cur_cost = int(self.distances_for(cur) @ w)
        swapped = tuple(sorted(set(cur) - {drop} | {add}))
        return int(self.distances_for(swapped) @ w) < cur_cost


def _weighted_swap_improves(
    wr: WeightedRealization,
    u: int,
    *,
    cache=None,
    env: "WeightedSwapEnvironment | None" = None,
) -> bool:
    """Whether some single-arc swap strictly lowers ``u``'s weighted cost.

    The retained reference path (no ``cache``/``env``) builds a fresh
    :class:`BestResponseEnvironment` — one all-pairs BFS of ``U(G - u)``
    per call. ``cache`` replaces that with the maintained ``U(G - u)``
    engine (rebuilt only when the graph changed); ``env``
    reuses a prebuilt :class:`WeightedSwapEnvironment` under its
    staleness contract. All three paths return identical verdicts.

    Move-set semantics: weight-0 vertices are *folded ghosts* — in the
    paper's folded graph they no longer exist, so they are excluded
    from the candidate pool (a swap may not target one). Instances
    with weight-0 vertices that are meant to remain live players
    should give them weight 1 instead.
    """
    if env is not None:
        if env.u != u:
            raise GameError(f"environment is for player {env.u}, requested {u}")
        if env._wr is not wr:
            raise GameError(
                "environment was built on a different weighted realization; "
                "build one for this realization"
            )
        return env.swap_improves()
    if cache is not None:
        _check_cache(wr, cache)
        if wr.graph.out_degree(u) == 0:
            # No owned arc means no swap; skip the engine sync entirely
            # (leaf-heavy Section 6 instances hit this constantly).
            return False
        return WeightedSwapEnvironment(wr, u, cache=cache).swap_improves()

    cur = tuple(int(v) for v in wr.graph.out_neighbors(u))
    if not cur:
        return False
    env_br = BestResponseEnvironment(wr.graph, u, "sum")
    n = wr.graph.n
    w = wr.weights
    cur_cost = int((env_br.distances_for(cur) * w).sum())
    blocked = set(cur) | {u} | set(np.flatnonzero(wr.weights == 0).tolist())
    pool = np.asarray([v for v in range(n) if v not in blocked], dtype=np.int64)
    if pool.size == 0:
        return False
    return _swap_block_improves(
        env_br.D, env_br.cinf, cur, env_br.in_nbrs, pool, w, u, cur_cost
    )


def weighted_swap_sweep(
    wr: WeightedRealization, *, cache=None
) -> "list[bool]":
    """Per-player swap verdicts for every active vertex, in index order.

    ``result[i]`` says whether ``wr.active[i]`` can strictly improve by
    a single-arc swap — the full per-player picture behind
    :func:`is_weighted_weak_equilibrium` (which only needs the
    disjunction and early-exits). The loop path pays one all-pairs BFS
    of ``U(G - u)`` per arc-owning player; the engine path reads the
    cached matrices and batches the per-sweep graph scans (one bulk
    in-neighbour pass instead of one owner scan per player). Verdict
    lists are identical either way.
    """
    if cache is None:
        return [_weighted_swap_improves(wr, int(u)) for u in wr.active.tolist()]
    _check_cache(wr, cache)
    in_lists = wr.graph.in_neighbor_lists()
    out = []
    for u in wr.active.tolist():
        u = int(u)
        if wr.graph.out_degree(u) == 0:
            out.append(False)
            continue
        env = WeightedSwapEnvironment(wr, u, cache=cache, in_nbrs=in_lists[u])
        out.append(env.swap_improves())
    return out


def weighted_swap_check(
    wr: WeightedRealization,
    u: int,
    drop: int,
    add: int,
    *,
    cache=None,
    env: "WeightedSwapEnvironment | None" = None,
) -> bool:
    """Whether the single swap ``drop -> add`` strictly lowers ``u``'s cost.

    The cold-instance entry point of the Section 6 query tier: with no
    prebuilt state at all (``cache=None``, ``env=None``) the verdict is
    answered on a throwaway ``rows="lazy"`` engine over ``U(G - u)`` —
    the distance rows of ``cur ∪ In(u) ∪ {add}`` are materialised by
    bounded single-source sweeps and nothing else is, so a one-off swap
    check never pays for a full all-pairs build. ``cache`` reuses the
    shared engines (lazy or full) and ``env`` a prebuilt
    :class:`WeightedSwapEnvironment` under its staleness contract; all
    paths return identical verdicts.
    """
    if env is not None:
        if env.u != u:
            raise GameError(f"environment is for player {env.u}, requested {u}")
        if env._wr is not wr:
            raise GameError(
                "environment was built on a different weighted realization; "
                "build one for this realization"
            )
        return env.check_swap(drop, add)
    if cache is not None:
        _check_cache(wr, cache)
        return WeightedSwapEnvironment(wr, u, cache=cache).check_swap(drop, add)
    graph = wr.graph
    if not 0 <= u < graph.n:
        raise GraphError(f"vertex {u} out of range [0, {graph.n})")
    engine = DistanceEngine(graph.undirected_csr_without(u), rows="lazy")
    return WeightedSwapEnvironment(wr, u, engine=engine).check_swap(drop, add)


def is_weighted_weak_equilibrium(
    wr: WeightedRealization, *, cache=None
) -> bool:
    """No active vertex can improve its weighted SUM cost by one swap.

    ``cache`` routes every player's check through the shared engines
    (the verdict is identical either way). Players at local
    diameter 1 are screened off the maintained ``U(G)`` matrix: the
    all-ones distance vector is the pointwise minimum of any strategy's,
    so it is optimal for *every* weight vector (the weighted survivor
    of Lemma 2.2 — the diameter-2 case does not survive weighting,
    since a swap towards a heavy vertex can pay for one extra hop).
    """
    if cache is not None:
        _check_cache(wr, cache)
        ecc = cache.base().matrix.max(axis=1)
        in_lists = None
        for u in wr.active.tolist():
            u = int(u)
            if ecc[u] <= 1 or wr.graph.out_degree(u) == 0:
                continue
            if in_lists is None:
                # One O(n + m) owner pass for every unscreened player,
                # not one O(n) scan each.
                in_lists = wr.graph.in_neighbor_lists()
            env = WeightedSwapEnvironment(wr, u, cache=cache, in_nbrs=in_lists[u])
            if env.swap_improves():
                return False
        return True
    for u in wr.active.tolist():
        if _weighted_swap_improves(wr, int(u)):
            return False
    return True


@dataclass(frozen=True)
class Lemma64Report:
    """Outcome of checking Lemma 6.4 on one weighted graph."""

    rich: tuple[int, ...]
    max_pairwise_distance: int

    @property
    def holds(self) -> bool:
        """Lemma 6.4: every pair of rich leaves is within distance 2."""
        return self.max_pairwise_distance <= 2


def check_lemma_6_4(wr: WeightedRealization, *, cache=None) -> Lemma64Report:
    """Measure the largest distance between rich leaves.

    In any weighted weak equilibrium this is at most 2 (Lemma 6.4); the
    checker lets tests audit that on folded dynamics output. ``cache``
    answers each pair through :meth:`DistanceCache.query` — a
    maintained-matrix read when the row is hot, one bounded
    bidirectional search when it is not (the unreachable sentinel is
    exactly the ``n^2`` the reference path substitutes either way) —
    instead of one full BFS per rich leaf.
    """
    rich = rich_leaves(wr)
    worst = 0
    if cache is not None:
        _check_cache(wr, cache)
        # cache.query reads maintained matrix entries when they are hot
        # and falls back to one bounded bidirectional search per pair —
        # a handful of rich-leaf probes never forces an all-pairs build.
        for i, a in enumerate(rich):
            for b in rich[i + 1 :]:
                worst = max(worst, int(cache.query(a, b)))
        return Lemma64Report(rich=tuple(rich), max_pairwise_distance=worst)

    from ..graphs.bfs import UNREACHABLE, bfs_distances

    csr = wr.graph.undirected_csr()
    for i, a in enumerate(rich):
        d = bfs_distances(csr, a)
        for b in rich[i + 1 :]:
            val = int(d[b])
            if val == UNREACHABLE:
                val = wr.graph.n * wr.graph.n
            worst = max(worst, val)
    return Lemma64Report(rich=tuple(rich), max_pairwise_distance=worst)


# ----------------------------------------------------------------------
# Lemma 6.5: degree-2 edges along unique shortest paths
# ----------------------------------------------------------------------
def degree_two_path_edges(wr: WeightedRealization, path: "list[int]") -> int:
    """Count edges of ``path`` whose endpoints both have degree 2.

    Lemma 6.5 bounds this by ``O(log w(P))`` along any path that is the
    unique shortest path between each pair of its vertices (in a tree,
    every path qualifies). Used with :func:`lemma_6_5_bound`.
    """
    count = 0
    for a, b in zip(path, path[1:]):
        if _undirected_degree(wr.graph, a) == 2 and _undirected_degree(wr.graph, b) == 2:
            count += 1
    return count


def lemma_6_5_bound(wr: WeightedRealization, path: "list[int]") -> int:
    """The concrete bound implied by the Lemma 6.5 proof: ``2 t`` where
    ``2^(t-1) - 1 <= w(P)`` — i.e. ``2 (floor(log2(w(P) + 1)) + 1)``.
    """
    import math

    w_path = int(wr.weights[np.asarray(path, dtype=np.int64)].sum())
    return 2 * (int(math.log2(max(w_path, 1) + 1)) + 1)


# ----------------------------------------------------------------------
# Theorem 6.1: tree-like balls have logarithmic radius
# ----------------------------------------------------------------------
def tree_ball_radius(graph: OwnedDigraph, u: int) -> int:
    """Largest ``r`` such that the subgraph induced by ``B_r(u)`` is a
    forest with no brace (i.e. "tree-like" as in Theorem 6.1).

    Capped at the eccentricity of ``u``; returns the eccentricity when
    the whole component is a tree.
    """
    from ..graphs.bfs import UNREACHABLE, bfs_distances
    from ..graphs.csr import build_csr
    from ..graphs.connectivity import connected_components

    csr = graph.undirected_csr()
    dist = bfs_distances(csr, u)
    reach = dist[dist != UNREACHABLE]
    max_r = int(reach.max()) if reach.size else 0
    # Braces inside the ball are 2-cycles: track arc multiplicities.
    arcs = list(graph.arcs())
    best = 0
    for r in range(1, max_r + 1):
        inside = dist <= r
        inside[dist == UNREACHABLE] = False
        ball_arcs = [(a, b) for a, b in arcs if inside[a] and inside[b]]
        num_vertices = int(inside.sum())
        # Forest test on the multigraph: edges (counting braces twice)
        # must equal vertices - components.
        heads = np.asarray([a for a, _ in ball_arcs], dtype=np.int64)
        tails = np.asarray([b for _, b in ball_arcs], dtype=np.int64)
        sub = build_csr(graph.n, heads, tails)
        # Components among the ball's vertices only.
        sub_labels, _ = connected_components(sub)
        labels_inside = sub_labels[inside]
        k = len(set(labels_inside.tolist()))
        if len(ball_arcs) == num_vertices - k:
            best = r
        else:
            break
    return best


def theorem_6_1_radius(graph: OwnedDigraph) -> int:
    """Max tree-ball radius over all vertices (Theorem 6.1's ``r``).

    On SUM equilibria this is ``O(log n)``; the experiment harness
    checks it against ``theorem_3_3_bound`` (the same doubling constant
    governs both proofs).
    """
    return max(tree_ball_radius(graph, u) for u in range(graph.n))
