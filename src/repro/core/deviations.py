"""Deviation search and equilibrium predicates.

A strategy profile is a (pure) Nash equilibrium iff no player has an
improving deviation. This module answers that question per player and
globally, with three search methods of increasing strength:

* ``"swap"``   — single-arc swaps only (certifies *weak* equilibrium);
* ``"greedy"`` — greedy rebuild (refutation-only: may miss deviations);
* ``"exact"``  — exhaustive subset enumeration (certifies Nash, but
  exponential in the player's budget; Theorem 2.1 says this is
  unavoidable in general).

A fast sufficient check from the paper (Lemma 2.2) is also provided:
a player with local diameter 1, or local diameter 2 and no brace, is
always playing a best response in *both* versions.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from typing import TYPE_CHECKING

from ..errors import GameError, VertexError
from ..graphs.bfs import UNREACHABLE, bfs_distances
from ..graphs.digraph import OwnedDigraph
from ..graphs.engine import DistanceEngine
from .best_response import (
    BestResponseEnvironment,
    BestResponseResult,
    _coerce_env,
    exact_best_response,
    greedy_best_response,
    swap_best_response,
)
from .costs import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .distance_cache import DistanceCache

__all__ = [
    "Method",
    "deviation_improves",
    "find_improving_deviation",
    "is_best_response",
    "is_equilibrium",
    "is_weak_equilibrium",
    "satisfies_lemma_2_2",
    "screen_best_responders",
    "best_response_for",
]

Method = Literal["exact", "greedy", "swap"]

_METHODS = {
    "exact": exact_best_response,
    "greedy": greedy_best_response,
    "swap": swap_best_response,
}


def best_response_for(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    method: Method = "exact",
    *,
    cache: "DistanceCache | None" = None,
    **kwargs,
) -> BestResponseResult:
    """Dispatch to the requested best-response routine.

    ``cache`` evaluates against the shared
    :class:`~repro.core.distance_cache.DistanceCache` environment of
    ``u``, reusing its ``U(G - u)`` matrix while the graph is unchanged;
    without one, each call builds its own engine.
    """
    try:
        fn = _METHODS[method]
    except KeyError:
        raise GameError(f"unknown method {method!r}; use exact/greedy/swap") from None
    if cache is not None:
        _check_cache_graph(cache, graph)
        if "env" not in kwargs:
            kwargs["env"] = cache.environment(u, version)
    return fn(graph, u, version, **kwargs)


def _check_cache_graph(cache: "DistanceCache", graph: OwnedDigraph) -> None:
    """A cache bound to another graph would silently mix two graphs'
    state into one answer — refuse instead."""
    if cache.graph is not graph:
        raise GameError(
            "distance cache is bound to a different graph object; call "
            "cache.rebind(graph) first"
        )


def satisfies_lemma_2_2(
    graph: OwnedDigraph, u: int, *, engine: DistanceEngine | None = None
) -> bool:
    """Paper's Lemma 2.2 sufficient condition for a best response.

    True when ``u`` has local diameter 1, or local diameter 2 and is not
    contained in any brace. In either case ``u`` plays a best response in
    both SUM and MAX versions, so the exponential search can be skipped.

    ``engine`` (a maintained engine over ``U(G)``, e.g.
    ``DistanceCache.base()``) turns the per-call BFS into a row read.
    """
    if graph.n == 1:
        return True
    if engine is not None:
        d = engine.row(u)
        if int(d.max()) >= engine.inf:
            return False
        ecc = int(d.max())
    else:
        d = bfs_distances(graph.undirected_csr(), u)
        if (d == UNREACHABLE).any():
            return False
        ecc = int(d.max())
    if ecc <= 1:
        return True
    if ecc == 2:
        out = graph.out_neighbors(u)
        # u must not be an endpoint of a brace.
        return not any(graph.has_arc(int(v), u) for v in out)
    return False


def screen_best_responders(graph: OwnedDigraph, engine: DistanceEngine) -> np.ndarray:
    """Vectorized Lemma 2.2 over a maintained distance matrix.

    Returns a boolean mask: ``mask[u]`` is ``True`` when player ``u`` is
    *certified* to play a best response (local diameter 1, or local
    diameter 2 with no incident brace), computed for all players in one
    pass over ``engine``'s all-pairs matrix instead of one BFS each.
    ``False`` entries are merely unscreened — they still need a search.

    ``engine`` must be synced to ``graph`` (e.g. ``DistanceCache.base()``);
    the result then agrees with :func:`satisfies_lemma_2_2` player by
    player.
    """
    n = graph.n
    if n == 1:
        return np.ones(1, dtype=bool)
    ecc = engine.matrix.max(axis=1).astype(np.int64)
    certified = ecc <= 1
    at_two = ecc == 2
    if at_two.any():
        adj = np.zeros((n, n), dtype=bool)
        for u, v in graph.arcs():
            adj[u, v] = True
        certified |= at_two & ~(adj & adj.T).any(axis=1)
    return certified


def _lemma_screen_engine(cache: "DistanceCache | None") -> "DistanceEngine | None":
    """The cheapest maintained ``U(G)`` engine for a Lemma 2.2 screen.

    A lazy cache syncs for one row's worth of work, so its base engine
    is always worth routing through; a full-mode cache is only used
    when already fresh — forcing a cold all-pairs build to answer one
    row would invert the economics the screen exists for.
    """
    if cache is None:
        return None
    if cache.lazy_rows:
        return cache.base()
    return cache.base_if_fresh()


def deviation_improves(
    graph: OwnedDigraph,
    u: int,
    strategy,
    version: Version | str,
    *,
    cache: "DistanceCache | None" = None,
    env: "BestResponseEnvironment | None" = None,
    use_lemma: bool = True,
) -> bool:
    """Whether rewiring ``u`` to ``strategy`` strictly lowers its cost.

    The single-deviation verdict: unlike
    :func:`find_improving_deviation` nothing is searched — one proposed
    strategy is priced against the current one. With a ``rows="lazy"``
    cache (or no cache at all, which builds a throwaway lazy engine)
    the answer costs the distance rows of ``current ∪ In(u) ∪
    strategy`` — a bounded batch of single-source sweeps on the
    punctured substrate — never a full all-pairs build, which is what
    makes cold-instance swap checks cheap.

    ``use_lemma`` first applies the Lemma 2.2 sufficient condition
    (via the cache's maintained matrix when that is free): a certified
    best responder has no improving deviation, so the evaluation is
    skipped entirely.
    """
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    if cache is not None:
        _check_cache_graph(cache, graph)
    new = tuple(sorted({int(v) for v in strategy}))
    for v in new:
        if not 0 <= v < graph.n:
            raise VertexError(v, graph.n)
        if v == u:
            raise GameError(f"player {u} cannot link to itself")
    current = tuple(sorted(int(v) for v in graph.out_neighbors(u)))
    if len(new) > len(current):
        raise GameError(
            f"deviation uses {len(new)} links but player {u}'s budget "
            f"in use is {len(current)}"
        )
    if new == current:
        return False
    if use_lemma and satisfies_lemma_2_2(
        graph, u, engine=_lemma_screen_engine(cache)
    ):
        return False
    if env is None and cache is not None:
        env = cache.environment(u, version)
    elif env is None:
        lazy_engine = DistanceEngine(
            graph.undirected_csr_without(u), rows="lazy"
        )
        env = BestResponseEnvironment(graph, u, version, engine=lazy_engine)
    else:
        env = _coerce_env(graph, u, version, env)
    return env.evaluate(new) < env.evaluate(current)


def find_improving_deviation(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    method: Method = "exact",
    *,
    use_lemma: bool = True,
    cache: "DistanceCache | None" = None,
    **kwargs,
) -> BestResponseResult | None:
    """An improving deviation for ``u``, or ``None`` if none was found.

    With ``method="exact"``, ``None`` is a *certificate* that ``u`` plays
    a best response. With the heuristics, ``None`` only means the
    restricted search found nothing.
    """
    if cache is not None:
        _check_cache_graph(cache, graph)
    if use_lemma and satisfies_lemma_2_2(
        graph, u, engine=cache.base() if cache is not None else None
    ):
        return None
    result = best_response_for(graph, u, version, method, cache=cache, **kwargs)
    return result if result.is_improving else None


def is_best_response(
    graph: OwnedDigraph,
    u: int,
    version: Version | str,
    method: Method = "exact",
    **kwargs,
) -> bool:
    """Whether ``u``'s current strategy is optimal (w.r.t. ``method``)."""
    return find_improving_deviation(graph, u, version, method, **kwargs) is None


def is_equilibrium(
    graph: OwnedDigraph,
    version: Version | str,
    method: Method = "exact",
    *,
    players: "list[int] | None" = None,
    cache: "DistanceCache | None" = None,
    **kwargs,
) -> bool:
    """Whether the profile is a Nash equilibrium (``method="exact"``)
    or stable under the given move set (heuristic methods).

    ``players`` restricts the check (useful for symmetric constructions
    where one representative per orbit suffices). ``cache`` routes every
    player through a shared :class:`DistanceCache` and screens all
    players at once with :func:`screen_best_responders` on the
    maintained ``U(G)`` matrix before any per-player search runs — the
    census fast path. The answer is identical with or without a cache.
    """
    todo = range(graph.n) if players is None else players
    screened = None
    if cache is not None:
        _check_cache_graph(cache, graph)
        screened = screen_best_responders(graph, cache.base())
        kwargs = dict(kwargs, cache=cache, use_lemma=False)
    for u in todo:
        if screened is not None and screened[u]:
            continue
        if not is_best_response(graph, u, version, method, **kwargs):
            return False
    return True


def is_weak_equilibrium(
    graph: OwnedDigraph, version: Version | str, *, players: "list[int] | None" = None
) -> bool:
    """Stability under single-arc swaps (Section 6's weak equilibrium)."""
    return is_equilibrium(graph, version, method="swap", players=players)
