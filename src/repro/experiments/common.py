"""Shared machinery for the experiment harness.

Experiments need two recurring operations with honest accounting:

* :func:`stabilize` — drive a realization to a stable profile, using
  exact best responses whenever every player's subset space is small
  enough and falling back to alternating greedy/swap passes otherwise
  (Theorem 2.1 makes exact search exponential in the budget);
* :func:`try_certify` — certify the result, recording *which* notion of
  stability was verified (``"exact"`` = Nash, ``"swap"`` = weak
  equilibrium, per Section 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.costs import Version
from ..core.dynamics import DynamicsResult, best_response_dynamics
from ..core.equilibrium import EquilibriumCertificate, certify_equilibrium
from ..core.game import BoundedBudgetGame
from ..graphs.digraph import OwnedDigraph

__all__ = ["StabilizeOutcome", "exact_is_feasible", "stabilize", "try_certify"]

#: Default cap on per-player candidate subsets for exact search.
DEFAULT_EXACT_CAP = 100_000


def exact_is_feasible(game: BoundedBudgetGame, cap: int = DEFAULT_EXACT_CAP) -> bool:
    """Whether exact best response is affordable for *every* player."""
    n = game.n
    return all(math.comb(n - 1, int(b)) <= cap for b in game.budgets)


@dataclass
class StabilizeOutcome:
    """Result of :func:`stabilize`.

    ``method`` records the strongest move set under which the final
    profile is stable ("exact" or "swap"); ``converged`` is False when
    dynamics hit the round cap or cycled.
    """

    graph: OwnedDigraph
    converged: bool
    cycled: bool
    rounds: int
    method: str


def stabilize(
    game: BoundedBudgetGame,
    graph: OwnedDigraph,
    version: "Version | str",
    *,
    seed: int = 0,
    max_rounds: int = 300,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> StabilizeOutcome:
    """Run dynamics to a stable profile, strongest affordable move set.

    With small budgets: plain exact best-response dynamics (fixed point
    = certified Nash equilibrium). Otherwise: alternate greedy and swap
    passes until neither finds an improving move (fixed point = weak
    equilibrium that greedy cannot refute).
    """
    version = Version.coerce(version)
    # Process-local distance cache keyed by this graph's instance id:
    # engines and their matrices survive across the alternating passes
    # below, and retired caches' buffers are recycled across sweep tasks
    # of the same size.
    from ..parallel.sweep import shared_distance_cache

    cache = shared_distance_cache(graph)
    if exact_is_feasible(game, exact_cap):
        res = best_response_dynamics(
            game, graph, version, method="exact", max_rounds=max_rounds, seed=seed,
            cache=cache,
        )
        return StabilizeOutcome(
            graph=res.graph,
            converged=res.converged,
            cycled=res.cycled,
            rounds=res.rounds,
            method="exact",
        )
    current = graph
    rounds = 0
    cycled = False
    for _ in range(8):  # alternate passes; each pass is itself iterated
        greedy = best_response_dynamics(
            game, current, version, method="greedy", max_rounds=max_rounds, seed=seed,
            cache=cache,
        )
        rounds += greedy.rounds
        swap = best_response_dynamics(
            game, greedy.graph, version, method="swap", max_rounds=max_rounds, seed=seed,
            cache=cache,
        )
        rounds += swap.rounds
        cycled = cycled or greedy.cycled or swap.cycled
        current = swap.graph
        if greedy.num_moves == 0 and swap.converged and swap.num_moves == 0:
            return StabilizeOutcome(
                graph=current, converged=True, cycled=cycled, rounds=rounds, method="swap"
            )
    return StabilizeOutcome(
        graph=current, converged=False, cycled=cycled, rounds=rounds, method="swap"
    )


def try_certify(
    graph: OwnedDigraph,
    version: "Version | str",
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> tuple[str, EquilibriumCertificate]:
    """Certify stability with the strongest affordable method.

    Returns ``(method, certificate)`` where ``method`` is ``"exact"``
    (full Nash certification) or ``"swap"`` (weak-equilibrium
    certification) depending on the players' budget sizes.
    """
    game = BoundedBudgetGame(graph.out_degrees())
    if exact_is_feasible(game, exact_cap):
        return "exact", certify_equilibrium(graph, version, method="exact")
    return "swap", certify_equilibrium(graph, version, method="swap")
