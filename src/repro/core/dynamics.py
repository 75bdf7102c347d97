"""Best-response dynamics.

The paper's Section 8 asks (open problem) whether the game converges
when players keep improving. This engine runs the dynamics under
configurable schedules and move sets, detects fixed points (with an
exact-method fixed point being a certified Nash equilibrium) and
best-response *cycles* via profile hashing — the phenomenon Laoutaris
et al. demonstrated for their directed variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

import numpy as np

from ..errors import DynamicsError
from ..graphs.digraph import OwnedDigraph
from ..rng import as_generator
from .costs import Version, social_cost
from .deviations import Method, best_response_for, satisfies_lemma_2_2
from .game import BoundedBudgetGame

__all__ = ["Schedule", "MoveRecord", "DynamicsResult", "best_response_dynamics"]

Schedule = Literal["round_robin", "random"]


@dataclass(frozen=True)
class MoveRecord:
    """One strategy change executed during the dynamics."""

    round_index: int
    player: int
    old_strategy: tuple[int, ...]
    new_strategy: tuple[int, ...]
    old_cost: int
    new_cost: int

    @property
    def gain(self) -> int:
        """Cost reduction realised by the move (always positive)."""
        return self.old_cost - self.new_cost


@dataclass
class DynamicsResult:
    """Outcome of a best-response dynamics run.

    Attributes
    ----------
    graph:
        Final realization.
    converged:
        True iff a full round passed with no improving move — with
        ``method="exact"`` this certifies a Nash equilibrium.
    cycled:
        True iff the profile revisited an earlier state (only checked at
        round boundaries).
    rounds:
        Number of completed rounds.
    moves:
        Chronological log of executed strategy changes.
    social_costs:
        Social cost (diameter) after each round, for convergence plots.
    engine_stats:
        Always ``None``: the dynamics keeps no distance cache. The field
        stays only because ``perfbench/layers.py`` reads it; it goes
        with that reader when the benchmark is refreshed (ROADMAP
        item 2).
    """

    graph: OwnedDigraph
    converged: bool
    cycled: bool
    rounds: int
    moves: list[MoveRecord] = field(default_factory=list)
    social_costs: list[int] = field(default_factory=list)
    engine_stats: "dict[str, int] | None" = None

    @property
    def num_moves(self) -> int:
        """Total strategy changes executed."""
        return len(self.moves)


def _player_order(
    n: int, schedule: Schedule, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    while True:
        if schedule == "round_robin":
            yield np.arange(n, dtype=np.int64)
        elif schedule == "random":
            yield rng.permutation(n).astype(np.int64)
        else:  # pragma: no cover - validated upstream
            raise DynamicsError(f"unknown schedule {schedule!r}")


def best_response_dynamics(
    game: BoundedBudgetGame,
    initial: OwnedDigraph,
    version: Version | str,
    *,
    method: Method = "exact",
    schedule: Schedule = "round_robin",
    max_rounds: int = 200,
    seed: int | np.random.Generator | None = 0,
    detect_cycles: bool = True,
    use_lemma: bool = True,
    record_moves: bool = True,
    **kwargs,
) -> DynamicsResult:
    """Run best-response dynamics from ``initial`` until stable.

    Each *round* visits every player once (in schedule order); a player
    with an improving deviation switches to the best strategy the chosen
    ``method`` finds. The run stops when a round executes no move
    (converged), when the profile repeats (cycled), or at ``max_rounds``.

    Parameters
    ----------
    game:
        The game specification; ``initial`` must be one of its
        realizations.
    initial:
        Starting realization (not mutated; the dynamics works on a copy).
    version:
        SUM or MAX.
    method:
        Move set: ``"exact"`` (true best responses), ``"greedy"``, or
        ``"swap"``.
    schedule:
        ``"round_robin"`` (players 0..n-1 in order) or ``"random"``
        (fresh permutation per round).
    max_rounds:
        Hard cap on rounds.
    seed:
        RNG for the random schedule.
    detect_cycles:
        Hash the profile at each round boundary and stop on repetition.
    use_lemma:
        Skip players certified stable by the paper's Lemma 2.2.
    record_moves:
        Keep the full move log (disable to save memory on long runs).
    **kwargs:
        Forwarded to the best-response routine of ``method``.

    Every best-response call builds its own distance engine over
    ``U(G - u)``: a move changes the substrate of every other player, so
    at the sizes dynamics runs a cache would rebuild on nearly every
    access anyway.
    """
    version = Version.coerce(version)
    if schedule not in ("round_robin", "random"):
        raise DynamicsError(f"unknown schedule {schedule!r}; use round_robin/random")
    if max_rounds < 1:
        raise DynamicsError(f"max_rounds must be >= 1, got {max_rounds}")
    game.validate_realization(initial)
    rng = as_generator(seed)
    graph = initial.copy()
    seen: set[tuple[tuple[int, ...], ...]] = set()
    result = DynamicsResult(graph=graph, converged=False, cycled=False, rounds=0)
    if detect_cycles:
        seen.add(graph.profile_key())
    orders = _player_order(game.n, schedule, rng)
    for round_index in range(max_rounds):
        moved = False
        for u in next(orders):
            u = int(u)
            if game.budget(u) == 0:
                continue  # zero-budget players have a unique (empty) strategy
            if use_lemma and satisfies_lemma_2_2(graph, u):
                continue
            br = best_response_for(graph, u, version, method, **kwargs)
            if not br.is_improving:
                continue
            old = tuple(int(v) for v in graph.out_neighbors(u))
            graph.set_strategy(u, br.strategy)
            moved = True
            if record_moves:
                result.moves.append(
                    MoveRecord(
                        round_index=round_index,
                        player=u,
                        old_strategy=old,
                        new_strategy=br.strategy,
                        old_cost=br.current_cost,
                        new_cost=br.cost,
                    )
                )
        result.rounds = round_index + 1
        result.social_costs.append(social_cost(graph))
        if not moved:
            result.converged = True
            break
        if detect_cycles:
            key = graph.profile_key()
            if key in seen:
                result.cycled = True
                break
            seen.add(key)
    result.graph = graph
    return result
