"""dynamics: swap best-response dynamics on a Σb = n-1 (tree-case) game.

One op runs ``best_response_dynamics(..., method="swap")`` from each of
``STARTS`` on one fixed n=80 game, alternating SUM and MAX. The game and
the starts are fixed because single runs range from 0.27 s to 1.9 s
with the instance: a game drawn from the workload seed moved the median
run from 0.47 s to 0.79 s between seeds, far wider than any bound. The
seed only orders the starts inside an op.

Check: the warm-up op's final profiles are certified swap-stable —
``find_improving_deviation(final, u, v, "swap")`` without a cache is
``None`` for every player — and every later op must reproduce exactly
those profiles.
"""

from __future__ import annotations

import random

N = 80
GAME_SEED = 1
STARTS = ((0, "sum"), (1, "max"), (2, "sum"), (3, "max"))
MAX_ROUNDS = 200


def setup_code() -> str:
    return (
        "import repro; "
        f"g = repro.BoundedBudgetGame(repro.random_budgets_with_sum({N}, {N - 1}, seed={GAME_SEED})); "
        f"[g.random_realization(seed=s) for s, _ in {STARTS!r}]; print('ready')"
    )


class Dynamics:
    timing_dependent: "tuple[str, ...]" = ()

    def __init__(self, seed: int) -> None:
        import repro

        self._repro = repro
        self.game = repro.BoundedBudgetGame(
            repro.random_budgets_with_sum(N, N - 1, seed=GAME_SEED)
        )
        order = list(STARTS)
        random.Random(seed).shuffle(order)
        self.runs = [(s, v, self.game.random_realization(seed=s)) for s, v in order]
        self.expected: "dict[int, tuple] | None" = None

    def op(self):
        return [
            (
                s,
                v,
                self._repro.best_response_dynamics(
                    self.game, start, v, method="swap", seed=s, max_rounds=MAX_ROUNDS
                ),
            )
            for s, v, start in self.runs
        ]

    def _certify(self, result, version: str) -> bool:
        find = self._repro.find_improving_deviation
        graph = result.graph
        return result.converged and all(
            find(graph, u, version, "swap") is None for u in range(graph.n)
        )

    def check(self, out) -> "tuple[int, int]":
        if self.expected is None:
            self.expected = {
                s: result.graph.profile_key()
                for s, v, result in out
                if self._certify(result, v)
            }
        failed = sum(
            1
            for s, _, result in out
            if not result.converged or self.expected.get(s) != result.graph.profile_key()
        )
        return len(out), failed

    def describe(self) -> str:
        return f"op = swap dynamics from {len(self.runs)} starts, n={N}"
