"""census-sym and census-eval: exact equilibrium censuses through ``census_scan``.

One op is the census of one game in both versions, back to back, so
every op does the same work whatever the seed; the seed only picks
which version runs first. Every census is checked against its golden
(count, opt, best, worst).
"""

from __future__ import annotations

import shutil

import harness

#: version -> (equilibria, opt diameter, best eq diameter, worst eq diameter)
SYM_GOLDEN = {"max": (10212, 2, 2, 3), "sum": (210, 2, 2, 2)}
EVAL_GOLDEN = {"sum": (42, 2, 2, 3), "max": (45, 2, 2, 3)}
SYM_BUDGETS = [1] * 7
EVAL_BUDGETS = [2, 1, 1, 1, 0]
SYM_PROFILES = 279_936
EVAL_PROFILES = 384


def _versions(seed: int) -> "tuple[str, str]":
    return ("max", "sum") if seed % 2 == 0 else ("sum", "max")


def setup_code(kind: str) -> str:
    budgets = SYM_BUDGETS if kind == "census-sym" else EVAL_BUDGETS
    return f"import repro; repro.BoundedBudgetGame({budgets!r}); print('ready')"


def _summary(result) -> "tuple[int, ...]":
    r = result.report
    return (
        r.num_equilibria,
        r.opt_diameter,
        r.best_equilibrium_diameter,
        r.worst_equilibrium_diameter,
    )


class Census:
    """The op and the check of one census workload."""

    #: The shard engine runs with ``dirty_fraction="adaptive"``, which
    #: times its own repairs to choose repair vs rebuild, so these
    #: counts move with machine speed and are not asserted to repeat.
    timing_dependent = tuple(
        f"engine.{k}"
        for k in ("rebuilds", "deltas", "pendant_fixes", "region_repairs", "rows_recomputed")
    )

    def __init__(self, kind: str, seed: int) -> None:
        import repro
        from repro.core import enumeration

        self.kind = kind
        self.symmetric = kind == "census-sym"
        self.versions = _versions(seed)
        self.golden = SYM_GOLDEN if self.symmetric else EVAL_GOLDEN
        budgets = SYM_BUDGETS if self.symmetric else EVAL_BUDGETS
        self.game = repro.BoundedBudgetGame(budgets)
        self.profiles = SYM_PROFILES if self.symmetric else EVAL_PROFILES
        self._enumeration = enumeration
        self._ckpt = 0
        if not self.symmetric:
            # The goldens must agree with the rebuild-per-profile reference.
            for v in self.versions:
                eq = enumeration.enumerate_equilibria(self.game, v, incremental=False)
                if len(eq) != self.golden[v][0]:
                    raise RuntimeError(
                        f"{kind}: reference finds {len(eq)} {v} equilibria, "
                        f"golden says {self.golden[v][0]}"
                    )

    def op(self):
        out = []
        for v in self.versions:
            kwargs = {"symmetry": self.symmetric, "workers": 1}
            if not self.symmetric:
                self._ckpt += 1
                kwargs["checkpoint_dir"] = str(harness.OUT / f"ckpt-{self._ckpt}")
            # Looked up on the module at call time so traced runs see wrappers.
            out.append((v, self._enumeration.census_scan(self.game, v, **kwargs)))
        return out

    def check(self, out) -> "tuple[int, int]":
        failed = 0
        for v, result in out:
            if result.incomplete is not None or _summary(result) != self.golden[v]:
                failed += 1
        if not self.symmetric:
            for i in range(self._ckpt - len(out) + 1, self._ckpt + 1):
                shutil.rmtree(harness.OUT / f"ckpt-{i}", ignore_errors=True)
        return len(self.versions), failed

    def describe(self) -> str:
        return f"op = {' + '.join(self.versions)} census, {self.profiles} profiles each"
