"""Exact equilibrium census of tiny games.

Complements the asymptotic Table 1 experiments with *exact* prices of
anarchy and stability at sizes where the complete profile space is
enumerable: every equilibrium is found, every structure theorem is
checked over the whole space rather than sampled. This is the
strongest form of machine verification the paper admits.

Runs on the incremental Gray-order census kernel
(:func:`repro.core.enumeration.census_scan`): one engine-repaired pass
per (instance, version) computes the prices *and* collects the
equilibria, with symmetry orbit pruning on by default and optional
sharded workers — the numbers are bit-identical to the rebuild-per-
profile brute force, just fast enough to put unit ``n = 6`` in reach.

``weighted=True`` (CLI: ``--weighted``) additionally runs the Section 6
battery: for each weighted instance the same Gray walk counts the
profiles that are *weighted weak equilibria* (stable under weighted
single-arc swaps) via :func:`repro.core.enumeration.weighted_census_scan`,
with every distance query riding the weighted engine's delta repairs.
"""

from __future__ import annotations

from repro.analysis.structure import check_unit_structure

from ..core.enumeration import (
    census_scan,
    profile_space_size,
    sampled_census_scan,
    weighted_census_scan,
)
from ..core.game import BoundedBudgetGame
from ..core.isomorphism import count_isomorphism_classes
from .table1 import ExperimentReport

__all__ = [
    "exact_census_experiment",
    "DEFAULT_INSTANCES",
    "GOLDEN_INSTANCES",
    "WEIGHTED_INSTANCES",
]

#: Tiny instances spanning the paper's regimes: unit budgets, a tree
#: game, a zero-budget mix, and a disconnected game. Small enough that
#: the rebuild-per-profile brute force is still affordable — which is
#: why the bit-identity golden suites sweep exactly this battery.
GOLDEN_INSTANCES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("unit n=3", (1, 1, 1)),
    ("unit n=4", (1, 1, 1, 1)),
    ("unit n=5", (1, 1, 1, 1, 1)),
    ("tree n=4", (2, 1, 0, 0)),
    ("mixed n=4", (2, 1, 1, 0)),
    ("disconnected n=4", (0, 0, 1, 0)),
)

#: The default ``EXACT-tiny`` battery: the golden instances plus the
#: games the incremental kernel unlocked — unit ``n = 6`` (15625
#: profiles, infeasible on the rebuild-per-profile path, ~0.2 s with
#: symmetry pruning) and a richer mixed-budget game (~2 s for the whole
#: battery).
DEFAULT_INSTANCES: tuple[tuple[str, tuple[int, ...]], ...] = GOLDEN_INSTANCES + (
    ("unit n=6", (1, 1, 1, 1, 1, 1)),
    ("mixed n=5", (2, 2, 1, 1, 0)),
)

#: Section 6 battery: ``(label, budgets, vertex weights)`` triples for
#: the weighted weak-equilibrium census. Spans a heavy hub, a weighted
#: mixed-budget game, a weight-0 ghost, and a full unit-budget space
#: with pairwise-distinct weights (no two profiles symmetric).
WEIGHTED_INSTANCES: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("w-unit n=4 hub", (1, 1, 1, 1), (5, 1, 1, 1)),
    ("w-mixed n=4", (2, 1, 1, 0), (3, 1, 1, 1)),
    ("w-ghost n=4", (1, 1, 1, 0), (2, 1, 1, 0)),
    ("w-unit n=5 ramp", (1, 1, 1, 1, 1), (1, 2, 3, 4, 5)),
)


def _scan_slug(label: str, version: str) -> str:
    """Filesystem-safe checkpoint subdirectory name of one scan."""
    safe = "".join(c if c.isalnum() or c in "-." else "-" for c in label)
    return f"{safe}-{version}"


def exact_census_experiment(
    instances: "tuple[tuple[str, tuple[int, ...]], ...]" = DEFAULT_INSTANCES,
    *,
    max_profiles: int = 600_000,
    workers: int = 1,
    symmetry: bool = True,
    weighted: bool = False,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    samples: "int | None" = None,
    seed: int = 0,
    sample_method: str = "stratified",
    confidence: float = 0.95,
) -> ExperimentReport:
    """Exhaustive equilibrium census over a battery of tiny games.

    For each instance and version reports the number of equilibria, the
    exact PoA and PoS, and (for unit-budget games) confirms the Section
    4 structure theorems on *every* equilibrium. ``workers`` shards the
    profile rank space across processes; ``symmetry`` prunes to orbit
    representatives — neither knob changes a single reported number.
    ``weighted=True`` (CLI: ``--weighted``) appends the Section 6
    weighted weak-equilibrium census over :data:`WEIGHTED_INSTANCES`.

    ``checkpoint_dir`` (CLI: ``--checkpoint-dir``) runs every scan on
    the fault-tolerant checkpointed runtime, journaling each
    (instance, version) scan into its own subdirectory so an
    interrupted battery can be rerun with ``resume=True`` (CLI:
    ``--resume``): finished scans replay from their ``done`` records,
    the interrupted one continues mid-shard, and the reported numbers
    are bit-identical to an uninterrupted run.

    ``samples`` (CLI: ``--sample N``) appends a **Monte Carlo sampled
    census** row per (instance, version): ``N`` profiles drawn per
    ``sample_method`` from ``seed`` (CLI: ``--seed``), reporting the
    estimated equilibrium count and PoA with ``confidence``-level
    (CLI: ``--confidence``) Wilson / bootstrap intervals — the regime
    past exhaustive reach, cross-checkable against the exact rows here.
    """
    import os

    from ..core.checkpoint import MANIFEST_NAME

    def _scan_kwargs(label: str, version: str) -> dict:
        if checkpoint_dir is None:
            return {}
        subdir = os.path.join(checkpoint_dir, _scan_slug(label, version))
        # A battery interrupted before reaching this scan has no
        # manifest here yet: resume it as a fresh run instead of
        # refusing the whole battery.
        return {
            "checkpoint_dir": subdir,
            "resume": resume and os.path.exists(os.path.join(subdir, MANIFEST_NAME)),
        }

    report = ExperimentReport(
        experiment_id="EXACT-tiny",
        title="Exact equilibrium census of tiny games (full enumeration)",
        paper_claim="Thm 2.3: equilibria always exist; Thms 4.1/4.2 structure "
        "holds for every unit-budget equilibrium; PoS small",
    )
    for label, budgets in instances:
        game = BoundedBudgetGame(list(budgets))
        space = profile_space_size(game)
        for version in ("sum", "max"):
            result = census_scan(
                game,
                version,
                max_profiles=max_profiles,
                workers=workers,
                symmetry=symmetry,
                collect_equilibria=True,
                **_scan_kwargs(label, version),
            )
            census = result.report
            eqs = result.equilibrium_graphs()
            structure_ok = "-"
            classes = "-"
            if game.n <= 6:
                classes = count_isomorphism_classes(eqs)
            if game.is_unit_game:
                structure_ok = all(
                    check_unit_structure(g).satisfies(version) for g in eqs
                )
            report.rows.append(
                {
                    "instance": label,
                    "version": version,
                    "profiles": space,
                    "equilibria": census.num_equilibria,
                    "eq_classes": classes,
                    "opt_diam": census.opt_diameter,
                    "PoA": str(census.poa),
                    "PoS": str(census.pos),
                    "structure_thms": structure_ok,
                }
            )
            if census.num_equilibria == 0:
                report.notes.append(f"{label}/{version}: NO equilibrium — violates Thm 2.3!")
            if samples:
                # Stratified draws take one rank per stratum, so tiny
                # instances cap the draw at their whole profile space
                # (where the "estimate" is simply exact).
                eff_samples = (
                    min(samples, space) if sample_method != "uniform" else samples
                )
                sampled = sampled_census_scan(
                    game,
                    version,
                    samples=eff_samples,
                    seed=seed,
                    method=sample_method,
                    confidence=confidence,
                    workers=workers,
                    **_scan_kwargs(label, f"{version}-sampled"),
                )
                lo_ci, hi_ci = sampled.eq_count_ci
                report.rows.append(
                    {
                        "instance": label,
                        "version": f"{version}/sampled",
                        "profiles": f"{eff_samples} of {sampled.total_profiles}",
                        "equilibria": f"~{sampled.eq_count_estimate:.0f} "
                        f"[{lo_ci:.0f}, {hi_ci:.0f}]",
                        "eq_classes": "-",
                        "opt_diam": sampled.opt_diameter_seen,
                        "PoA": f">={sampled.poa_estimate}"
                        if sampled.poa_estimate is not None
                        else "-",
                        "PoS": "-",
                        "structure_thms": "-",
                    }
                )
                if not (lo_ci <= census.num_equilibria <= hi_ci):
                    report.notes.append(
                        f"{label}/{version}: sampled census CI "
                        f"[{lo_ci:.1f}, {hi_ci:.1f}] misses the exact "
                        f"count {census.num_equilibria}"
                    )
    if weighted:
        for label, budgets, w in WEIGHTED_INSTANCES:
            game = BoundedBudgetGame(list(budgets))
            wc, _ = weighted_census_scan(
                game,
                w,
                max_profiles=max_profiles,
                workers=workers,
                **_scan_kwargs(label, "weak"),
            )
            report.rows.append(
                {
                    "instance": f"{label} w={list(w)}",
                    "version": "sum/weak",
                    "profiles": wc.num_profiles,
                    "equilibria": wc.num_weak_equilibria,
                    "eq_classes": "-",
                    "opt_diam": wc.opt_diameter,
                    "PoA": str(wc.poa),
                    "PoS": str(wc.pos),
                    "structure_thms": "-",
                }
            )
            if wc.num_weak_equilibria == 0:
                report.notes.append(
                    f"{label}: no weighted weak equilibrium in the profile space"
                )
    return report
