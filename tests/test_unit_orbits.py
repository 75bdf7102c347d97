"""The unit-budget orbit generator and the census it serves.

:func:`repro.core.unit_orbits.unit_orbits` lists one profile per
``Sym(n)`` orbit of a unit-budget game. These tests pin the orbit counts
to OEIS A001373, check the representatives and orbit sizes against a
brute-force relabeling at small ``n``, and gate the generated census
against the Gray walk it replaces for unit games: the walk is driven
directly through ``_census_shard`` with symmetry on, so the reports and
the collected equilibrium sets of both must be equal.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import (
    BoundedBudgetGame,
    Version,
    census_scan,
    last_census_runtime_stats,
)
from repro.core.enumeration import _census_shard, _merge_unit_parts
from repro.core.unit_orbits import MAX_UNIT_ORBIT_N, unit_orbits
from repro.errors import GameError
from repro.parallel import Fault, FaultPlan

#: OEIS A001373: functional digraphs on n unlabeled nodes without fixed
#: points, n = 2..11.
A001373 = (1, 2, 6, 13, 40, 100, 291, 797, 2273, 6389)


@pytest.mark.parametrize("n", range(2, 12))
def test_orbit_counts_match_a001373(n):
    targets, sizes = unit_orbits(n)
    assert targets.shape == (A001373[n - 2], n)
    assert int(sizes.sum()) == (n - 1) ** n
    # Every representative is a unit profile: one arc each, no loop.
    assert (targets != np.arange(n)).all()
    assert ((targets >= 0) & (targets < n)).all()


def _canonical(targets, perms) -> tuple:
    """Least relabeling of a unit profile, and the number of distinct ones."""
    images = set()
    for perm in perms:
        row = [0] * len(targets)
        for i, t in enumerate(targets):
            row[perm[i]] = perm[t]
        images.add(tuple(row))
    return min(images), len(images)


@pytest.mark.parametrize("n", range(2, 7))
def test_orbits_are_distinct_and_sized_by_brute_relabeling(n):
    targets, sizes = unit_orbits(n)
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for row, size in zip(targets.tolist(), sizes.tolist()):
        key, orbit = _canonical(row, perms)
        assert orbit == size
        assert key not in seen
        seen.add(key)


def _walk(n: int, version: str, collect: bool):
    """The symmetric Gray walk over the whole unit space, in-process."""
    total = (n - 1) ** n
    part = _census_shard(((1,) * n, version, 0, total, True, collect, total))
    return _merge_unit_parts(
        [part], version=Version.coerce(version), total=total, collect=collect
    )


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("version", ["sum", "max"])
def test_generator_matches_walk(n, version):
    game = BoundedBudgetGame([1] * n)
    got = census_scan(
        game, version, symmetry=True, collect_equilibria=True, max_profiles=10**6
    )
    report, equilibria = _walk(n, version, collect=True)
    assert got.report == report
    assert got.equilibria == equilibria
    assert got.incomplete is None
    if n <= 6:
        plain = census_scan(
            game, version, collect_equilibria=True, max_profiles=10**6
        )
        assert plain.report == got.report
        assert plain.equilibria == got.equilibria


def test_generator_ignores_workers_and_checkpoints(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    ref = census_scan(game, "max", symmetry=True, collect_equilibria=True)
    got = census_scan(
        game,
        "max",
        symmetry=True,
        collect_equilibria=True,
        workers=3,
        checkpoint_dir=tmp_path / "ckpt",
    )
    assert got == ref
    assert last_census_runtime_stats() == {}
    assert not (tmp_path / "ckpt").exists()  # no manifest, no journal
    resumed = census_scan(
        game, "max", symmetry=True, checkpoint_dir=tmp_path / "ckpt", resume=True
    )
    assert resumed.report == ref.report


def test_generator_refuses_beyond_its_cap():
    n = MAX_UNIT_ORBIT_N + 1
    with pytest.raises(GameError, match=f"n <= {MAX_UNIT_ORBIT_N}"):
        census_scan(BoundedBudgetGame([1] * n), "sum", symmetry=True, max_profiles=10**20)
    with pytest.raises(GameError, match=f"n <= {MAX_UNIT_ORBIT_N}"):
        unit_orbits(n)


def test_generator_keeps_the_profile_cap():
    game = BoundedBudgetGame([1] * 7)
    with pytest.raises(GameError, match="profile space has 279936"):
        census_scan(game, "sum", symmetry=True, max_profiles=279_935)


def test_generator_refuses_shard_knobs(tmp_path):
    game = BoundedBudgetGame([1] * 5)
    plan = FaultPlan(faults=(Fault(kind="kill", shard_id=0, rank=10),))
    for kwargs in ({"fault_plan": plan}, {"shard_count": 2}):
        with pytest.raises(GameError, match="name shards"):
            census_scan(game, "sum", symmetry=True, checkpoint_dir=tmp_path, **kwargs)


def test_generator_refuses_collection_above_n9():
    game = BoundedBudgetGame([1] * 10)
    with pytest.raises(GameError, match="capped at n = 9"):
        census_scan(
            game, "max", symmetry=True, collect_equilibria=True, max_profiles=10**10
        )
