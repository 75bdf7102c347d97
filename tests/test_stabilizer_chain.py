"""Stabilizer-chain canonicalization against whole-group references.

Pits :class:`~repro.core.isomorphism.BudgetStabilizerChain` — the
batched minimal-image engine behind the census's exact survivor
recheck — against two independent oracles: a brute-force enumeration
of the budget-preserving group (tiny ``n``) and the retained
whole-group gather reference inside :class:`_OrbitKeys`. Also pins the
chain-aligned cell order contract, the single-source symmetry-cap
message at both call sites, and the v1 -> v2 orbit-key checkpoint
migration (including its loud-failure paths).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import (
    _MAX_SYMMETRY_N,
    _budget_symmetry_group,
    _OrbitKeys,
    census_scan,
)
from repro.core.game import BoundedBudgetGame
from repro.core.isomorphism import BudgetStabilizerChain, chain_cell_positions
from repro.errors import CheckpointError, GameError


def _label_group(labels: "list[int]") -> "list[np.ndarray]":
    """Brute-force: every permutation preserving the label vector."""
    n = len(labels)
    out = []
    for perm in itertools.permutations(range(n)):
        if all(labels[perm[i]] == labels[i] for i in range(n)):
            out.append(np.asarray(perm, dtype=np.int64))
    return out


def _relabel(adj: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``A'[a, b] = A[perm[a], perm[b]]`` — the chain's convention."""
    return adj[np.ix_(perm, perm)]


@st.composite
def _labels_and_adjs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    adjs = rng.random((6, n, n)) < 0.4
    for k in range(adjs.shape[0]):
        np.fill_diagonal(adjs[k], False)
    return labels, adjs


@settings(max_examples=60, deadline=None)
@given(_labels_and_adjs())
def test_minimal_images_match_brute_force(case):
    labels, adjs = case
    chain = BudgetStabilizerChain(labels)
    perms = _label_group(labels)
    assert chain.order == len(perms)
    min_hi, min_lo, stab = chain.minimal_images(adjs)
    for k in range(adjs.shape[0]):
        keys = {chain.key_of(_relabel(adjs[k], p)) for p in perms}
        distinct = {
            tuple(map(tuple, _relabel(adjs[k], p))) for p in perms
        }
        assert min(keys) == (int(min_hi[k]), int(min_lo[k]))
        assert chain.order // int(stab[k]) == len(distinct)


@settings(max_examples=40, deadline=None)
@given(
    budgets=st.lists(
        st.integers(min_value=0, max_value=2), min_size=3, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_exact_stage_matches_whole_group_reference(budgets, seed):
    """Chain recheck == retained pre-chain whole-group gather."""
    n = len(budgets)
    perms = _budget_symmetry_group(budgets)
    orbit = _OrbitKeys(n, perms)
    if not orbit._exact:
        return  # group == probe set: the walk never reaches the exact stage
    chain = BudgetStabilizerChain(budgets)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        adj = rng.random((n, n)) < 0.4
        np.fill_diagonal(adj, False)
        hi, lo = chain.key_of(adj)
        ref = orbit._reference_orbit_size(hi, lo)
        got = int(
            orbit._exact_orbit_sizes(
                np.asarray([hi], dtype=np.uint64),
                np.asarray([lo], dtype=np.uint64),
            )[0]
        )
        assert got == (0 if ref is None else ref)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_chain_cell_positions_contract(n):
    pos = chain_cell_positions(n)
    flat = np.sort(pos.ravel())
    assert np.array_equal(flat, np.arange(n * n))  # a bijection
    diag = np.sort(np.diagonal(pos))
    assert np.array_equal(diag, np.arange(n))  # diagonals least significant
    # Off-diagonal significance descends in (min(a,b), a*n+b) order, so
    # each chain level's revealed cells form one contiguous run.
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    cells.sort(key=lambda ab: (min(ab), ab[0] * n + ab[1]), reverse=True)
    got = [int(pos[a, b]) for a, b in cells]
    assert got == list(range(n * n - 1, n - 1, -1))


def test_chain_rejects_oversized_n():
    with pytest.raises(GameError, match="two 64-bit words"):
        BudgetStabilizerChain([0] * 12)


def test_symmetry_cap_message_identical_at_both_call_sites():
    """The 128-bit cap raises the same message from both entry points.

    Probed on a non-unit class: symmetric unit games never reach the
    walk (they run on the orbit generator)."""
    n = _MAX_SYMMETRY_N + 1
    game = BoundedBudgetGame([2] + [1] * (n - 1))
    with pytest.raises(GameError, match="128-bit") as via_scan:
        census_scan(game, "sum", symmetry=True, max_profiles=10**15)
    with pytest.raises(GameError, match="128-bit") as via_orbit:
        _OrbitKeys(n, np.arange(n, dtype=np.int64)[None, :])
    assert str(via_scan.value) == str(via_orbit.value)
    assert f"capped at n = {_MAX_SYMMETRY_N}" in str(via_scan.value)


# ----------------------------------------------------------------------
# Orbit-key checkpoint format migration (v1 -> v2)
# ----------------------------------------------------------------------
def _toggled_orbit(budgets: "list[int]") -> _OrbitKeys:
    game = BoundedBudgetGame(budgets)
    orbit = _OrbitKeys(game.n, _budget_symmetry_group(budgets))
    rng = np.random.default_rng(7)
    for a in range(game.n):
        for b in range(game.n):
            if a != b and rng.random() < 0.4:
                orbit.toggle(a, b, True)
    return orbit


def _v1_vector(orbit: _OrbitKeys) -> "tuple[int, ...]":
    """The row-major 64-bit probe vector the pre-128-bit code wrote."""
    n = orbit._n
    state = orbit.export_state()
    out = []
    for hi, lo in zip(state[0::2], state[1::2]):
        adj = orbit._adjs_from_keys(
            np.asarray([hi], dtype=np.uint64),
            np.asarray([lo], dtype=np.uint64),
        )[0]
        out.append(
            sum(1 << (int(a) * n + int(b)) for a, b in zip(*np.nonzero(adj)))
        )
    return tuple(out)


def test_v1_state_migrates_to_identical_probe_keys():
    orbit = _toggled_orbit([1, 1, 1, 1])
    fresh = _OrbitKeys(4, _budget_symmetry_group([1, 1, 1, 1]))
    fresh.restore_state(_v1_vector(orbit), key_format=1)
    assert np.array_equal(fresh._vals_hi, orbit._vals_hi)
    assert np.array_equal(fresh._vals_lo, orbit._vals_lo)


def test_v2_state_round_trips():
    orbit = _toggled_orbit([2, 2, 1, 1, 0])
    fresh = _OrbitKeys(5, _budget_symmetry_group([2, 2, 1, 1, 0]))
    fresh.restore_state(orbit.export_state(), key_format=2)
    assert np.array_equal(fresh._vals_hi, orbit._vals_hi)
    assert np.array_equal(fresh._vals_lo, orbit._vals_lo)


def test_v1_state_fails_loudly_when_keys_cannot_fit():
    budgets = [1] * 8 + [0]  # n = 9: n^2 = 81 > 64
    orbit = _OrbitKeys(9, _budget_symmetry_group(budgets))
    probes = orbit._vals_hi.shape[0]
    with pytest.raises(CheckpointError, match="v1 \\(64-bit\\) orbit keys"):
        orbit.restore_state((0,) * probes, key_format=1)


def test_restore_state_rejects_unknown_format_and_bad_lengths():
    orbit = _OrbitKeys(4, _budget_symmetry_group([1, 1, 1, 1]))
    probes = orbit._vals_hi.shape[0]
    with pytest.raises(CheckpointError, match="unknown orbit key format"):
        orbit.restore_state((0,) * (2 * probes), key_format=3)
    with pytest.raises(CheckpointError, match="words"):
        orbit.restore_state((0,) * (2 * probes + 1), key_format=2)
    with pytest.raises(CheckpointError, match="probe keys"):
        orbit.restore_state((0,) * (probes + 1), key_format=1)


#: The first mid-range record the per-rank Gray stream walk (before the
#: block decoder) journalled for the unit n = 6 max census shard
#: ``[0, 15625)`` at checkpoint interval 4000: counters and probe keys
#: after rank 4096, the end of the walk's second orbit block.
_STREAM_WALK_RECORD = dict(
    next_rank=4097,
    counters={"best_eq": 2, "count": 4920, "eq_count": 480, "opt": 2, "worst_eq": 3},
    orbit_vals=(
        0, 9680732288, 0, 9684713984, 0, 9932378368, 0, 4429484544,
        0, 8875158016, 0, 18807521536, 0, 9697378368, 0, 1083457664,
        0, 8613005440, 0, 35450404992, 0, 704921856, 0, 13019189760,
        0, 9680733184, 0, 38688399488, 0, 36574609536, 0, 6459785344,
    ),
)


def test_stream_walk_journal_resumes_bit_identically(tmp_path):
    """A symmetric shard journal written mid-range by the per-rank
    stream walk resumes on the block decoder to the uninterrupted
    run's result and journal."""
    from repro.core.checkpoint import ShardCheckpoint, replay_journal
    from repro.core.enumeration import _ORBIT_BLOCK, _census_shard
    from repro.parallel.runtime import ShardContext

    payload = ((1,) * 6, "max", 0, 15625, True, False, 500_000)
    assert (_STREAM_WALK_RECORD["next_rank"] - 1) % _ORBIT_BLOCK == 0

    def journal(ctx_path, record=None):
        ctx = ShardContext(
            shard_id=0,
            attempt=0,
            interval=4000,
            journal_path=ctx_path,
            resume_state=record,
        )
        part = _census_shard(payload, ctx)
        rows = [
            (r.next_rank, r.done, dict(r.counters), r.orbit_vals)
            for r in replay_journal(ctx_path).records
        ]
        return part, rows

    fresh, fresh_rows = journal(tmp_path / "fresh.journal")
    record = ShardCheckpoint(shard_id=0, lo=0, hi=15625, **_STREAM_WALK_RECORD)
    resumed, resumed_rows = journal(tmp_path / "resumed.journal", record)
    assert fresh_rows[0] == (
        record.next_rank, False, dict(record.counters), record.orbit_vals
    )
    assert resumed == fresh
    assert resumed_rows == fresh_rows[1:]
    assert fresh["count"] == 15625 and fresh["eq_count"] == 480
