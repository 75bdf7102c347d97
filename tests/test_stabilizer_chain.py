"""Stabilizer-chain canonicalization against whole-group references.

Pits :class:`~repro.core.isomorphism.BudgetStabilizerChain` — the
batched minimal-image engine behind the census's exact survivor
recheck — against two independent oracles: a brute-force enumeration
of the budget-preserving group (tiny ``n``) and the retained
whole-group gather reference inside :class:`_OrbitKeys`. Also pins the
chain-aligned cell order contract, the single-source symmetry-cap
message at every call site, and resuming symmetric shards from
journals whose records still carry orbit probe keys.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import RECORD_MAGIC, ShardCheckpoint, encode_record
from repro.core.enumeration import _budget_symmetry_group, _OrbitKeys, census_scan
from repro.core.game import BoundedBudgetGame
from repro.core.isomorphism import (
    _MAX_SYMMETRY_N,
    BudgetStabilizerChain,
    chain_cell_positions,
)
from repro.errors import GameError


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
    min_key, stab = chain.minimal_images(adjs)
    for k in range(adjs.shape[0]):
        keys = {chain.key_of(_relabel(adjs[k], p)) for p in perms}
        distinct = {
            tuple(map(tuple, _relabel(adjs[k], p))) for p in perms
        }
        assert min(keys) == int(min_key[k])
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
        key = chain.key_of(adj)
        ref = orbit._reference_orbit_size(key)
        got = int(orbit._exact_orbit_sizes(np.asarray([key], dtype=np.uint64))[0])
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
    with pytest.raises(GameError, match="64-bit"):
        BudgetStabilizerChain([0] * 9)


def test_symmetry_cap_message_identical_at_both_call_sites():
    """The one-word key cap raises the same message from every entry
    point: the census, the orbit keys and the chain.

    Probed on a non-unit class: symmetric unit games never reach the
    walk (they run on the orbit generator)."""
    n = _MAX_SYMMETRY_N + 1
    assert n == 9
    game = BoundedBudgetGame([2] + [1] * (n - 1))
    with pytest.raises(GameError, match="64-bit") as via_scan:
        census_scan(game, "sum", symmetry=True, max_profiles=10**15)
    with pytest.raises(GameError, match="64-bit") as via_orbit:
        _OrbitKeys(n, np.arange(n, dtype=np.int64)[None, :])
    with pytest.raises(GameError, match="64-bit") as via_chain:
        BudgetStabilizerChain(game.budgets)
    assert str(via_scan.value) == str(via_orbit.value) == str(via_chain.value)
    assert f"capped at n = {_MAX_SYMMETRY_N}" in str(via_scan.value)


# ----------------------------------------------------------------------
# Journals whose records carry orbit probe keys
# ----------------------------------------------------------------------
#: The first mid-range record the per-rank Gray stream walk (before the
#: block decoder) journalled for the unit n = 6 max census shard
#: ``[0, 15625)`` at checkpoint interval 4000: counters and probe keys
#: after rank 4096, the end of the walk's second orbit block. Its
#: ``orbit_vals`` are format 2, the interleaved ``(hi, lo)`` words of
#: each probe key, as journals carried them before the walk stopped
#: journaling orbit state.
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


_STREAM_WALK_SHARD = dict(shard_id=0, lo=0, hi=15625)


def _frame(payload: dict) -> bytes:
    """One journal frame around ``payload``, laid out as encode_record's."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return RECORD_MAGIC + struct.pack("<II", len(data), zlib.crc32(data)) + data + b"\n"


def _v1_orbit_vals(vals: "tuple[int, ...]", n: int = 6) -> "tuple[int, ...]":
    """Format-2 probe keys as v1 ones: one row-major word per probe, arc
    ``(a, b)`` at bit ``a*n + b`` (the hi words are 0 at n = 6)."""
    pos = chain_cell_positions(n)
    return tuple(
        sum(
            1 << (a * n + b)
            for a in range(n)
            for b in range(n)
            if (lo >> int(pos[a, b])) & 1
        )
        for lo in vals[1::2]
    )


def test_stream_walk_journal_resumes_bit_identically(tmp_path):
    """Symmetric shard journals written mid-range with orbit probe keys
    in them (format 2, and v1 with no format field) resume on the block
    decoder to the uninterrupted run's result and journal: decoding
    drops the orbit fields and the walk recomputes its probe keys."""
    from repro.core.checkpoint import replay_journal
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
            (r.next_rank, r.done, dict(r.counters))
            for r in replay_journal(ctx_path).records
        ]
        return part, rows

    fresh, fresh_rows = journal(tmp_path / "fresh.journal")
    record = ShardCheckpoint(
        **_STREAM_WALK_SHARD,
        next_rank=_STREAM_WALK_RECORD["next_rank"],
        counters=_STREAM_WALK_RECORD["counters"],
    )
    assert fresh_rows[0] == (record.next_rank, False, dict(record.counters))
    vals = _STREAM_WALK_RECORD["orbit_vals"]
    base = json.loads(encode_record(record)[len(RECORD_MAGIC) + 8 : -1])
    frames = {
        "format2": {**base, "orbit_vals": list(vals), "orbit_key_format": 2},
        "v1": {**base, "orbit_vals": list(_v1_orbit_vals(vals))},
    }
    for name, obj in frames.items():
        old = tmp_path / f"{name}.old.journal"
        old.write_bytes(_frame(obj))
        decoded = replay_journal(old).last
        assert decoded == record, name
        resumed, resumed_rows = journal(tmp_path / f"{name}.journal", decoded)
        assert resumed == fresh, name
        assert resumed_rows == fresh_rows[1:], name
    assert fresh["count"] == 15625 and fresh["eq_count"] == 480
