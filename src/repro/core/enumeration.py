"""Exhaustive enumeration of strategy profiles and equilibria.

For tiny instances the full profile space ``prod_i C(n-1, b_i)`` is
enumerable, which buys three things the asymptotic machinery cannot:

* the *exact* optimal social cost (min diameter over realizations),
* the *complete* set of pure Nash equilibria, hence exact price of
  anarchy and price of stability (not intervals),
* exhaustive checks of the structure theorems ("every unit-budget
  equilibrium at n = 5 is unicyclic with cycle ≤ 5" verified over the
  whole space rather than sampled).

Incremental census design
-------------------------
The kernel walks the profile space in **Gray order**: each player's
strategy space is laid out in *revolving-door* order (consecutive
``C(n-1, b)`` combinations differ by dropping one target and adding
one), and the per-player sequences are composed with a reflected
mixed-radix Gray code, so consecutive profiles of the whole walk differ
by exactly one arc swap of one player.

The unit census never materialises a graph or repairs a distance
engine. It hands blocks of Gray digit rows to the batched bitset
evaluator :func:`~repro.core.census_eval.evaluate_block`: every vertex's
neighbourhood is one ``int64`` mask (so ``n <= 63``), a BFS is a loop
of OR levels, and a profile is a Nash equilibrium iff each player's
cost is no larger than its cost at every one of its ``C(n-1, b_i)``
strategies — all other profiles on the player's axis of the profile
space, evaluated as one batch. That is the exact equilibrium test, with
no best-response search and no Lemma 2.2 screen. The sampled census
evaluates its drawn profiles the same way, and the weighted census
(:func:`weighted_census_scan`) does too, with weighted SUM costs and
each active player's single-arc swap neighbours in place of its whole
strategy axis (:func:`~repro.core.census_eval.evaluate_weighted_block`).

**Symmetry pruning** (``symmetry=True``): players with equal budgets
induce profile-space orbits under the budget-preserving relabeling
group ``∏ Sym(budget class)``. Diameter and equilibrium membership are
orbit invariants, so the census evaluates one representative per orbit,
weights it by the orbit size, and is bit-identical with pruning on or
off. Two paths find the representatives:

* **Unit budgets** (every budget 1): the orbits under ``Sym(n)`` are
  the unlabeled functional digraphs without fixed points, which
  :mod:`repro.core.unit_orbits` generates directly, with their orbit
  sizes and no canonicity test (:func:`_unit_orbit_census`). This path
  runs in one process with no shards and no journal, for ``n <= 13``.
* **Every other budget class** walks the Gray order. A profile is
  *canonical* when its ownership-adjacency bit key is minimal over its
  orbit; the walk keeps a probe subset of the relabeled keys up to date
  a block of Gray steps at a time (:class:`_OrbitKeys`), evaluates only
  canonical representatives, and multiplies their contributions by the
  orbit size ``|group| / |stabilizer|``.

**Block decoding**: the exhaustive walks unrank whole blocks of Gray
ranks with numpy (:func:`_gray_blocks`) and read each step's player
and ``(dropped, added)`` pair off the digit block, so ranks are
``int64`` and these walks refuse profile spaces of ``2**63`` or more.

**Sharding** (``workers > 1``): the Gray rank space of a walk splits into
contiguous ranges (one unranking per shard, then stepping), dispatched
through :func:`~repro.parallel.executor.parallel_map`; the merge of
shard partials is order-independent, so reports are identical for any
worker count.

**Key format**: the symmetric walk packs each relabeled profile
into **one** ``uint64`` **key**: cell ``(a, b)`` is bit
:func:`~repro.core.isomorphism.chain_cell_positions` ``[a, b]``, so the
walk serves ``n^2 <= 64`` (``n <= 8``). That covers the non-unit
budget classes it can finish: ``[2,1,1,1,1,1,1,1,1]`` already has
28·8^8 ≈ 4.7e8 ranks. The orbit generator needs no key. The cell order
is chain-aligned: cells the stabilizer-chain descent reveals first are
most significant, so the incremental probe stage and the exact
:class:`~repro.core.isomorphism.BudgetStabilizerChain` recheck decide
minimality under the same total order. Checkpoint journals carry no
orbit state: a resumed shard rebuilds its probe keys from the profile
at rank ``next_rank - 1``, so the journal format does not depend on the
key layout.

**Sampled census** (:func:`sampled_census_scan`): beyond exhaustive
reach, a seeded Monte Carlo draw of Gray ranks rides the same
unranking / bitset evaluator / shard / checkpoint machinery and reports
equilibrium-density and price-of-anarchy *estimates* with Wilson and
bootstrap confidence intervals. Its ranks are unranked one at a time
with Python ints, since stratified draws may exceed ``int64``.

Everything else is still guarded by profile caps; the sampling and
dynamics pipelines cover larger sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ..errors import CheckpointError, GameError
from ..graphs.digraph import OwnedDigraph
from .census_eval import (
    evaluate_block,
    evaluate_weighted_block,
    out_mask_tables,
    swap_tables,
)
from .costs import Version
from .deviations import is_equilibrium
from .game import BoundedBudgetGame
from .isomorphism import (
    BudgetStabilizerChain,
    _check_symmetry_cap,
    budget_class_transpositions,
    chain_cell_positions,
)

__all__ = [
    "profile_space_size",
    "enumerate_realizations",
    "enumerate_equilibria",
    "revolving_door_combinations",
    "CensusResult",
    "IncompletenessManifest",
    "census_scan",
    "ExactPriceReport",
    "exact_prices",
    "WeightedCensusReport",
    "weighted_census_scan",
    "SampledCensusReport",
    "sampled_census_scan",
    "last_census_runtime_stats",
]

#: Exact-stage survivor rechecks run through the stabilizer chain in
#: batches this large — the chain's per-key cost is lowest on modest
#: frontier sizes, so huge survivor sets are chunked, not one-shot.
_EXACT_CHUNK: int = 512


#: The unit and sampled censuses evaluate profiles on one ``int64``
#: neighbour mask per vertex (:mod:`repro.core.census_eval`).
_MAX_BITSET_N: int = 63


def _check_bitset_cap(n: int) -> None:
    """The census bitset evaluator holds ``n`` bits per mask."""
    if n > _MAX_BITSET_N:
        raise GameError(
            f"the census evaluates profiles on int64 neighbour masks and "
            f"is capped at n = {_MAX_BITSET_N}, got n = {n}"
        )


def profile_space_size(game: BoundedBudgetGame) -> int:
    """``prod_i C(n-1, b_i)``: the number of strategy profiles."""
    n = game.n
    total = 1
    for b in game.budgets:
        total *= math.comb(n - 1, int(b))
    return total


def _check_cap(game: BoundedBudgetGame, max_profiles: int) -> None:
    total = profile_space_size(game)
    if total > max_profiles:
        raise GameError(
            f"profile space has {total} elements (> {max_profiles}); "
            "exhaustive enumeration is only for tiny instances"
        )


def enumerate_realizations(
    game: BoundedBudgetGame, *, max_profiles: int = 2_000_000
) -> Iterator[OwnedDigraph]:
    """Yield every realization of the game, in lexicographic profile order."""
    _check_cap(game, max_profiles)
    n = game.n
    per_player = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        per_player.append(list(itertools.combinations(pool, int(game.budgets[u]))))
    for profile in itertools.product(*per_player):
        yield OwnedDigraph.from_strategies(profile, n)


# ----------------------------------------------------------------------
# Gray-order profile walk
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _revolving_door_indices(m: int, t: int) -> tuple[tuple[int, ...], ...]:
    if t < 0 or t > m:
        return ()
    if t == 0:
        return ((),)
    if t == m:
        return (tuple(range(t)),)
    head = _revolving_door_indices(m - 1, t)
    tail = _revolving_door_indices(m - 1, t - 1)
    return head + tuple(c + (m - 1,) for c in reversed(tail))


def revolving_door_combinations(pool: Sequence[int], t: int) -> list[tuple[int, ...]]:
    """All ``C(len(pool), t)`` combinations in revolving-door Gray order.

    Consecutive combinations (and the wrap-around pair) differ by
    exactly one element dropped and one added — the Nijenhuis–Wilf
    ordering, built by the reflected recurrence ``A(m, t) = A(m-1, t)
    ++ reverse(A(m-1, t-1)) * {m-1}``. Elements within each
    combination are in increasing pool order.
    """
    pool = list(pool)
    return [
        tuple(pool[i] for i in combo)
        for combo in _revolving_door_indices(len(pool), t)
    ]


def _gray_digits(rank: int, radices: Sequence[int], rests: Sequence[int]) -> list[int]:
    """Reflected mixed-radix Gray digits of ``rank`` (MSB first).

    ``rests[i]`` is ``prod(radices[i:])``. Consecutive ranks differ in
    exactly one digit, by exactly ±1.
    """
    digits = []
    r = rank
    for i in range(len(radices)):
        rest = rests[i + 1]
        d, r = divmod(r, rest)
        digits.append(d)
        if d & 1:
            r = rest - 1 - r  # odd digit: the suffix block is reversed
    return digits


def _gray_rank(digits: Sequence[int], rests: Sequence[int]) -> int:
    """Inverse of :func:`_gray_digits`: the rank of an MSB-first vector.

    Reconstructs backward through the reflection — at each level the
    suffix remainder is un-reflected when the digit is odd, then scaled
    back in — so ``_gray_rank(_gray_digits(r, radices, rests), rests)
    == r`` for every rank. Used to map collected profiles back into
    Gray-rank windows (the n = 8 cross-validation bench filters a
    pruned census's equilibria to an unpruned subrange this way).
    """
    r = 0
    for i in range(len(digits) - 1, -1, -1):
        d = int(digits[i])
        rest = rests[i + 1]
        inner = rest - 1 - r if d & 1 else r
        r = d * rest + inner
    return r


def _profile_tables(
    game: BoundedBudgetGame,
) -> tuple[list[list[tuple[int, ...]]], list[int], list[int]]:
    """Per-player revolving-door strategy tables, radices and suffix products."""
    n = game.n
    combos = []
    for u in range(n):
        pool = [v for v in range(n) if v != u]
        combos.append(revolving_door_combinations(pool, int(game.budgets[u])))
    radices = [len(c) for c in combos]
    rests = [1] * (n + 1)
    for i in reversed(range(n)):
        rests[i] = rests[i + 1] * radices[i]
    return combos, radices, rests


#: Ranks per decoded Gray block. It is also the orbit-key block of the
#: symmetry census, so checkpoints of that walk land on multiples of it.
_ORBIT_BLOCK: int = 2048

#: The symmetric walk buffers canonical rows until this many are pending,
#: the sampled census stacks this many drawn rows, and the unit orbit
#: census cuts its representatives into blocks this large, to evaluate
#: them in one batch: per-row evaluator calls cost milliseconds each, a
#: batch of hundreds costs tens of milliseconds. (One call over all
#: 51,916 orbits at n = 13 read ~25% slower than blocks of 512..4096.)
_EVAL_BATCH: int = 512


def _check_rank_width(total: int) -> None:
    """The exhaustive walks decode Gray ranks in ``int64``."""
    if total >= 2**63:
        raise GameError(
            f"profile space has {total} Gray ranks; the exhaustive walk "
            f"decodes ranks in int64 and is capped at 2**63 - 1 ranks"
        )


def _swap_table(combos: "list[list[tuple[int, ...]]]") -> np.ndarray:
    """Revolving-door transitions ``(n, max_radix - 1, 2)``, ``int64``.

    Entry ``[j, d]`` holds the ``(dropped, added)`` targets of player
    ``j``'s step from strategy ``d`` to ``d + 1``; a step down from
    ``d + 1`` to ``d`` swaps the pair.
    """
    width = max(len(cj) for cj in combos) - 1
    table = np.zeros((len(combos), width, 2), dtype=np.int64)
    for j, cj in enumerate(combos):
        for d in range(len(cj) - 1):
            (table[j, d, 0],) = set(cj[d]) - set(cj[d + 1])
            (table[j, d, 1],) = set(cj[d + 1]) - set(cj[d])
    return table


def _gray_digit_block(rank: int, count: int, rests: Sequence[int]) -> np.ndarray:
    """:func:`_gray_digits` of the ranks ``[rank, rank + count)``.

    Returns the ``(count, n)`` ``int64`` digit block, one divmod /
    reflect pass per position over the whole block. The block is the
    transpose of a C-contiguous ``(n, count)`` array, so each pass
    writes one contiguous row. Ranks must fit in ``int64`` (see
    :func:`_check_rank_width`).
    """
    n = len(rests) - 1
    r = np.arange(rank, rank + count, dtype=np.int64)
    cols = np.empty((n, count), dtype=np.int64)
    for i in range(n):
        rest = rests[i + 1]
        d = cols[i]
        np.floor_divide(r, rest, out=d)
        r -= d * rest
        r += (d & 1) * (rest - 1 - 2 * r)  # odd digit: the suffix block is reversed
    return cols.T


def _gray_blocks(
    rests: Sequence[int],
    table: np.ndarray,
    lo: int,
    hi: int,
    prev: "Sequence[int]",
) -> "Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
    """Decode the Gray steps into ranks ``[lo, hi)`` block by block.

    ``prev`` is the digit vector of rank ``lo - 1``. Yields ``(rank,
    digits, js, drops, adds)`` per block of up to :data:`_ORBIT_BLOCK`
    ranks starting at ``rank``: ``digits`` is the block's digit matrix
    and step ``t`` reaches row ``t`` from the row before it (the
    previous block's last row for ``t = 0``) by swapping player
    ``js[t]``'s arc to ``drops[t]`` for one to ``adds[t]``. Exactly one
    digit changes per step, so the player is the first column that
    differs, and the pair comes from the :func:`_swap_table` entry of
    the lower digit, ordered by the step direction.
    """
    prev_row = np.asarray(prev, dtype=np.int64)
    rank = lo
    while rank < hi:
        count = min(_ORBIT_BLOCK, hi - rank)
        digits = _gray_digit_block(rank, count, rests)
        cols = digits.T
        before = np.empty_like(cols)
        before[:, 0] = prev_row
        before[:, 1:] = cols[:, :-1]
        js = np.argmax(cols != before, axis=0)
        steps = np.arange(count)
        old = before[js, steps]
        new = cols[js, steps]
        pair = table[js, np.minimum(old, new)]
        up = new > old
        drops = np.where(up, pair[:, 0], pair[:, 1])
        adds = np.where(up, pair[:, 1], pair[:, 0])
        yield rank, digits, js, drops, adds
        prev_row = digits[-1]
        rank += count


# ----------------------------------------------------------------------
# Symmetry pruning: orbit-canonical profiles under budget-preserving
# relabelings
# ----------------------------------------------------------------------
def _budget_symmetry_group(budgets: Sequence[int]) -> np.ndarray:
    """All player relabelings preserving the budget vector, ``(g, n)``.

    Row ``k`` maps player ``i`` to ``perms[k, i]``; the identity is row
    0. The group is the direct product of the symmetric groups on the
    equal-budget classes.
    """
    n = len(budgets)
    classes: "dict[int, list[int]]" = {}
    for i, b in enumerate(budgets):
        classes.setdefault(int(b), []).append(i)
    blocks = list(classes.values())
    perms = []
    for images in itertools.product(*(itertools.permutations(c) for c in blocks)):
        perm = np.empty(n, dtype=np.int64)
        for block, image in zip(blocks, images):
            for src, dst in zip(block, image):
                perm[src] = dst
        perms.append(perm)
    out = np.stack(perms)
    assert np.array_equal(out[0], np.arange(n))  # identity first
    return out


class _OrbitKeys:
    """Incrementally maintained canonical keys of one evolving profile.

    For a group element the ownership adjacency of the relabeled
    profile is packed into **one** ``uint64`` **key**: cell ``(a, b)``
    is bit :func:`~repro.core.isomorphism.chain_cell_positions`
    ``[a, b]``, so ``n^2 <= 64`` (``n <= 8``). Each present arc sets
    exactly one bit, hence ``uint64`` addition/subtraction (and the
    block cumulative sums below) stay exact; keys compare as plain
    integers. A profile is canonical iff its own key (the identity
    element) is the orbit minimum; the orbit size follows from the
    stabilizer count. Keys are injective on directed graphs, so equal
    keys mean equal relabeled profiles.

    The cell order is the *chain-aligned* one — cells revealed early by
    the stabilizer-chain descent are most significant — shared verbatim
    with :class:`~repro.core.isomorphism.BudgetStabilizerChain`, so the
    probe stage and the exact stage decide minimality under the same
    total order.

    Two-stage evaluation keeps the per-profile cost sublinear in the
    group order: only a small **probe** subset — the identity plus
    every within-class transposition — is maintained incrementally,
    from a swap-delta table ``[j, drop, add] -> (probes,)`` precomputed
    at construction. A probe key below the identity key certainly
    refutes canonicity; the rare survivors are collected across a whole
    Gray block and settled in one batched stabilizer-chain descent
    (:meth:`_exact_orbit_sizes`), whose cost tracks the profiles'
    automorphisms instead of the group order — the former whole-group
    gather (40320 rows at n = 8) survives only as the test reference
    :meth:`_reference_orbit_size`. When the group is no larger than the
    probe set the full group simply *is* the probe set and the exact
    stage is skipped. Both stages decide "is the identity key the orbit
    minimum" exactly, so the pruning decision — and hence the census —
    is bit-identical to the maintain-everything implementation it
    replaces.

    :meth:`advance_block` amortises the walk further: a whole block of
    Gray swaps becomes one table gather and one ``(block, probes)``
    cumulative-sum pass, so the per-profile Python and scan cost
    collapses into a handful of vectorised passes. The table holds
    ``n^3`` probe rows, under 120 KB at n = 8.

    The probe keys are a pure function of the current profile, so a
    resumed walk rebuilds them with :meth:`toggle` and nothing about
    them is journaled.
    """

    __slots__ = (
        "_n",
        "_g",
        "_perms",
        "_probe_slot",
        "_cellpos",
        "_pos_heads",
        "_pos_tails",
        "_w",
        "_vals",
        "_swap",
        "_block",
        "_exact",
        "_chain",
    )

    def __init__(self, n: int, perms: np.ndarray) -> None:
        _check_symmetry_cap(n)
        cellpos = chain_cell_positions(n)

        def slots(p: np.ndarray) -> np.ndarray:
            # slot[k, i, j]: bit position of arc (i, j) after relabeling
            # by p[k] — the arc lands at cell (inv[i], inv[j]) of the
            # relabeled adjacency, whose bit is cellpos there.
            inv = np.argsort(p, axis=1)
            return cellpos[inv[:, :, None], inv[:, None, :]]

        self._n = int(n)
        self._g = int(perms.shape[0])
        self._perms = perms
        self._cellpos = cellpos
        # position -> cell maps, for rebuilding adjacencies from keys.
        flat = cellpos.ravel()
        self._pos_heads = np.empty(n * n, dtype=np.int64)
        self._pos_tails = np.empty(n * n, dtype=np.int64)
        self._pos_heads[flat] = np.repeat(np.arange(n, dtype=np.int64), n)
        self._pos_tails[flat] = np.tile(np.arange(n, dtype=np.int64), n)
        self._w = np.uint64(1) << np.arange(n * n, dtype=np.uint64)
        # Budgets are recoverable from any group: every permutation in
        # ∏ Sym(class) preserves them, so the classes are the orbits of
        # the group's own action on players. Cheaper: the caller's
        # perms came from a budget vector whose transpositions we can
        # derive from the group's point orbits.
        orbits = self._point_orbit_labels(perms)
        probes = budget_class_transpositions(orbits)
        if self._g <= probes.shape[0] + 1:
            self._probe_slot = slots(perms)  # tiny group: probes = group
            self._exact = False
            self._chain = None
        else:
            identity = np.arange(n, dtype=np.int64)[None, :]
            self._probe_slot = slots(np.concatenate([identity, probes], axis=0))
            self._exact = True
            self._chain = BudgetStabilizerChain(orbits)
            assert self._chain.order == self._g
        p_count = self._probe_slot.shape[0]
        self._vals = np.zeros(p_count, dtype=np.uint64)
        # Swap-delta table: row (j * n + drop) * n + add is the
        # probe-key delta of arc j -> drop becoming j -> add, so a block
        # advance is one gather. Differences wrap in uint64 exactly like
        # the keys themselves.
        arc = self._w[self._probe_slot].transpose(1, 2, 0)
        shape = (n * n * n, p_count)
        self._swap = (arc[:, None, :, :] - arc[:, :, None, :]).reshape(shape)
        # Reused block buffer: fresh (block, probes) arrays per call
        # cost more in page faults than the gather itself.
        self._block = np.empty((_ORBIT_BLOCK, p_count), dtype=np.uint64)

    @staticmethod
    def _point_orbit_labels(perms: np.ndarray) -> np.ndarray:
        """Label players by the orbit of the group's action on them.

        For the budget symmetry group the orbits are exactly the
        equal-budget classes, so the labels stand in for budgets when
        deriving the within-class transpositions.
        """
        n = perms.shape[1]
        labels = np.full(n, -1, dtype=np.int64)
        nxt = 0
        for i in range(n):
            if labels[i] >= 0:
                continue
            members = np.unique(perms[:, i])
            labels[members] = nxt
            nxt += 1
        return labels

    def _adjs_from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ownership adjacencies ``(K, n, n)`` rebuilt from identity keys."""
        n = self._n
        shifts = np.arange(n * n, dtype=np.uint64)
        bits = ((keys[:, None] >> shifts[None, :]) & np.uint64(1)) != 0
        adjs = np.zeros((keys.size, n, n), dtype=bool)
        adjs[:, self._pos_heads, self._pos_tails] = bits
        return adjs

    def _exact_orbit_sizes(self, keys: np.ndarray) -> np.ndarray:
        """Batched stabilizer-chain decision for probe-stage survivors.

        Rebuilds each survivor's adjacency from its identity key and
        descends the chain once for the whole batch (chunked at
        ``_EXACT_CHUNK``): a survivor is canonical iff the chain's
        orbit-minimal key equals its own, and its orbit size is
        ``|G| / |stabilizer|``. Returns ``int64`` sizes with ``0`` for
        refuted (non-canonical) survivors.
        """
        sizes = np.zeros(keys.size, dtype=np.int64)
        for s in range(0, keys.size, _EXACT_CHUNK):
            chunk = keys[s : s + _EXACT_CHUNK]
            min_keys, stab = self._chain.minimal_images(self._adjs_from_keys(chunk))
            canon = min_keys == chunk
            sizes[s : s + chunk.size][canon] = self._g // stab[canon]
        return sizes

    def _reference_orbit_size(self, key: int) -> "int | None":
        """Whole-group gather decision for one survivor (test reference).

        The pre-chain implementation of the exact stage: rebuild the
        arc list from the identity key and gather every group element's
        key — ``O(g * m)``. Kept (lazily, off the stored ``perms``)
        so the suites can pit the chain against it; the census itself
        never calls this.
        """
        key = np.uint64(key)
        adj = self._adjs_from_keys(np.asarray([key]))[0]
        heads, tails = np.nonzero(adj)
        inv = np.argsort(self._perms, axis=1)
        slot = self._cellpos[inv[:, heads], inv[:, tails]]
        vals = self._w[slot].sum(axis=1, dtype=np.uint64)
        if (vals < key).any():
            return None
        return self._g // int((vals == key).sum())

    def toggle(self, i: int, j: int, present: bool) -> None:
        """Record that arc ``i -> j`` was added (or removed)."""
        delta = self._w[self._probe_slot[:, i, j]]
        if present:
            self._vals += delta
        else:
            self._vals -= delta

    def canonical_orbit_size(self) -> "int | None":
        """Orbit size if the current profile is canonical, else ``None``."""
        key = self._vals[0]  # identity relabeling = the profile
        if (self._vals < key).any():
            return None
        if not self._exact:
            return self._g // int((self._vals == key).sum())
        size = int(self._exact_orbit_sizes(self._vals[:1])[0])
        return size if size else None

    def advance_block(
        self, js: np.ndarray, drops: np.ndarray, adds: np.ndarray
    ) -> np.ndarray:
        """Apply a block of Gray arc swaps; orbit sizes per step.

        Step ``t`` replaces arc ``js[t] -> drops[t]`` with
        ``js[t] -> adds[t]``. Returns an ``int64`` array with the orbit
        size at each post-swap profile for canonical profiles and ``0``
        for non-canonical ones. One cumulative-sum pass maintains every
        probe key across the whole block (``uint64`` wrap-around is
        exact: all true partial sums are valid keys); survivors of the
        probe minimum test are settled together in one batched
        stabilizer-chain recheck, so the exact-stage cost stops scaling
        with the group order.
        """
        steps = js.size
        if steps > self._block.shape[0]:
            self._block = np.empty((steps, self._vals.size), dtype=np.uint64)
        rows = (js * self._n + drops) * self._n + adds
        block = np.take(self._swap, rows, axis=0, out=self._block[:steps])
        np.cumsum(block, axis=0, out=block)
        block += self._vals
        self._vals = block[-1].copy()
        keys = block[:, 0]
        hits = np.flatnonzero(~(block < keys[:, None]).any(axis=1))
        sizes = np.zeros(steps, dtype=np.int64)
        if not hits.size:
            return sizes
        if not self._exact:
            sizes[hits] = self._g // (block[hits] == keys[hits, None]).sum(axis=1)
            return sizes
        sizes[hits] = self._exact_orbit_sizes(keys[hits])
        return sizes


def _expand_orbit(
    profile: "tuple[tuple[int, ...], ...]", perms: np.ndarray
) -> "list[tuple[tuple[int, ...], ...]]":
    """All distinct relabelings of a profile under the group.

    Relabeling ``perm`` moves arc ``(i, v)`` to ``(perm[i], perm[v])``,
    so the relabeled adjacency is ``adj[inv[:, None], inv[None, :]]``
    with ``inv`` the inverse of ``perm``. ``perms`` is a whole group,
    closed under inverses, so one gather through ``perms`` itself
    relabels the ``(n, n)`` ownership adjacency under every element at
    once; its rows are packed to bytes and one ``np.unique`` keeps the
    distinct profiles. The group must preserve the profile's
    out-degrees, as a budget symmetry group does for a census profile
    (every player spends its whole budget).
    """
    n = len(profile)
    adj = np.zeros((n, n), dtype=bool)
    for i, strat in enumerate(profile):
        adj[i, list(strat)] = True
    relabeled = adj[perms[:, :, None], perms[:, None, :]]
    packed = np.packbits(relabeled, axis=2, bitorder="little")
    distinct = np.unique(packed.reshape(len(perms), -1), axis=0)
    adjs = np.unpackbits(
        distinct.reshape(-1, n, packed.shape[2]), axis=2, count=n, bitorder="little"
    )
    strategies = [
        map(tuple, np.nonzero(adjs[:, i])[1].reshape(len(adjs), len(strat)).tolist())
        for i, strat in enumerate(profile)
    ]
    return list(zip(*strategies))


# ----------------------------------------------------------------------
# Incremental census kernel
# ----------------------------------------------------------------------
def _shard_start(ctx, lo: int, fresh: dict, from_record) -> tuple:
    """``(start, part, resume_rec)`` of one census shard.

    A fresh shard starts at ``lo`` with the empty ``fresh`` part; a
    resumed one at the journaled ``next_rank``, with the part
    ``from_record`` rebuilds from that record. A record with no progress
    past ``lo`` runs the shard fresh.
    """
    rec = ctx.resume_state if ctx is not None else None
    if rec is None or rec.next_rank <= lo:
        return lo, fresh, None
    return rec.next_rank, from_record(rec), rec


def _bound(acc: dict, key: str, pick, values: np.ndarray) -> None:
    """Fold ``pick`` (``np.min`` or ``np.max``) of ``values`` into
    ``acc[key]``; ``None`` is the bound of no values."""
    if acc[key] is not None:
        values = np.append(values, acc[key])
    acc[key] = int(pick(values))


def _tally(
    acc: dict,
    rows: np.ndarray,
    sizes: np.ndarray,
    tables: "Sequence[np.ndarray]",
    version: Version,
) -> np.ndarray:
    """Census a block of digit rows into ``acc``, each row weighted by
    its orbit size; returns the rows' Nash mask."""
    is_nash, diam = evaluate_block(rows, tables, version)
    acc["count"] += int(sizes.sum())
    _bound(acc, "opt", np.min, diam)
    if is_nash.any():
        acc["eq_count"] += int(sizes[is_nash].sum())
        _bound(acc, "best_eq", np.min, diam[is_nash])
        _bound(acc, "worst_eq", np.max, diam[is_nash])
    return is_nash


def _checkpointed_steps(ctx, start: int, hi: int, step: int, run, save) -> None:
    """Drive ``run(i, stop)`` over ``[start, hi)`` in steps of at most ``step``.

    Steps end at checkpoint positions (``ctx.interval`` apart from
    ``start``), so each progress record follows its whole step; after
    every step the shard ticks ``ctx`` and, on a checkpoint position,
    calls ``save(stop)``. The done record ``save(hi, done=True)`` closes
    the range.
    """
    interval = ctx.interval if ctx is not None else 0
    next_cp = start + interval if interval else None
    i = start
    while i < hi:
        stop = min(hi, i + step, next_cp or hi)
        run(i, stop)
        i = stop
        if ctx is not None:
            ctx.tick(i - 1)
            if i >= next_cp and i < hi:
                save(i)
                next_cp = i + interval
    save(hi, done=True)


def _census_shard(payload: tuple, ctx=None) -> "dict[str, object]":
    """One contiguous Gray-rank range of the census (worker function).

    Profiles are never materialised as graphs: the walks hand blocks of
    Gray digit rows to :func:`~repro.core.census_eval.evaluate_block`,
    which decides Nash membership and the diameter of every row with a
    batched bitset BFS. Returns order-independently mergeable partial
    aggregates.

    Without symmetry pruning each decoded Gray block is evaluated in one
    call, split at checkpoint boundaries. With it the shard is a
    **canonical-rep-only walk**: orbit keys advance one decoded block
    per :meth:`_OrbitKeys.advance_block` call, and the canonical rows
    (with their orbit sizes) are buffered and evaluated
    :data:`_EVAL_BATCH` at a time, and always before a checkpoint.

    ``ctx`` (a :class:`~repro.parallel.runtime.ShardContext`) makes the
    shard checkpointable: progress records go to the shard journal at
    ``ctx.interval`` rank spacing, and ``ctx.resume_state`` restarts
    the walk mid-range — counters restored verbatim, orbit probe keys
    rebuilt from the profile at ``next_rank - 1`` — without re-counting
    any rank. ``ctx=None`` is the plain
    :func:`~repro.parallel.executor.parallel_map` path, bit-identical
    to the checkpointed one.
    """
    (
        budgets,
        version_value,
        lo,
        hi,
        symmetry,
        collect,
        max_profiles,
    ) = payload
    game = BoundedBudgetGame(list(budgets))
    version = Version.coerce(version_value)
    n = game.n
    perms = _budget_symmetry_group(budgets) if symmetry else None
    orbit = _OrbitKeys(n, perms) if perms is not None else None
    start, acc, resume_rec = _shard_start(
        ctx, lo, _empty_part(_UNIT_COUNTER_KEYS), _unit_part_from_record
    )
    eq_profiles = acc.pop("eq_profiles") or []

    def part() -> "dict[str, object]":
        return {**acc, "eq_profiles": eq_profiles if collect else None}

    def save(next_rank: int, *, done: bool = False) -> None:
        if ctx is None:
            return
        ctx.checkpoint(
            lo=lo,
            hi=hi,
            next_rank=next_rank,
            counters=dict(acc),
            eq_profiles=tuple(eq_profiles) if collect else None,
            done=done,
        )

    if start >= hi:
        if lo <= hi:
            save(hi, done=True)
        return part()
    _check_cap(game, max_profiles)
    combos, radices, rests = _profile_tables(game)
    _check_rank_width(rests[0])
    tables = out_mask_tables(combos)

    def evaluate(rows: np.ndarray, sizes: np.ndarray) -> None:
        is_nash = _tally(acc, rows, sizes, tables, version)
        if collect and is_nash.any():
            for row, size in zip(rows[is_nash].tolist(), sizes[is_nash].tolist()):
                key = tuple(tuple(sorted(combos[u][k])) for u, k in enumerate(row))
                if perms is not None and size > 1:
                    eq_profiles.extend(_expand_orbit(key, perms))
                else:
                    eq_profiles.append(key)

    if orbit is None:
        # Every rank is evaluated, one decoded Gray block per call.
        _checkpointed_steps(
            ctx,
            start,
            hi,
            _ORBIT_BLOCK,
            lambda rank, stop: evaluate(
                _gray_digit_block(rank, stop - rank, rests),
                np.ones(stop - rank, dtype=np.int64),
            ),
            save,
        )
        return part()

    interval = ctx.interval if ctx is not None else 0
    next_cp = start + interval if interval else None

    # Canonical-rep-only walk: advance all probe keys per decoded block
    # in one vectorised pass and buffer the (rare) canonical rows for
    # batched evaluation. The walk starts from the probe keys of the
    # cursor profile — rank ``lo`` fresh, ``next_rank - 1`` on resume —
    # built arc by arc from its Gray digits. Checkpoints follow a flush,
    # so the journaled counters cover every rank below ``next_rank``.
    cursor = start - 1 if resume_rec is not None else lo
    digits = _gray_digits(cursor, radices, rests)
    for u in range(n):
        for v in combos[u][digits[u]]:
            orbit.toggle(u, v, True)
    pending: "list[tuple[np.ndarray, np.ndarray]]" = []

    def flush() -> None:
        if pending:
            evaluate(
                np.concatenate([rows for rows, _ in pending]),
                np.concatenate([sizes for _, sizes in pending]),
            )
            pending.clear()

    if resume_rec is None:
        # The cursor rank itself is only censused on a fresh start; a
        # resumed walk already aggregated it (``[lo, next_rank)`` done).
        first_size = orbit.canonical_orbit_size()
        if first_size is not None:
            pending.append(
                (np.asarray([digits], dtype=np.int64), np.asarray([first_size]))
            )
    blocks = _gray_blocks(rests, _swap_table(combos), cursor + 1, hi, digits)
    for rank0, block, js, drops, adds in blocks:
        sizes = orbit.advance_block(js, drops, adds)
        hits = np.flatnonzero(sizes)
        if hits.size:
            pending.append((block[hits], sizes[hits]))
            if sum(rows.shape[0] for rows, _ in pending) >= _EVAL_BATCH:
                flush()
        rank = rank0 + js.size
        if ctx is not None:
            ctx.tick(rank - 1)
            if rank >= next_cp and rank < hi:
                flush()
                save(rank)
                next_cp = rank + interval
    flush()
    save(hi, done=True)
    return part()


@dataclass(frozen=True)
class IncompletenessManifest:
    """Exactly what a degraded census run did *not* cover.

    Produced only by the checkpointed runtime path when poison shards
    exhausted their retries and were quarantined. ``missing`` holds one
    ``(shard_id, first_missing_rank, hi)`` triple per quarantined shard
    — the half-open Gray-rank range ``[first_missing_rank, hi)`` whose
    profiles are absent from every merged aggregate. ``covered`` is the
    number of profiles the partial counters do include (orbit-weighted
    under symmetry, so it is comparable to ``total``).
    """

    total: int
    covered: int
    missing: "tuple[tuple[int, int, int], ...]"


@dataclass(frozen=True)
class CensusResult:
    """Merged output of one full census scan.

    ``equilibria`` (when collected) holds every equilibrium profile as
    a :meth:`~repro.graphs.digraph.OwnedDigraph.profile_key`, sorted —
    which is exactly lexicographic profile order, matching the
    brute-force enumeration.

    ``incomplete`` is ``None`` for every fully-covered census (the
    overwhelmingly common case, asserted internally); a checkpointed
    run that had to quarantine poison shards instead attaches the
    :class:`IncompletenessManifest` naming the uncovered rank ranges,
    and its ``report`` aggregates only the covered profiles.
    """

    report: "ExactPriceReport"
    equilibria: "tuple[tuple[tuple[int, ...], ...], ...] | None" = None
    incomplete: "IncompletenessManifest | None" = None

    def equilibrium_graphs(self) -> "list[OwnedDigraph]":
        """Materialise the collected equilibria as graphs."""
        if self.equilibria is None:
            raise GameError("census was run without collect_equilibria=True")
        n = len(self.equilibria[0]) if self.equilibria else 0
        return [
            OwnedDigraph.from_strategies(key, n) for key in self.equilibria
        ]


#: Observability side-channel of the last *checkpointed* census run:
#: the runtime's supervision stats (workers spawned, crashes, stalls,
#: retries, quarantines, shards resumed/skipped) plus coverage
#: (``covered``/``total``/``missing``). A side-channel because
#: :func:`weighted_census_scan` returns a fixed 2-tuple whose shape the
#: incompleteness manifest must not change; cleared at every scan entry
#: and rewritten per runtime scan (so a non-checkpointed scan reads as
#: ``{}``, never as the previous run's supervision numbers).
LAST_CENSUS_RUNTIME_STATS: "dict[str, object]" = {}


def _reset_census_stats() -> None:
    """Clear the runtime side-channel at scan entry.

    Without the reset a scan that ran unchecked or raised would leave
    the *previous* run's supervision numbers for a later reader (a
    benchmark, a test) to find; cleared up front, the side-channel is
    empty until this run publishes its own stats.
    """
    LAST_CENSUS_RUNTIME_STATS.clear()


def last_census_runtime_stats() -> "dict[str, object]":
    """Per-run snapshot of the runtime side-channel.

    A copy; empty when the last scan did not run through the
    checkpointed work-stealing runtime (or raised before reaching it).
    """
    return dict(LAST_CENSUS_RUNTIME_STATS)


def _merge_common(parts: "list[dict]", *, total: int, collect: bool, expect_full: bool):
    """Order-independent merge of census shard partials.

    Returns ``(count, eq_count, bound, equilibria)``: ``bound(key,
    pick)`` reduces one extremum counter with ``min`` or ``max``
    (``None`` when no part holds one). ``expect_full=False`` is the
    degraded (quarantine) merge: coverage may fall short of ``total``.
    """
    count = sum(p["count"] for p in parts)
    if expect_full:
        assert count == total, f"census covered {count} of {total} profiles"

    def bound(key: str, pick):
        vals = [p[key] for p in parts if p[key] is not None]
        return pick(vals) if vals else None

    equilibria = None
    if collect:
        equilibria = tuple(sorted(k for p in parts for k in p["eq_profiles"] or ()))
    return count, sum(p["eq_count"] for p in parts), bound, equilibria


def _merge_unit_parts(
    parts: "list[dict]",
    *,
    version: Version,
    total: int,
    collect: bool,
    expect_full: bool = True,
):
    """Merge unit-census shard partials (see :func:`_merge_common`)."""
    count, eq_count, bound, equilibria = _merge_common(
        parts, total=total, collect=collect, expect_full=expect_full
    )
    report = ExactPriceReport(
        version=version,
        num_profiles=count,
        num_equilibria=eq_count,
        opt_diameter=bound("opt", min) or 0,
        best_equilibrium_diameter=bound("best_eq", min),
        worst_equilibrium_diameter=bound("worst_eq", max),
    )
    return report, equilibria


_UNIT_COUNTER_KEYS = ("count", "eq_count", "opt", "best_eq", "worst_eq")
_WEIGHTED_COUNTER_KEYS = (
    "count",
    "eq_count",
    "opt_d",
    "opt_c",
    "best_d",
    "worst_d",
    "best_c",
    "worst_c",
)


def _empty_part(keys: "tuple[str, ...]") -> "dict[str, object]":
    """The part of a shard that has covered no profile yet."""
    part: "dict[str, object]" = dict.fromkeys(keys)
    part.update(count=0, eq_count=0, eq_profiles=[])
    return part


def _part_from_record(record, keys: "tuple[str, ...]") -> "dict[str, object]":
    """Rebuild a shard's mergeable part dict from a checkpoint record.

    Used for ``done`` records on resume (the shard is not re-executed)
    and for the last record of a quarantined shard (its partial
    counters still contribute to the degraded merge).
    """
    part: "dict[str, object]" = {k: record.counters.get(k) for k in keys}
    part["count"] = int(part["count"] or 0)
    part["eq_count"] = int(part["eq_count"] or 0)
    part["eq_profiles"] = (
        list(record.eq_profiles) if record.eq_profiles is not None else None
    )
    return part


def _unit_part_from_record(record) -> "dict[str, object]":
    return _part_from_record(record, _UNIT_COUNTER_KEYS)


def _weighted_part_from_record(record) -> "dict[str, object]":
    return _part_from_record(record, _WEIGHTED_COUNTER_KEYS)


def _resolve_runtime_shards(
    checkpoint_dir,
    *,
    resume: bool,
    kind: str,
    budgets: "tuple[int, ...]",
    total: int,
    shard_count: "int | None",
    workers: int,
    version: "str | None" = None,
    weights: "tuple[int, ...] | None" = None,
    symmetry: bool = False,
    collect: bool = False,
    seed: "int | None" = None,
    sample_method: "str | None" = None,
) -> "tuple[tuple[int, int], ...]":
    """Manifest handshake: pin (fresh) or verify (resume) the run shape.

    A fresh run writes the manifest atomically before any journal
    exists; a resume reads it back and refuses to proceed unless the
    caller's game/version/weights/symmetry/collect match exactly — the
    shard decomposition then comes *from the manifest*, never from the
    caller, so journals always line up with their rank ranges.
    """
    from .checkpoint import RunManifest, read_manifest, write_manifest

    if resume:
        manifest = read_manifest(checkpoint_dir)
        expected = RunManifest(
            kind=kind,
            budgets=budgets,
            total=total,
            shards=manifest.shards,
            version=version,
            weights=weights,
            symmetry=symmetry,
            collect=collect,
            seed=seed,
            sample_method=sample_method,
        )
        if manifest != expected:
            raise CheckpointError(
                f"resume manifest mismatch at {checkpoint_dir}: journals "
                f"describe {manifest}, caller expects {expected}"
            )
        return manifest.shards
    from ..parallel.executor import contiguous_shards

    n_shards = int(shard_count) if shard_count is not None else max(1, workers)
    shards = tuple(contiguous_shards(total, n_shards))
    write_manifest(
        checkpoint_dir,
        RunManifest(
            kind=kind,
            budgets=budgets,
            total=total,
            shards=shards,
            version=version,
            weights=weights,
            symmetry=symmetry,
            collect=collect,
            seed=seed,
            sample_method=sample_method,
        ),
    )
    return shards


def _run_census_shards(
    shard_fn,
    payload_for,
    record_to_part,
    shards: "tuple[tuple[int, int], ...]",
    *,
    workers: int,
    checkpoint_dir,
    resume: bool,
    fault_plan,
    runtime_opts: "dict | None",
):
    """Shared checkpointed-execution core of every census kind.

    Runs the work-stealing supervised runtime, converts outcomes into
    mergeable parts (quarantined shards contribute the partial counters
    of their last good record), and publishes the run's supervision
    stats. Returns ``(parts, missing, covered)``.
    """
    from ..parallel.runtime import run_shards

    rt = run_shards(
        shard_fn,
        [payload_for(lo, hi) for lo, hi in shards],
        checkpoint_dir=checkpoint_dir,
        workers=workers,
        resume=resume,
        fault_plan=fault_plan,
        result_from_record=record_to_part,
        **dict(runtime_opts or {}),
    )
    parts: "list[dict]" = []
    missing: "list[tuple[int, int, int]]" = []
    for outcome in rt.outcomes:
        lo, hi = shards[outcome.shard_id]
        if outcome.result is not None:
            parts.append(outcome.result)
        elif outcome.last_record is not None:
            parts.append(record_to_part(outcome.last_record))
            missing.append((outcome.shard_id, outcome.last_record.next_rank, hi))
        else:
            missing.append((outcome.shard_id, lo, hi))
    covered = sum(p["count"] for p in parts)
    stats: "dict[str, object]" = dict(rt.stats)
    stats["shards"] = len(shards)
    stats["covered"] = covered
    stats["missing"] = [list(m) for m in missing]
    LAST_CENSUS_RUNTIME_STATS.clear()
    LAST_CENSUS_RUNTIME_STATS.update(stats)
    return parts, tuple(missing), covered


#: Collected sets expand every equilibrium orbit over the whole
#: ``Sym(n)``, ``n!`` relabelings each; 9! = 362,880 is the last size
#: where that stays a matter of seconds.
_MAX_UNIT_COLLECT_N: int = 9


def _unit_orbit_census(
    game: BoundedBudgetGame, version: Version, *, collect: bool
) -> CensusResult:
    """Symmetric census of a unit-budget game over generated orbits.

    :func:`~repro.core.unit_orbits.unit_orbits` lists one representative
    per ``Sym(n)`` orbit; each becomes a digit row of
    :func:`_profile_tables`, and the rows are evaluated
    :data:`_EVAL_BATCH` at a time, weighted by orbit size. One process,
    no shards, no journal.
    """
    from .unit_orbits import unit_orbits

    n = game.n
    if collect and n > _MAX_UNIT_COLLECT_N:
        raise GameError(
            f"collecting the equilibria of a symmetric unit census expands "
            f"each orbit over all n! relabelings and is capped at n = "
            f"{_MAX_UNIT_COLLECT_N}, got n = {n}"
        )
    targets, sizes = unit_orbits(n)
    combos, _, _ = _profile_tables(game)
    digit = np.zeros((n, n), dtype=np.int64)
    for u, strategies in enumerate(combos):
        for d, (v,) in enumerate(strategies):
            digit[u, v] = d
    rows = digit[np.arange(n), targets]
    tables = out_mask_tables(combos)
    perms = _budget_symmetry_group(game.budgets) if collect else None
    acc = _empty_part(_UNIT_COUNTER_KEYS)
    for lo in range(0, len(rows), _EVAL_BATCH):
        block = slice(lo, lo + _EVAL_BATCH)
        is_nash = _tally(acc, rows[block], sizes[block], tables, version)
        if collect:
            for rep in targets[block][is_nash].tolist():
                acc["eq_profiles"].extend(
                    _expand_orbit(tuple((v,) for v in rep), perms)
                )
    report, equilibria = _merge_unit_parts(
        [acc], version=version, total=(n - 1) ** n, collect=collect
    )
    return CensusResult(report=report, equilibria=equilibria)


def census_scan(
    game: BoundedBudgetGame,
    version: "Version | str",
    *,
    max_profiles: int = 500_000,
    symmetry: bool = False,
    workers: int = 1,
    collect_equilibria: bool = False,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    fault_plan=None,
    shard_count: "int | None" = None,
    runtime_opts: "dict | None" = None,
) -> CensusResult:
    """Full equilibrium census via the Gray-order walk and the bitset
    evaluator.

    One pass over the profile space (or its canonical orbit
    representatives with ``symmetry=True``) computes the optimal
    diameter, the equilibrium count, and the best/worst equilibrium
    diameters. Blocks of profiles go through
    :func:`~repro.core.census_eval.evaluate_block`, which tests each
    profile against every strategy of every player; no graph is built
    and no distance engine runs. Neighbourhoods are ``int64`` masks, so
    games with ``n > 63`` raise :class:`~repro.errors.GameError`.
    ``workers > 1`` splits the rank space into contiguous shards
    executed through :func:`repro.parallel.executor.parallel_map`. The
    result is bit-identical for every combination of knobs.

    ``checkpoint_dir`` switches execution to the fault-tolerant
    work-stealing runtime (:func:`repro.parallel.runtime.run_shards`):
    shards journal their progress there, ``resume=True`` continues an
    interrupted run from the journals (after a manifest handshake), and
    ``fault_plan`` / ``shard_count`` / ``runtime_opts`` expose the
    fault-injection harness, the shard decomposition width, and the
    supervisor's tuning knobs. Checkpointed results are bit-identical
    to the static path; only a run that quarantines poison shards
    degrades — explicitly, via :attr:`CensusResult.incomplete`.

    ``symmetry=True`` on a unit-budget game takes the orbit generator
    instead of the walk (:func:`_unit_orbit_census`): one process, no
    shards, no journal, for ``2 <= n <= 13``. There ``workers``,
    ``checkpoint_dir``, ``resume`` and ``runtime_opts`` are accepted and
    unused (:func:`last_census_runtime_stats` reads ``{}``), while
    ``fault_plan`` and ``shard_count`` name shards and raise
    :class:`~repro.errors.GameError`. ``max_profiles`` still caps the
    profile space ``(n-1)^n``, and ``collect_equilibria`` is refused
    above ``n = 9``. The walk serves symmetric non-unit classes up to
    ``n = 8``, where its keys fill one ``uint64``.
    """
    from ..parallel.executor import contiguous_shards, parallel_map

    _reset_census_stats()
    version = Version.coerce(version)
    _check_bitset_cap(game.n)
    generated = symmetry and game.is_unit_game
    if generated:
        from .unit_orbits import check_unit_orbit_cap

        if fault_plan is not None or shard_count is not None:
            raise GameError(
                "fault_plan/shard_count name shards of the Gray walk; the "
                "symmetric unit-budget census generates its orbits in one "
                "process"
            )
        check_unit_orbit_cap(game.n)
    elif symmetry:
        _check_symmetry_cap(game.n)
    _check_cap(game, max_profiles)
    _check_rank_width(profile_space_size(game))
    if workers < 1:
        raise GameError(f"workers must be positive, got {workers}")
    if checkpoint_dir is None and (
        resume or fault_plan is not None or shard_count is not None
    ):
        raise GameError(
            "resume/fault_plan/shard_count require checkpoint_dir (the "
            "checkpointed runtime path)"
        )
    if generated:
        return _unit_orbit_census(game, version, collect=collect_equilibria)
    total = profile_space_size(game)
    budgets = tuple(int(b) for b in game.budgets)

    def payload_for(lo: int, hi: int) -> tuple:
        return (
            budgets,
            version.value,
            lo,
            hi,
            symmetry,
            collect_equilibria,
            max_profiles,
        )

    if checkpoint_dir is not None:
        shards_t = _resolve_runtime_shards(
            checkpoint_dir,
            resume=resume,
            kind="census",
            budgets=budgets,
            total=total,
            shard_count=shard_count,
            workers=workers,
            version=version.value,
            symmetry=symmetry,
            collect=collect_equilibria,
        )
        parts, missing, covered = _run_census_shards(
            _census_shard,
            payload_for,
            _unit_part_from_record,
            shards_t,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            fault_plan=fault_plan,
            runtime_opts=runtime_opts,
        )
        report, equilibria = _merge_unit_parts(
            parts,
            version=version,
            total=total,
            collect=collect_equilibria,
            expect_full=not missing,
        )
        incomplete = (
            IncompletenessManifest(total=total, covered=covered, missing=missing)
            if missing
            else None
        )
        return CensusResult(
            report=report, equilibria=equilibria, incomplete=incomplete
        )

    shards = contiguous_shards(total, workers)
    payloads = [payload_for(lo, hi) for lo, hi in shards]
    parts = parallel_map(_census_shard, payloads, processes=workers)
    report, equilibria = _merge_unit_parts(
        parts, version=version, total=total, collect=collect_equilibria
    )
    return CensusResult(report=report, equilibria=equilibria)


def enumerate_equilibria(
    game: BoundedBudgetGame,
    version: "Version | str",
    *,
    max_profiles: int = 500_000,
    incremental: bool = True,
    symmetry: bool = False,
    workers: int = 1,
) -> list[OwnedDigraph]:
    """All pure Nash equilibria of a tiny game, by exhaustive check.

    Each profile is tested against every strategy of every player, so
    membership is provably correct. The default path collects them with
    :func:`census_scan` (Gray-order walk and bitset evaluator).
    ``incremental=False`` builds every realization and runs the exact
    best-response search on it; it returns the identical list
    (lexicographic profile order) and only exists as a slow reference
    for callers outside the library.
    """
    version = Version.coerce(version)
    if not incremental:
        if symmetry or workers != 1:
            raise GameError(
                "symmetry/workers require the incremental census kernel"
            )
        found = []
        for graph in enumerate_realizations(game, max_profiles=max_profiles):
            if is_equilibrium(graph, version, method="exact"):
                found.append(graph)
        return found
    result = census_scan(
        game,
        version,
        max_profiles=max_profiles,
        symmetry=symmetry,
        workers=workers,
        collect_equilibria=True,
    )
    return result.equilibrium_graphs()


@dataclass(frozen=True)
class ExactPriceReport:
    """Exact equilibrium census of one tiny game.

    ``poa``/``pos`` are exact fractions (worst resp. best equilibrium
    diameter over the optimal realization diameter); ``None`` when the
    game has no equilibrium within the enumerated space (cannot happen:
    Theorem 2.3 guarantees existence, and the test suite asserts so).
    """

    version: Version
    num_profiles: int
    num_equilibria: int
    opt_diameter: int
    best_equilibrium_diameter: "int | None"
    worst_equilibrium_diameter: "int | None"

    @property
    def poa(self) -> "Fraction | None":
        """Exact price of anarchy."""
        if self.worst_equilibrium_diameter is None:
            return None
        return Fraction(self.worst_equilibrium_diameter, self.opt_diameter)

    @property
    def pos(self) -> "Fraction | None":
        """Exact price of stability."""
        if self.best_equilibrium_diameter is None:
            return None
        return Fraction(self.best_equilibrium_diameter, self.opt_diameter)


# ----------------------------------------------------------------------
# Weighted weak-equilibrium census (Section 6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeightedCensusReport:
    """Exact weighted weak-equilibrium census of one tiny game.

    Counts profiles stable under weighted single-arc swaps (Section 6's
    weak equilibria for a fixed positive vertex-weight vector), along
    with diameter and weighted social cost extrema. ``social cost``
    here is ``sum_{u active} sum_v w(v) dist(u, v)`` with the paper's
    ``Cinf`` convention for cross-component terms.
    """

    weights: "tuple[int, ...]"
    num_profiles: int
    num_weak_equilibria: int
    opt_diameter: int
    opt_social_cost: int
    best_equilibrium_diameter: "int | None"
    worst_equilibrium_diameter: "int | None"
    best_equilibrium_social_cost: "int | None"
    worst_equilibrium_social_cost: "int | None"

    @property
    def poa(self) -> "Fraction | None":
        """Diameter price of anarchy over the weak-equilibrium set."""
        if self.worst_equilibrium_diameter is None:
            return None
        return Fraction(self.worst_equilibrium_diameter, self.opt_diameter)

    @property
    def pos(self) -> "Fraction | None":
        """Diameter price of stability over the weak-equilibrium set."""
        if self.best_equilibrium_diameter is None:
            return None
        return Fraction(self.best_equilibrium_diameter, self.opt_diameter)


def _weighted_census_shard(payload: tuple, ctx=None) -> "dict[str, object]":
    """One contiguous Gray-rank range of the weighted census.

    Each decoded Gray block goes to
    :func:`~repro.core.census_eval.evaluate_weighted_block`, which gives
    every row's weak-equilibrium verdict, diameter and weighted social
    cost from a batched bitset BFS; no graph is built.

    ``ctx`` enables checkpointing and mid-range resume exactly as in
    :func:`_census_shard`: the walk restarts at ``next_rank`` with the
    journaled counters, so the merge is bit-identical to an
    uninterrupted run.
    """
    budgets, weights, lo, hi, collect, max_profiles = payload
    game = BoundedBudgetGame(list(budgets))
    w = np.asarray(weights, dtype=np.int64)
    start, acc, _ = _shard_start(
        ctx, lo, _empty_part(_WEIGHTED_COUNTER_KEYS), _weighted_part_from_record
    )
    eq_profiles = acc.pop("eq_profiles") or []

    def save(next_rank: int, *, done: bool = False) -> None:
        if ctx is not None:
            ctx.checkpoint(
                lo=lo,
                hi=hi,
                next_rank=next_rank,
                counters=dict(acc),
                eq_profiles=tuple(eq_profiles) if collect else None,
                done=done,
            )

    _check_cap(game, max_profiles)
    combos, _, rests = _profile_tables(game)
    _check_rank_width(rests[0])
    tables = out_mask_tables(combos)
    swaps = swap_tables(tables, w)

    def evaluate(rank: int, stop: int) -> None:
        rows = _gray_digit_block(rank, stop - rank, rests)
        is_eq, diam, cost = evaluate_weighted_block(rows, tables, swaps, w)
        acc["count"] += stop - rank
        _bound(acc, "opt_d", np.min, diam)
        _bound(acc, "opt_c", np.min, cost)
        if not is_eq.any():
            return
        acc["eq_count"] += int(is_eq.sum())
        for key, pick, values in (
            ("best_d", np.min, diam),
            ("worst_d", np.max, diam),
            ("best_c", np.min, cost),
            ("worst_c", np.max, cost),
        ):
            _bound(acc, key, pick, values[is_eq])
        if collect:
            for row in rows[is_eq].tolist():
                eq_profiles.append(
                    tuple(tuple(sorted(combos[u][k])) for u, k in enumerate(row))
                )

    _checkpointed_steps(ctx, start, hi, _ORBIT_BLOCK, evaluate, save)
    return {**acc, "eq_profiles": eq_profiles if collect else None}


def _merge_weighted_parts(
    parts: "list[dict]",
    *,
    weights_t: "tuple[int, ...]",
    total: int,
    collect: bool,
    expect_full: bool = True,
):
    """Merge weighted-census shard partials (see :func:`_merge_common`)."""
    count, eq_count, bound, equilibria = _merge_common(
        parts, total=total, collect=collect, expect_full=expect_full
    )
    report = WeightedCensusReport(
        weights=weights_t,
        num_profiles=count,
        num_weak_equilibria=eq_count,
        opt_diameter=bound("opt_d", min),
        opt_social_cost=bound("opt_c", min),
        best_equilibrium_diameter=bound("best_d", min),
        worst_equilibrium_diameter=bound("worst_d", max),
        best_equilibrium_social_cost=bound("best_c", min),
        worst_equilibrium_social_cost=bound("worst_c", max),
    )
    return report, equilibria


def weighted_census_scan(
    game: BoundedBudgetGame,
    weights: "Sequence[int] | np.ndarray",
    *,
    max_profiles: int = 500_000,
    workers: int = 1,
    collect_equilibria: bool = False,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    fault_plan=None,
    shard_count: "int | None" = None,
    runtime_opts: "dict | None" = None,
) -> "tuple[WeightedCensusReport, tuple | None]":
    """Full weighted weak-equilibrium census via the Gray-order walk and
    the bitset evaluator.

    One pass over the profile space counts the profiles that are
    weighted weak equilibria for the given nonnegative vertex weights and
    tracks diameter / weighted-social-cost extrema. Blocks of profiles go
    through :func:`~repro.core.census_eval.evaluate_weighted_block`,
    which tests each active player against every single-arc swap of its
    strategy; no graph is built and no distance engine runs.
    Neighbourhoods are ``int64`` masks, so games with ``n > 63`` raise
    :class:`~repro.errors.GameError`. ``workers > 1`` shards the rank
    space; reports and collected equilibrium sets are bit-identical for
    every worker count. Vertex weights break player symmetry, so there
    is no orbit pruning here.

    Returns ``(report, equilibria)`` where ``equilibria`` is a sorted
    tuple of profile keys when ``collect_equilibria=True``, else
    ``None``.

    Weight-0 vertices follow the Section 6 *folded ghost* semantics of
    the checker ``is_weighted_weak_equilibrium``: they are neither
    checked for deviations nor legal swap targets (though the profile
    space may still wire arcs to them — give a vertex weight 1 if it
    should remain a live member of the folded graph).

    ``checkpoint_dir`` / ``resume`` / ``fault_plan`` / ``shard_count``
    / ``runtime_opts`` select the fault-tolerant checkpointed runtime
    exactly as in :func:`census_scan`. The 2-tuple return shape is
    preserved; a degraded run's incompleteness manifest is published
    through :data:`LAST_CENSUS_RUNTIME_STATS`.
    """
    from ..parallel.executor import contiguous_shards, parallel_map

    _reset_census_stats()
    _check_bitset_cap(game.n)
    _check_cap(game, max_profiles)
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != (game.n,):
        raise GameError(
            f"weights shape {w.shape} != (n,) = ({game.n},) for this game"
        )
    if (w < 0).any():
        raise GameError("census weights must be nonnegative")
    if workers < 1:
        raise GameError(f"workers must be positive, got {workers}")
    if checkpoint_dir is None and (
        resume or fault_plan is not None or shard_count is not None
    ):
        raise GameError(
            "resume/fault_plan/shard_count require checkpoint_dir (the "
            "checkpointed runtime path)"
        )
    weights_t = tuple(int(x) for x in w)
    total = profile_space_size(game)
    _check_rank_width(total)
    budgets = tuple(int(b) for b in game.budgets)

    def payload_for(lo: int, hi: int) -> tuple:
        return (budgets, weights_t, lo, hi, collect_equilibria, max_profiles)

    if checkpoint_dir is not None:
        shards_t = _resolve_runtime_shards(
            checkpoint_dir,
            resume=resume,
            kind="weighted_census",
            budgets=budgets,
            total=total,
            shard_count=shard_count,
            workers=workers,
            weights=weights_t,
            collect=collect_equilibria,
        )
        parts, missing, covered = _run_census_shards(
            _weighted_census_shard,
            payload_for,
            _weighted_part_from_record,
            shards_t,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            fault_plan=fault_plan,
            runtime_opts=runtime_opts,
        )
        return _merge_weighted_parts(
            parts,
            weights_t=weights_t,
            total=total,
            collect=collect_equilibria,
            expect_full=not missing,
        )
    shards = contiguous_shards(total, workers)
    payloads = [payload_for(lo, hi) for lo, hi in shards]
    parts = parallel_map(_weighted_census_shard, payloads, processes=workers)
    return _merge_weighted_parts(
        parts, weights_t=weights_t, total=total, collect=collect_equilibria
    )


# ----------------------------------------------------------------------
# Monte Carlo sampled census
# ----------------------------------------------------------------------

#: ``derive_seed`` domain tags: the rank draws and the bootstrap
#: resampler must be independent streams of the same user seed.
_SAMPLED_DRAW_TAG: int = 1101
_SAMPLED_BOOT_TAG: int = 1102

#: The sampling methods :func:`sampled_census_scan` accepts.
_SAMPLE_METHODS: "tuple[str, ...]" = ("uniform", "stratified")


def _sampled_ranks(
    total: int, samples: int, seed: int, method: str
) -> "list[int]":
    """The deterministic sorted Gray-rank draw of one sampled run.

    Shared verbatim by the parent and every shard — a shard re-derives
    the full list and evaluates its slice of *sample indices*, which is
    what makes the estimate worker-count invariant. ``"uniform"`` draws
    ``samples`` i.i.d. ranks (with replacement); ``"stratified"`` draws
    one rank per contiguous stratum of the rank space. Draws go through
    :class:`random.Random` (not numpy) because profile spaces overflow
    64 bits long before they overflow Python ints.
    """
    import random

    from ..parallel.executor import contiguous_shards
    from ..rng import derive_seed

    strat = method != "uniform"
    rng = random.Random(
        derive_seed(seed, _SAMPLED_DRAW_TAG, samples, int(strat))
    )
    if strat:
        return [
            lo + rng.randrange(hi - lo)
            for lo, hi in contiguous_shards(total, samples)
        ]
    return sorted(rng.randrange(total) for _ in range(samples))


def _sampled_census_shard(payload: tuple, ctx=None) -> "dict[str, object]":
    """One contiguous range of *sample indices* (worker function).

    Bounds are indices into the run's deterministic rank draw, **not**
    Gray ranks. Each drawn rank is unranked to its Gray digit row with
    Python ints (stratified ranks may exceed ``int64``); up to
    :data:`_EVAL_BATCH` rows, cut at checkpoint indices, go to
    :func:`~repro.core.census_eval.evaluate_block` at a time, and the
    ``(diameter, is_eq)`` verdicts accumulate into a histogram that the
    merge turns into density / PoA estimates.
    """
    (
        budgets,
        version_value,
        lo,
        hi,
        samples,
        seed,
        method,
    ) = payload
    game = BoundedBudgetGame(list(budgets))
    version = Version.coerce(version_value)
    total = profile_space_size(game)
    ranks = _sampled_ranks(total, samples, seed, method)
    start, acc, _ = _shard_start(
        ctx, lo, {"count": 0, "eq_count": 0}, _sampled_part_from_record
    )

    def save(next_index: int, *, done: bool = False) -> None:
        if ctx is not None:
            ctx.checkpoint(
                lo=lo, hi=hi, next_rank=next_index, counters=dict(acc), done=done
            )

    combos, radices, rests = _profile_tables(game)
    tables = out_mask_tables(combos)

    def evaluate(i: int, stop: int) -> None:
        rows = np.asarray(
            [_gray_digits(r, radices, rests) for r in ranks[i:stop]],
            dtype=np.int64,
        )
        is_nash, diam = evaluate_block(rows, tables, version)
        for d, eq in zip(diam.tolist(), is_nash.tolist()):
            hkey = f"d:{d}:{int(eq)}"
            acc[hkey] = acc.get(hkey, 0) + 1
        acc["count"] += stop - i
        acc["eq_count"] += int(is_nash.sum())

    _checkpointed_steps(ctx, start, hi, _EVAL_BATCH, evaluate, save)
    return dict(acc)


def _sampled_part_from_record(record) -> "dict[str, object]":
    part: "dict[str, object]" = {
        k: int(v or 0)
        for k, v in record.counters.items()
        if k.startswith("d:") or k in ("count", "eq_count")
    }
    part.setdefault("count", 0)
    part.setdefault("eq_count", 0)
    return part


def _merge_sampled_parts(
    parts: "list[dict]",
) -> "tuple[int, int, dict[tuple[int, int], int]]":
    """Order-independent merge: ``(count, eq_count, histogram)``.

    Histogram keys are ``(diameter, is_eq)`` pairs decoded from the
    shards' ``"d:<diameter>:<0|1>"`` counter keys.
    """
    count = 0
    eq_count = 0
    hist: "dict[tuple[int, int], int]" = {}
    for p in parts:
        count += int(p.get("count") or 0)
        eq_count += int(p.get("eq_count") or 0)
        for k, v in p.items():
            if isinstance(k, str) and k.startswith("d:"):
                _, d, eq = k.split(":")
                key = (int(d), int(eq))
                hist[key] = hist.get(key, 0) + int(v or 0)
    return count, eq_count, hist


def _wilson_interval(
    successes: int, trials: int, confidence: float
) -> "tuple[float, float]":
    """Wilson score interval for a binomial proportion.

    Unlike the Wald interval it never collapses to a point at 0 or 1
    successes — exactly the regime a rare-equilibrium census sits in.
    """
    if trials == 0:
        return (0.0, 1.0)
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    nt = float(trials)
    k = float(successes)
    denom = nt + z * z
    center = (k + z * z / 2.0) / denom
    half = (z / denom) * math.sqrt(k * (nt - k) / nt + z * z / 4.0)
    # Exact endpoints at the degenerate counts (float noise otherwise
    # leaves a ~1e-18 residue that breaks "0 successes => bound is 0").
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _bootstrap_poa_ci(
    hist: "dict[tuple[int, int], int]",
    trials: int,
    seed: int,
    confidence: float,
    resamples: int = 1000,
) -> "tuple[float, float] | None":
    """Percentile-bootstrap interval for the sampled PoA ratio.

    Resamples the ``(diameter, is_eq)`` histogram multinomially and
    recomputes ``worst sampled equilibrium diameter / best sampled
    diameter`` per replicate; replicates whose resample holds no
    equilibrium cell are skipped. Deterministic for a given seed
    (category order is sorted, the generator is derived). Returns
    ``None`` when no equilibrium was sampled at all.
    """
    from ..rng import derive_seed

    cats = sorted(hist.items())
    if trials == 0 or not any(eq for (_, eq), _ in cats):
        return None
    counts = np.asarray([c for _, c in cats], dtype=np.float64)
    probs = counts / counts.sum()
    diams = np.asarray([d for (d, _), _ in cats], dtype=np.int64)
    eqs = np.asarray([bool(e) for (_, e), _ in cats], dtype=bool)
    rng = np.random.default_rng(
        derive_seed(seed, _SAMPLED_BOOT_TAG, trials, resamples)
    )
    draws = rng.multinomial(trials, probs, size=resamples)
    ratios: "list[float]" = []
    for row in draws:
        present = row > 0
        if not (present & eqs).any():
            continue
        opt = int(diams[present].min())
        worst = int(diams[present & eqs].max())
        ratios.append(1.0 if opt <= 0 else worst / opt)
    if not ratios:
        return None
    ratios.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_i = int(alpha * (len(ratios) - 1))
    hi_i = int(math.ceil((1.0 - alpha) * (len(ratios) - 1)))
    return (float(ratios[lo_i]), float(ratios[hi_i]))


@dataclass(frozen=True)
class SampledCensusReport:
    """Monte Carlo census estimates with their uncertainty.

    Estimator methodology
    ---------------------
    ``eq_density`` is the sample fraction of equilibrium profiles —
    unbiased for the population fraction under both the i.i.d.
    (``"uniform"``) and one-draw-per-stratum (``"stratified"``)
    designs. ``eq_density_ci`` is the Wilson score
    interval at ``confidence`` (computed as if i.i.d.; under the
    stratified design it is mildly conservative). ``eq_count_estimate``
    and ``eq_count_ci`` scale those by ``total_profiles``.

    ``poa_estimate`` is ``worst_equilibrium_diameter_seen /
    opt_diameter_seen`` — a ratio of sample extrema, so it is a *lower
    bound* estimate of the exact PoA (extrema can only be missed, never
    overshot). ``poa_ci`` is the percentile bootstrap over multinomial
    resamples of the ``(diameter, is_eq)`` histogram; ``None`` when no
    equilibrium was sampled. ``samples_evaluated < samples`` only when
    a checkpointed run quarantined poison shards.
    """

    version: Version
    method: str
    seed: int
    samples: int
    samples_evaluated: int
    total_profiles: int
    eq_samples: int
    confidence: float
    eq_density: float
    eq_density_ci: "tuple[float, float]"
    eq_count_estimate: float
    eq_count_ci: "tuple[float, float]"
    opt_diameter_seen: "int | None"
    best_equilibrium_diameter_seen: "int | None"
    worst_equilibrium_diameter_seen: "int | None"
    poa_estimate: "Fraction | None"
    poa_ci: "tuple[float, float] | None"
    histogram: "tuple[tuple[int, int, int], ...]"


def _sampled_report(
    *,
    version: Version,
    method: str,
    seed: int,
    samples: int,
    confidence: float,
    total: int,
    count: int,
    eq_count: int,
    hist: "dict[tuple[int, int], int]",
) -> SampledCensusReport:
    density = eq_count / count if count else 0.0
    ci = _wilson_interval(eq_count, count, confidence)
    try:
        ftotal = float(total)
    except OverflowError:
        ftotal = math.inf  # the estimate is still a density; count is not finite
    cells = sorted(hist)
    opt_seen = min((d for d, _ in cells), default=None)
    eq_diams = [d for d, e in cells if e]
    best = min(eq_diams, default=None)
    worst = max(eq_diams, default=None)
    poa = None
    if worst is not None and opt_seen is not None:
        poa = Fraction(worst, opt_seen) if opt_seen > 0 else Fraction(1)
    return SampledCensusReport(
        version=version,
        method=method,
        seed=seed,
        samples=samples,
        samples_evaluated=count,
        total_profiles=total,
        eq_samples=eq_count,
        confidence=confidence,
        eq_density=density,
        eq_density_ci=ci,
        eq_count_estimate=density * ftotal,
        eq_count_ci=(ci[0] * ftotal, ci[1] * ftotal),
        opt_diameter_seen=opt_seen,
        best_equilibrium_diameter_seen=best,
        worst_equilibrium_diameter_seen=worst,
        poa_estimate=poa,
        poa_ci=_bootstrap_poa_ci(hist, count, seed, confidence),
        histogram=tuple((d, e, hist[(d, e)]) for d, e in cells),
    )


def sampled_census_scan(
    game: BoundedBudgetGame,
    version: "Version | str",
    *,
    samples: int,
    seed: int = 0,
    method: str = "uniform",
    confidence: float = 0.95,
    workers: int = 1,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    fault_plan=None,
    shard_count: "int | None" = None,
    runtime_opts: "dict | None" = None,
) -> SampledCensusReport:
    """Monte Carlo census: equilibrium density and PoA with intervals.

    Draws ``samples`` profile ranks deterministically from ``seed``
    (``method="uniform"``: i.i.d. with replacement; ``"stratified"``:
    one per contiguous rank stratum) and evaluates them in batches with
    the bitset evaluator of the exact census, so ``n <= 63``. No
    profile cap: sampling is exactly the regime past exhaustive reach.
    The estimate
    is invariant under ``workers`` / ``shard_count`` — shards split the
    *sample index* space and every shard re-derives the same rank draw.

    ``checkpoint_dir`` / ``resume`` / ``fault_plan`` / ``runtime_opts``
    run the scan on the fault-tolerant checkpointed runtime exactly as
    in :func:`census_scan` (manifests additionally pin ``seed`` and
    ``method``).

    See :class:`SampledCensusReport` for the estimator and confidence
    interval methodology.
    """
    from ..parallel.executor import contiguous_shards, parallel_map

    _reset_census_stats()
    version = Version.coerce(version)
    if samples < 1:
        raise GameError(f"samples must be positive, got {samples}")
    if method not in _SAMPLE_METHODS:
        raise GameError(
            f"unknown sampling method {method!r}; use one of {_SAMPLE_METHODS}"
        )
    if not 0.0 < confidence < 1.0:
        raise GameError(f"confidence must be in (0, 1), got {confidence}")
    if workers < 1:
        raise GameError(f"workers must be positive, got {workers}")
    _check_bitset_cap(game.n)
    if checkpoint_dir is None and (
        resume or fault_plan is not None or shard_count is not None
    ):
        raise GameError(
            "resume/fault_plan/shard_count require checkpoint_dir (the "
            "checkpointed runtime path)"
        )
    total = profile_space_size(game)
    if method != "uniform" and samples > total:
        raise GameError(
            f"{method!r} sampling draws one rank per stratum and needs "
            f"samples <= profile space ({samples} > {total})"
        )
    budgets = tuple(int(b) for b in game.budgets)

    def payload_for(lo: int, hi: int) -> tuple:
        return (budgets, version.value, lo, hi, samples, seed, method)

    if checkpoint_dir is not None:
        shards_t = _resolve_runtime_shards(
            checkpoint_dir,
            resume=resume,
            kind="sampled_census",
            budgets=budgets,
            total=samples,
            shard_count=shard_count,
            workers=workers,
            version=version.value,
            seed=seed,
            sample_method=method,
        )
        parts, _, _ = _run_census_shards(
            _sampled_census_shard,
            payload_for,
            _sampled_part_from_record,
            shards_t,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            fault_plan=fault_plan,
            runtime_opts=runtime_opts,
        )
    else:
        shards = contiguous_shards(samples, workers)
        payloads = [payload_for(lo, hi) for lo, hi in shards]
        parts = parallel_map(
            _sampled_census_shard, payloads, processes=workers
        )

    count, eq_count, hist = _merge_sampled_parts(parts)
    return _sampled_report(
        version=version,
        method=method,
        seed=seed,
        samples=samples,
        confidence=confidence,
        total=total,
        count=count,
        eq_count=eq_count,
        hist=hist,
    )


def exact_prices(
    game: BoundedBudgetGame,
    version: "Version | str",
    *,
    max_profiles: int = 500_000,
    symmetry: bool = False,
    workers: int = 1,
) -> ExactPriceReport:
    """Exact PoA / PoS of a tiny game by full enumeration.

    The report of :func:`census_scan`: one pass of the Gray-order walk
    and the bitset evaluator (optionally with ``symmetry`` orbit pruning
    and ``workers`` shards) computes the optimal diameter and the
    best/worst equilibrium diameters simultaneously. With ``symmetry``
    on a unit-budget game the orbit generator replaces the walk and
    ``workers`` is unused.
    """
    return census_scan(
        game,
        version,
        max_profiles=max_profiles,
        symmetry=symmetry,
        workers=workers,
    ).report
