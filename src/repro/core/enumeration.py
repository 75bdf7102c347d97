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
The kernel walks the profile space in **Gray order** instead of
materialising a fresh graph per profile: each player's strategy space
is laid out in *revolving-door* order (consecutive ``C(n-1, b)``
combinations differ by dropping one target and adding one), and the
per-player sequences are composed with a reflected mixed-radix Gray
code, so consecutive profiles of the whole walk differ by exactly one
arc swap of one player. That swap is applied in place to a single
mutable :class:`~repro.graphs.digraph.OwnedDigraph` and repaired by the
:class:`~repro.graphs.engine.DistanceEngine` delta machinery (via a
:class:`~repro.core.distance_cache.DistanceCache`), replacing the
rebuild-per-profile all-pairs BFS of the brute-force path with a
few-row repair per step. Equilibrium membership screens all players at
once with the vectorized Lemma 2.2 pass
(:func:`~repro.core.deviations.screen_best_responders`) over the
maintained matrix before any per-player ``exact()`` search runs.

**Symmetry pruning** (``symmetry=True``): players with equal budgets
induce profile-space orbits under the budget-preserving relabeling
group ``∏ Sym(budget class)``. A profile is *canonical* when its
ownership-adjacency bit key is minimal over its orbit; the walk keeps
all ``|group|`` relabeled keys up to date incrementally (two bit
toggles per group element per step), evaluates only canonical
representatives, and multiplies their contributions by the orbit size
``|group| / |stabilizer|``. Diameter and equilibrium membership are
orbit invariants, so the census is bit-identical with pruning on or
off.

**Sharding** (``workers > 1``): the Gray rank space splits into
contiguous ranges (one unranking per shard, then stepping), dispatched
through :func:`~repro.parallel.executor.parallel_map`; each worker owns
its own mutable graph and engine pool, and the merge of shard partials
is order-independent, so reports are identical for any worker count.

**Key format**: with symmetry pruning each relabeled profile is packed
into a **two-word (128-bit) key** — cell ``(a, b)`` occupies the bit
position :func:`~repro.core.isomorphism.chain_cell_positions` assigns
it, word ``position >> 6``, bit ``position & 63`` — so ``n^2 <= 128``
(``n <= 11``) works. The cell order is chain-aligned: cells the
stabilizer-chain descent reveals first are most significant, so the
incremental probe stage and the exact
:class:`~repro.core.isomorphism.BudgetStabilizerChain` recheck decide
minimality under the same total order. Checkpoint journals record the
key format version; v1 (single-word row-major) journals migrate on
resume when ``n^2 <= 64`` and fail loudly otherwise.

**Sampled census** (:func:`sampled_census_scan`): beyond exhaustive
reach, a seeded Monte Carlo draw of Gray ranks rides the same
unranking / engine-repair / shard / checkpoint machinery and reports
equilibrium-density and price-of-anarchy *estimates* with Wilson and
bootstrap confidence intervals. The ``"orbit"`` method canonicalises
each sampled profile through the stabilizer chain and memoises
verdicts per orbit — bit-identical histograms to ``"stratified"``,
cheaper when samples collide in orbit space.

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
from ..graphs.distances import diameter
from .costs import Version
from .deviations import is_equilibrium
from .distance_cache import DistanceCache
from .game import BoundedBudgetGame

__all__ = [
    "profile_space_size",
    "enumerate_realizations",
    "enumerate_equilibria",
    "revolving_door_combinations",
    "gray_profile_walk",
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

#: Symmetry pruning packs the ownership adjacency into a two-word
#: (128-bit) key per group element, which needs ``n^2 <= 128``.
_MAX_SYMMETRY_N: int = 11

#: Exact-stage survivor rechecks run through the stabilizer chain in
#: batches this large — the chain's per-key cost is lowest on modest
#: frontier sizes, so huge survivor sets are chunked, not one-shot.
_EXACT_CHUNK: int = 512


def _check_symmetry_cap(n: int) -> None:
    """Single source of the symmetry-pruning size cap (and its message).

    Both entry points — :func:`census_scan` up front and
    :class:`_OrbitKeys` at construction — raise through here, so the
    limit and its wording can never drift apart again.
    """
    if n > _MAX_SYMMETRY_N:
        raise GameError(
            f"symmetry pruning packs profiles into two-word 128-bit keys "
            f"and is capped at n = {_MAX_SYMMETRY_N} (n^2 <= 128), "
            f"got n = {n}"
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


def _gray_digit_stream(
    radices: Sequence[int], digits: "list[int]"
) -> Iterator[tuple[int, int, int]]:
    """Loop-free successor stream of the reflected mixed-radix Gray code.

    Mutates ``digits`` (the MSB-first digit vector of the current rank)
    in place and yields ``(position, old_digit, new_digit)`` per rank
    increment — the same sequence :func:`_gray_digits` produces rank by
    rank, at amortised O(1) per step instead of O(n). Directions are
    recovered from the reflection parity (digit ``i`` ascends iff the
    digits before it sum to an even number), so the stream can start at
    any rank — which is what lets census shards resume mid-sequence.
    """
    n = len(radices)
    o = []
    prefix = 0
    for i in range(n):
        o.append(1 if prefix % 2 == 0 else -1)
        prefix += digits[i]
    while True:
        for j in range(n - 1, -1, -1):
            d = digits[j] + o[j]
            if 0 <= d < radices[j]:
                old = digits[j]
                digits[j] = d
                # Positions right of j were at their extremes; passing
                # them flipped their direction already, which is exactly
                # the parity flip the changed digit at j implies.
                yield j, old, d
                break
            o[j] = -o[j]
        else:
            return  # rank space exhausted


def gray_profile_walk(
    game: BoundedBudgetGame,
    *,
    start: int = 0,
    stop: "int | None" = None,
    max_profiles: int = 2_000_000,
) -> Iterator[tuple[int, OwnedDigraph, "tuple[int, int, int] | None"]]:
    """Walk profile ranks ``[start, stop)`` in Gray order over ONE graph.

    Yields ``(rank, graph, swap)`` where ``graph`` is the same mutable
    :class:`OwnedDigraph` every time (snapshot with ``graph.copy()`` if
    you need to keep a profile) and ``swap`` is ``None`` for the first
    yield, then ``(player, dropped_target, added_target)`` — the single
    arc swap that produced this profile from the previous one. Ranks
    index the reflected-Gray order, not the lexicographic one;
    restarting at any ``start`` is O(n) (one unranking), which is what
    lets shards split the rank space.
    """
    _check_cap(game, max_profiles)
    n = game.n
    combos, radices, rests = _profile_tables(game)
    total = rests[0]
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise GameError(f"bad walk range [{start}, {stop}) for {total} profiles")
    if start == stop:
        return
    digits = _gray_digits(start, radices, rests)
    graph = OwnedDigraph.from_strategies(
        [combos[u][digits[u]] for u in range(n)], n
    )
    yield start, graph, None
    for rank in range(start + 1, stop):
        nxt = _gray_digits(rank, radices, rests)
        j = next(i for i in range(n) if nxt[i] != digits[i])
        old = combos[j][digits[j]]
        new = combos[j][nxt[j]]
        (dropped,) = set(old) - set(new)
        (added,) = set(new) - set(old)
        graph.remove_arc(j, dropped)
        graph.add_arc(j, added)
        digits = nxt
        yield rank, graph, (j, dropped, added)


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
    profile is packed into a **two-word (128-bit) key**: cell ``(a, b)``
    occupies bit position :func:`~repro.core.isomorphism.chain_cell_positions`
    ``[a, b]`` — word ``position >> 6``, bit ``position & 63`` — so
    ``n^2 <= 128`` works. Each present arc sets exactly one bit of one
    word, hence per-word ``uint64`` addition/subtraction (and the block
    cumulative sums below) stay exact with no cross-word carries; keys
    compare lexicographically as ``(hi, lo)``. A profile is canonical
    iff its own key (the identity element) is the orbit minimum; the
    orbit size follows from the stabilizer count. Keys are injective on
    directed graphs, so equal keys mean equal relabeled profiles.

    The cell order is the *chain-aligned* one — cells revealed early by
    the stabilizer-chain descent are most significant — shared verbatim
    with :class:`~repro.core.isomorphism.BudgetStabilizerChain`, so the
    probe stage and the exact stage decide minimality under the same
    total order.

    Two-stage evaluation keeps the per-profile cost sublinear in the
    group order: only a small **probe** subset — the identity plus
    every within-class transposition — is maintained incrementally
    (two gathers per Gray step). A probe key below the identity key
    certainly refutes canonicity; the rare survivors are collected
    across a whole Gray block and settled in one batched
    stabilizer-chain descent (:meth:`_exact_orbit_sizes`), whose cost
    tracks the profiles' automorphisms instead of the group order —
    the former whole-group gather (40320 rows at n = 8) survives only
    as the test reference :meth:`_reference_orbit_size`. When the
    group is no larger than the probe set the full group simply *is*
    the probe set and the exact stage is skipped. Both stages decide
    "is the identity key the orbit minimum" exactly, so the pruning
    decision — and hence the census — is bit-identical to the
    maintain-everything implementation it replaces.

    :meth:`advance_block` amortises the walk further: a whole block of
    Gray swaps becomes one ``(block, probes)`` cumulative-sum pass per
    word, so the per-profile Python and scan cost that used to dominate
    the n = 7 census collapses into a handful of vectorised passes.
    """

    __slots__ = (
        "_n",
        "_g",
        "_perms",
        "_probe_slot",
        "_cellpos",
        "_pos_heads",
        "_pos_tails",
        "_w_hi",
        "_w_lo",
        "_vals_hi",
        "_vals_lo",
        "_exact",
        "_chain",
    )

    def __init__(self, n: int, perms: np.ndarray) -> None:
        _check_symmetry_cap(n)
        from .isomorphism import (
            BudgetStabilizerChain,
            budget_class_transpositions,
            chain_cell_positions,
        )

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
        # Per-word weights of each bit position (exactly one is nonzero
        # per position, so per-word arithmetic never carries across).
        self._w_hi = np.zeros(n * n, dtype=np.uint64)
        self._w_lo = np.zeros(n * n, dtype=np.uint64)
        pos = np.arange(n * n)
        lo_mask = pos < 64
        self._w_lo[lo_mask] = np.uint64(1) << pos[lo_mask].astype(np.uint64)
        self._w_hi[~lo_mask] = np.uint64(1) << (
            pos[~lo_mask].astype(np.uint64) - np.uint64(64)
        )
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
        self._vals_hi = np.zeros(p_count, dtype=np.uint64)
        self._vals_lo = np.zeros(p_count, dtype=np.uint64)

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

    def _adjs_from_keys(
        self, his: np.ndarray, los: np.ndarray
    ) -> np.ndarray:
        """Ownership adjacencies ``(K, n, n)`` rebuilt from identity keys."""
        n = self._n
        shifts = np.arange(64, dtype=np.uint64)
        lo_bits = (los[:, None] >> shifts[None, :]) & np.uint64(1)
        hi_bits = (his[:, None] >> shifts[None, :]) & np.uint64(1)
        bits = np.concatenate([lo_bits, hi_bits], axis=1)[:, : n * n] != 0
        adjs = np.zeros((his.size, n, n), dtype=bool)
        adjs[:, self._pos_heads, self._pos_tails] = bits
        return adjs

    def _exact_orbit_sizes(
        self, his: np.ndarray, los: np.ndarray
    ) -> np.ndarray:
        """Batched stabilizer-chain decision for probe-stage survivors.

        Rebuilds each survivor's adjacency from its identity key and
        descends the chain once for the whole batch (chunked at
        ``_EXACT_CHUNK``): a survivor is canonical iff the chain's
        orbit-minimal key equals its own, and its orbit size is
        ``|G| / |stabilizer|``. Returns ``int64`` sizes with ``0`` for
        refuted (non-canonical) survivors.
        """
        sizes = np.zeros(his.size, dtype=np.int64)
        for s in range(0, his.size, _EXACT_CHUNK):
            chunk_hi = his[s : s + _EXACT_CHUNK]
            chunk_lo = los[s : s + _EXACT_CHUNK]
            adjs = self._adjs_from_keys(chunk_hi, chunk_lo)
            min_hi, min_lo, stab = self._chain.minimal_images(adjs)
            canon = (min_hi == chunk_hi) & (min_lo == chunk_lo)
            out = np.zeros(chunk_hi.size, dtype=np.int64)
            out[canon] = self._g // stab[canon]
            sizes[s : s + chunk_hi.size] = out
        return sizes

    def _reference_orbit_size(self, key_hi: int, key_lo: int) -> "int | None":
        """Whole-group gather decision for one survivor (test reference).

        The pre-chain implementation of the exact stage: rebuild the
        arc list from the identity key and gather every group element's
        key — ``O(g * m)``. Kept (lazily, off the stored ``perms``)
        so the suites can pit the chain against it; the census itself
        never calls this.
        """
        key_hi = np.uint64(key_hi)
        key_lo = np.uint64(key_lo)
        adj = self._adjs_from_keys(
            np.asarray([key_hi]), np.asarray([key_lo])
        )[0]
        heads, tails = (idx.astype(np.int64) for idx in np.nonzero(adj))
        inv = np.argsort(self._perms, axis=1)
        if heads.size:
            slot = self._cellpos[inv[:, heads], inv[:, tails]]
            vals_hi = self._w_hi[slot].sum(axis=1, dtype=np.uint64)
            vals_lo = self._w_lo[slot].sum(axis=1, dtype=np.uint64)
        else:
            vals_hi = np.zeros(self._g, dtype=np.uint64)
            vals_lo = np.zeros(self._g, dtype=np.uint64)
        lt = (vals_hi < key_hi) | ((vals_hi == key_hi) & (vals_lo < key_lo))
        if lt.any():
            return None
        eq = (vals_hi == key_hi) & (vals_lo == key_lo)
        return self._g // int(eq.sum())

    def export_state(self) -> "tuple[int, ...]":
        """Probe-key vector as JSON-safe ints (checkpoint payload).

        Format 2 (the current one): the two words of each probe key,
        interleaved ``(hi, lo)`` per probe — tuple length is twice the
        probe count. The vector is a pure function of the current
        profile (each present arc contributes one weight per probe), so
        a resumed walk could equally recompute it from the rebuilt
        graph — storing it verbatim keeps the checkpoint self-contained
        and the restore O(probes).
        """
        out = []
        for hi, lo in zip(self._vals_hi, self._vals_lo):
            out.append(int(hi))
            out.append(int(lo))
        return tuple(out)

    def _migrate_v1_key(self, key: int) -> "tuple[int, int]":
        """Re-encode one v1 (row-major uint64) key as ``(hi, lo)``.

        v1 keys put arc ``(a, b)`` at bit ``a*n + b``; the two-word
        format puts it at the chain cell position. Only meaningful when
        every cell fits a v1 key, i.e. ``n^2 <= 64`` — the caller
        guards.
        """
        n = self._n
        hi = lo = 0
        for p_old in range(n * n):
            if (key >> p_old) & 1:
                a, b = divmod(p_old, n)
                p = int(self._cellpos[a, b])
                if p >= 64:
                    hi |= 1 << (p - 64)
                else:
                    lo |= 1 << p
        return hi, lo

    def restore_state(
        self, vals: "Sequence[int]", *, key_format: int = 2
    ) -> None:
        """Adopt a probe-key vector exported by :meth:`export_state`.

        ``key_format=2`` expects the interleaved two-word vector this
        code writes. ``key_format=1`` migrates a 64-bit (row-major)
        vector journalled by the pre-128-bit code — valid only when
        ``n^2 <= 64``; otherwise (or for an unknown format) the resume
        fails loudly rather than silently miscounting.
        """
        p_count = self._vals_hi.shape[0]
        ints = [int(v) for v in vals]
        if key_format == 2:
            if len(ints) != 2 * p_count:
                raise CheckpointError(
                    f"orbit state has {len(ints)} words, walk maintains "
                    f"{p_count} probe keys ({2 * p_count} words)"
                )
            arr = np.asarray(ints, dtype=np.uint64)
            self._vals_hi = arr[0::2].copy()
            self._vals_lo = arr[1::2].copy()
            return
        if key_format == 1:
            if self._n * self._n > 64:
                raise CheckpointError(
                    f"checkpoint carries v1 (64-bit) orbit keys but "
                    f"n = {self._n} needs the two-word format; this "
                    f"journal cannot have been written for this game — "
                    f"delete the checkpoint directory and rerun"
                )
            if len(ints) != p_count:
                raise CheckpointError(
                    f"v1 orbit state has {len(ints)} probe keys, walk "
                    f"maintains {p_count}"
                )
            pairs = [self._migrate_v1_key(v) for v in ints]
            self._vals_hi = np.asarray(
                [hi for hi, _ in pairs], dtype=np.uint64
            )
            self._vals_lo = np.asarray(
                [lo for _, lo in pairs], dtype=np.uint64
            )
            return
        raise CheckpointError(
            f"unknown orbit key format {key_format!r} (this build reads "
            f"formats 1 and 2)"
        )

    def toggle(self, i: int, j: int, present: bool) -> None:
        """Record that arc ``i -> j`` was added (or removed)."""
        slot = self._probe_slot[:, i, j]
        delta_hi = self._w_hi[slot]
        delta_lo = self._w_lo[slot]
        if present:
            self._vals_hi += delta_hi
            self._vals_lo += delta_lo
        else:
            self._vals_hi -= delta_hi
            self._vals_lo -= delta_lo

    def canonical_orbit_size(self) -> "int | None":
        """Orbit size if the current profile is canonical, else ``None``."""
        key_hi = self._vals_hi[0]  # identity relabeling = the profile
        key_lo = self._vals_lo[0]
        lt = (self._vals_hi < key_hi) | (
            (self._vals_hi == key_hi) & (self._vals_lo < key_lo)
        )
        if lt.any():
            return None
        if not self._exact:
            eq = (self._vals_hi == key_hi) & (self._vals_lo == key_lo)
            return self._g // int(eq.sum())
        size = int(
            self._exact_orbit_sizes(
                np.asarray([key_hi]), np.asarray([key_lo])
            )[0]
        )
        return size if size else None

    def advance_block(
        self, js: np.ndarray, drops: np.ndarray, adds: np.ndarray
    ) -> np.ndarray:
        """Apply a block of Gray arc swaps; orbit sizes per step.

        Step ``t`` replaces arc ``js[t] -> drops[t]`` with
        ``js[t] -> adds[t]``. Returns an ``int64`` array with the orbit
        size at each post-swap profile for canonical profiles and ``0``
        for non-canonical ones. One cumulative-sum pass per word
        maintains every probe key across the whole block (``uint64``
        wrap-around is exact: all true partial sums are valid keys);
        survivors of the probe minimum test are settled together in one
        batched stabilizer-chain recheck, so the exact-stage cost stops
        scaling with the group order.
        """
        slot_adds = self._probe_slot[:, js, adds]
        slot_drops = self._probe_slot[:, js, drops]
        deltas_hi = (self._w_hi[slot_adds] - self._w_hi[slot_drops]).T
        deltas_lo = (self._w_lo[slot_adds] - self._w_lo[slot_drops]).T
        block_hi = self._vals_hi[None, :] + np.cumsum(deltas_hi, axis=0)
        block_lo = self._vals_lo[None, :] + np.cumsum(deltas_lo, axis=0)
        self._vals_hi = block_hi[-1].copy()
        self._vals_lo = block_lo[-1].copy()
        keys_hi = block_hi[:, 0]
        keys_lo = block_lo[:, 0]
        lt = (block_hi < keys_hi[:, None]) | (
            (block_hi == keys_hi[:, None]) & (block_lo < keys_lo[:, None])
        )
        candidates = ~lt.any(axis=1)
        sizes = np.zeros(js.size, dtype=np.int64)
        hits = np.flatnonzero(candidates)
        if not hits.size:
            return sizes
        if not self._exact:
            eq = (block_hi[hits] == keys_hi[hits, None]) & (
                block_lo[hits] == keys_lo[hits, None]
            )
            sizes[hits] = self._g // eq.sum(axis=1)
            return sizes
        sizes[hits] = self._exact_orbit_sizes(keys_hi[hits], keys_lo[hits])
        return sizes


def _expand_orbit(
    profile: "tuple[tuple[int, ...], ...]", perms: np.ndarray
) -> "set[tuple[tuple[int, ...], ...]]":
    """All distinct relabelings of a profile under the group."""
    out = set()
    for perm in perms:
        relabeled = [()] * len(profile)
        for i, strat in enumerate(profile):
            relabeled[int(perm[i])] = tuple(sorted(int(perm[v]) for v in strat))
        out.add(tuple(relabeled))
    return out


# ----------------------------------------------------------------------
# Incremental census kernel
# ----------------------------------------------------------------------
#: Gray swaps per vectorised orbit-key block of the symmetry census.
_ORBIT_BLOCK: int = 2048

def _census_shard(payload: tuple, ctx=None) -> "dict[str, object]":
    """One contiguous Gray-rank range of the census (worker function).

    Owns a private mutable graph, engine pool and orbit keys; returns
    order-independently mergeable partial aggregates.

    With symmetry pruning the shard is a **canonical-rep-only walk**:
    the Gray swap stream advances digits at amortised O(1) per rank,
    orbit keys advance in vectorised :meth:`_OrbitKeys.advance_block`
    blocks, and the graph (plus its engine pool) is only materialised
    at the sparse canonical ranks — skipped profiles never touch the
    graph at all, which is what breaks the n = 7 barrier.

    ``ctx`` (a :class:`~repro.parallel.runtime.ShardContext`) makes the
    shard checkpointable: progress records go to the shard journal at
    ``ctx.interval`` rank spacing, and ``ctx.resume_state`` restarts
    the walk mid-range — counters and orbit probe keys restored
    verbatim, the graph rebuilt at rank ``next_rank - 1`` with one
    unranking — without re-counting any rank. ``ctx=None`` is the
    plain :func:`~repro.parallel.executor.parallel_map` path,
    bit-identical to the checkpointed one.
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
    resume_rec = ctx.resume_state if ctx is not None else None
    if resume_rec is not None and resume_rec.next_rank <= lo:
        resume_rec = None  # vacuous progress: run the shard fresh
    count = 0
    eq_count = 0
    opt: "int | None" = None
    best_eq: "int | None" = None
    worst_eq: "int | None" = None
    eq_profiles: "list[tuple[tuple[int, ...], ...]]" = []
    start = lo
    if resume_rec is not None:
        c = resume_rec.counters
        count = int(c["count"] or 0)
        eq_count = int(c["eq_count"] or 0)
        opt = c["opt"]
        best_eq = c["best_eq"]
        worst_eq = c["worst_eq"]
        if collect and resume_rec.eq_profiles is not None:
            eq_profiles = list(resume_rec.eq_profiles)
        start = resume_rec.next_rank

    def counters() -> "dict[str, int | None]":
        return {
            "count": count,
            "eq_count": eq_count,
            "opt": opt,
            "best_eq": best_eq,
            "worst_eq": worst_eq,
        }

    def part() -> "dict[str, object]":
        out: "dict[str, object]" = counters()
        out["eq_profiles"] = eq_profiles if collect else None
        return out

    def save(next_rank: int, *, done: bool = False) -> None:
        if ctx is None:
            return
        ctx.checkpoint(
            lo=lo,
            hi=hi,
            next_rank=next_rank,
            counters=counters(),
            eq_profiles=tuple(eq_profiles) if collect else None,
            orbit_vals=orbit.export_state() if orbit is not None else None,
            done=done,
        )

    if start >= hi:
        if lo <= hi:
            save(hi, done=True)
        return part()
    _check_cap(game, max_profiles)
    combos, radices, rests = _profile_tables(game)
    cursor = start - 1 if resume_rec is not None else lo
    digits = _gray_digits(cursor, radices, rests)
    graph = OwnedDigraph.from_strategies(
        [combos[u][digits[u]] for u in range(n)], n
    )
    cache = DistanceCache(graph, dirty_fraction="adaptive")
    if orbit is not None:
        if resume_rec is not None and resume_rec.orbit_vals is not None:
            orbit.restore_state(
                resume_rec.orbit_vals,
                key_format=resume_rec.orbit_key_format,
            )
        else:
            for a, b in graph.arcs():
                orbit.toggle(a, b, True)
    gdigits = list(digits)  # digit vector the materialised graph reflects

    # trans[j][d]: the (dropped, added) targets of player j's
    # revolving-door step d -> d+1, precomputed once so the per-rank
    # loop decodes a swap with one tuple lookup instead of two set
    # differences.
    trans = [
        [
            (
                next(iter(set(cj[d]) - set(cj[d + 1]))),
                next(iter(set(cj[d + 1]) - set(cj[d]))),
            )
            for d in range(len(cj) - 1)
        ]
        for cj in combos
    ]

    def decode_swap(j: int, old_d: int, new_d: int) -> "tuple[int, int]":
        """(dropped, added) targets of the digit move ``old_d -> new_d``."""
        if new_d == old_d + 1:
            return trans[j][old_d]
        added, dropped = trans[j][new_d]
        return dropped, added

    def evaluate(pdigits: "list[int]", orbit_size: int) -> None:
        """Materialise the profile at ``pdigits`` and census it."""
        nonlocal count, eq_count, opt, best_eq, worst_eq
        for j in range(n):
            if gdigits[j] != pdigits[j]:
                graph.set_strategy(j, combos[j][pdigits[j]])
                gdigits[j] = pdigits[j]
        d = int(cache.base().matrix.max()) if n > 1 else 0
        count += orbit_size
        if opt is None or d < opt:
            opt = d
        if is_equilibrium(graph, version, cache=cache):
            eq_count += orbit_size
            if best_eq is None or d < best_eq:
                best_eq = d
            if worst_eq is None or d > worst_eq:
                worst_eq = d
            if collect:
                key = graph.profile_key()
                if perms is not None and orbit_size > 1:
                    eq_profiles.extend(_expand_orbit(key, perms))
                else:
                    eq_profiles.append(key)

    if resume_rec is None:
        # The cursor rank itself is only censused on a fresh start; a
        # resumed walk already aggregated it (``[lo, next_rank)`` done).
        first_size = 1 if orbit is None else orbit.canonical_orbit_size()
        if first_size is not None:
            evaluate(digits, first_size)

    interval = ctx.interval if ctx is not None else 0
    next_cp = start + interval if interval else None

    if orbit is None:
        # Every rank is evaluated: apply each swap as a single-arc delta
        # so the engine pool repairs (and step-forwards) one op at a time.
        stream = _gray_digit_stream(radices, digits)
        for rank in range(cursor + 1, hi):
            j, old_d, new_d = next(stream)
            dropped, added = decode_swap(j, old_d, new_d)
            graph.remove_arc(j, dropped)
            graph.add_arc(j, added)
            gdigits[j] = new_d
            evaluate(digits, 1)
            if ctx is not None:
                ctx.tick(rank)
                if next_cp is not None and rank + 1 >= next_cp and rank + 1 < hi:
                    save(rank + 1)
                    next_cp = rank + 1 + interval
    else:
        # Canonical-rep-only walk: batch the swap stream into blocks,
        # advance all probe keys per block in one vectorised pass, and
        # only touch the graph at the (rare) canonical ranks.
        # Checkpoints land on block boundaries: ``orbit._vals`` and the
        # stream's digit vector both describe the block's last rank
        # there, exactly the ``next_rank - 1`` state a resume rebuilds.
        stream = _gray_digit_stream(radices, digits)
        pdigits = list(digits)  # digit vector at the evaluation pointer
        rank = cursor + 1
        js = np.empty(_ORBIT_BLOCK, dtype=np.int64)
        drops = np.empty(_ORBIT_BLOCK, dtype=np.int64)
        adds = np.empty(_ORBIT_BLOCK, dtype=np.int64)
        newds = np.empty(_ORBIT_BLOCK, dtype=np.int64)
        while rank < hi:
            b = min(_ORBIT_BLOCK, hi - rank)
            for t in range(b):
                j, old_d, new_d = next(stream)
                dropped, added = decode_swap(j, old_d, new_d)
                js[t] = j
                drops[t] = dropped
                adds[t] = added
                newds[t] = new_d
            sizes = orbit.advance_block(js[:b], drops[:b], adds[:b])
            ptr = 0
            for t in np.flatnonzero(sizes):
                for t2 in range(ptr, int(t) + 1):
                    pdigits[int(js[t2])] = int(newds[t2])
                ptr = int(t) + 1
                evaluate(pdigits, int(sizes[t]))
            for t2 in range(ptr, b):
                pdigits[int(js[t2])] = int(newds[t2])
            rank += b
            if ctx is not None:
                ctx.tick(rank - 1)
                if next_cp is not None and rank >= next_cp and rank < hi:
                    save(rank)
                    next_cp = rank + interval
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


def _merge_unit_parts(
    parts: "list[dict]",
    *,
    version: Version,
    total: int,
    collect: bool,
    expect_full: bool = True,
):
    """Order-independent merge of unit-census shard partials.

    ``expect_full=False`` is the degraded (quarantine) merge: coverage
    may fall short of ``total`` and every reduction guards against an
    empty covered set.
    """
    count = sum(p["count"] for p in parts)
    if expect_full:
        assert count == total, f"census covered {count} of {total} profiles"
    eq_count = sum(p["eq_count"] for p in parts)
    opts = [p["opt"] for p in parts if p["opt"] is not None]
    bests = [p["best_eq"] for p in parts if p["best_eq"] is not None]
    worsts = [p["worst_eq"] for p in parts if p["worst_eq"] is not None]
    report = ExactPriceReport(
        version=version,
        num_profiles=count,
        num_equilibria=eq_count,
        opt_diameter=min(opts) if opts else 0,
        best_equilibrium_diameter=min(bests) if bests else None,
        worst_equilibrium_diameter=max(worsts) if worsts else None,
    )
    equilibria = None
    if collect:
        merged: "list[tuple[tuple[int, ...], ...]]" = []
        for p in parts:
            if p["eq_profiles"]:
                merged.extend(p["eq_profiles"])
        equilibria = tuple(sorted(merged))
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
    """Full equilibrium census via the incremental Gray-order kernel.

    One pass over the profile space (or its canonical orbit
    representatives with ``symmetry=True``) computes the optimal
    diameter, the equilibrium count, and the best/worst equilibrium
    diameters; ``workers > 1`` splits the rank space into contiguous
    shards executed through :func:`repro.parallel.executor.parallel_map`;
    every shard builds its start matrix from scratch. The result is
    bit-identical for every combination of knobs.

    ``checkpoint_dir`` switches execution to the fault-tolerant
    work-stealing runtime (:func:`repro.parallel.runtime.run_shards`):
    shards journal their progress there, ``resume=True`` continues an
    interrupted run from the journals (after a manifest handshake), and
    ``fault_plan`` / ``shard_count`` / ``runtime_opts`` expose the
    fault-injection harness, the shard decomposition width, and the
    supervisor's tuning knobs. Checkpointed results are bit-identical
    to the static path; only a run that quarantines poison shards
    degrades — explicitly, via :attr:`CensusResult.incomplete`.
    """
    from ..parallel.executor import contiguous_shards, parallel_map

    _reset_census_stats()
    version = Version.coerce(version)
    if symmetry:
        _check_symmetry_cap(game.n)
    _check_cap(game, max_profiles)
    if workers < 1:
        raise GameError(f"workers must be positive, got {workers}")
    if checkpoint_dir is None and (
        resume or fault_plan is not None or shard_count is not None
    ):
        raise GameError(
            "resume/fault_plan/shard_count require checkpoint_dir (the "
            "checkpointed runtime path)"
        )
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

    Each profile is tested with the exact per-player engine (with the
    Lemma 2.2 shortcut), so membership is provably correct. The default
    incremental kernel returns the identical list (lexicographic
    profile order) as the ``incremental=False`` rebuild-per-profile
    reference path.
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

    Owns a private mutable graph and weighted engine pool; every swap
    verdict routes through the cache, so consecutive profiles cost one
    single-arc delta repair per touched engine instead of a fresh
    all-pairs BFS per player.

    ``ctx`` enables checkpointing and mid-range resume exactly as in
    :func:`_census_shard`: the walk restarts at ``next_rank - 1`` (one
    unranking seeds the graph and its engine), the
    already-counted cursor rank is skipped, and counters continue
    verbatim — the merge is bit-identical to an uninterrupted run.
    """
    # Imported lazily: analysis.weighted consumes core modules, so a
    # top-level import here would cycle through the package __init__s.
    from ..analysis.weighted import WeightedRealization, is_weighted_weak_equilibrium
    from .distance_cache import WeightedDistanceCache

    budgets, weights, lo, hi, collect, max_profiles = payload
    game = BoundedBudgetGame(list(budgets))
    w = np.asarray(weights, dtype=np.int64)
    resume_rec = ctx.resume_state if ctx is not None else None
    if resume_rec is not None and resume_rec.next_rank <= lo:
        resume_rec = None  # vacuous progress: run the shard fresh
    count = 0
    eq_count = 0
    opt_d: "int | None" = None
    opt_c: "int | None" = None
    best_d = worst_d = best_c = worst_c = None
    eq_profiles: "list[tuple[tuple[int, ...], ...]]" = []
    start = lo
    if resume_rec is not None:
        c = resume_rec.counters
        count = int(c["count"] or 0)
        eq_count = int(c["eq_count"] or 0)
        opt_d, opt_c = c["opt_d"], c["opt_c"]
        best_d, worst_d = c["best_d"], c["worst_d"]
        best_c, worst_c = c["best_c"], c["worst_c"]
        if collect and resume_rec.eq_profiles is not None:
            eq_profiles = list(resume_rec.eq_profiles)
        start = resume_rec.next_rank

    def counters() -> "dict[str, int | None]":
        return {
            "count": count,
            "eq_count": eq_count,
            "opt_d": opt_d,
            "opt_c": opt_c,
            "best_d": best_d,
            "worst_d": worst_d,
            "best_c": best_c,
            "worst_c": worst_c,
        }

    def part() -> "dict[str, object]":
        out: "dict[str, object]" = counters()
        out["eq_profiles"] = eq_profiles if collect else None
        return out

    def save(next_rank: int, *, done: bool = False) -> None:
        if ctx is None:
            return
        ctx.checkpoint(
            lo=lo,
            hi=hi,
            next_rank=next_rank,
            counters=counters(),
            eq_profiles=tuple(eq_profiles) if collect else None,
            done=done,
        )

    if start >= hi:
        if lo <= hi:
            save(hi, done=True)
        return part()
    cursor = start - 1 if resume_rec is not None else lo
    interval = ctx.interval if ctx is not None else 0
    next_cp = start + interval if interval else None
    cache: "WeightedDistanceCache | None" = None
    wr = None
    active = None
    for rank, graph, swap in gray_profile_walk(
        game, start=cursor, stop=hi, max_profiles=max_profiles
    ):
        if cache is None:
            cache = WeightedDistanceCache(graph)
            wr = WeightedRealization(graph=graph, weights=w)
            active = wr.active
        if resume_rec is not None and rank == cursor:
            continue  # already aggregated by the checkpointed prefix
        count += 1
        D = cache.base().matrix
        d = int(D.max())
        cost = int((D.astype(np.int64) @ w)[active].sum())
        if opt_d is None or d < opt_d:
            opt_d = d
        if opt_c is None or cost < opt_c:
            opt_c = cost
        if is_weighted_weak_equilibrium(wr, cache=cache):
            eq_count += 1
            if best_d is None or d < best_d:
                best_d = d
            if worst_d is None or d > worst_d:
                worst_d = d
            if best_c is None or cost < best_c:
                best_c = cost
            if worst_c is None or cost > worst_c:
                worst_c = cost
            if collect:
                eq_profiles.append(graph.profile_key())
        if ctx is not None:
            ctx.tick(rank)
            if next_cp is not None and rank + 1 >= next_cp and rank + 1 < hi:
                save(rank + 1)
                next_cp = rank + 1 + interval
    save(hi, done=True)
    return part()


def _merge_weighted_parts(
    parts: "list[dict]",
    *,
    weights_t: "tuple[int, ...]",
    total: int,
    collect: bool,
    expect_full: bool = True,
):
    """Order-independent merge of weighted-census shard partials."""
    count = sum(p["count"] for p in parts)
    if expect_full:
        assert count == total, f"census covered {count} of {total} profiles"
    eq_count = sum(p["eq_count"] for p in parts)

    def _merge(key, fn):
        vals = [p[key] for p in parts if p[key] is not None]
        return fn(vals) if vals else None

    report = WeightedCensusReport(
        weights=weights_t,
        num_profiles=count,
        num_weak_equilibria=eq_count,
        opt_diameter=_merge("opt_d", min),
        opt_social_cost=_merge("opt_c", min),
        best_equilibrium_diameter=_merge("best_d", min),
        worst_equilibrium_diameter=_merge("worst_d", max),
        best_equilibrium_social_cost=_merge("best_c", min),
        worst_equilibrium_social_cost=_merge("worst_c", max),
    )
    equilibria = None
    if collect:
        merged: list = []
        for p in parts:
            if p["eq_profiles"]:
                merged.extend(p["eq_profiles"])
        equilibria = tuple(sorted(merged))
    return report, equilibria


def weighted_census_scan(
    game: BoundedBudgetGame,
    weights: "Sequence[int] | np.ndarray",
    *,
    max_profiles: int = 500_000,
    workers: int = 1,
    incremental: bool = True,
    collect_equilibria: bool = False,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    fault_plan=None,
    shard_count: "int | None" = None,
    runtime_opts: "dict | None" = None,
) -> "tuple[WeightedCensusReport, tuple | None]":
    """Full weighted weak-equilibrium census via the Gray-order kernel.

    One engine-repaired pass over the profile space counts the profiles
    that are weighted weak equilibria for the given positive vertex
    weights and tracks diameter / weighted-social-cost extrema;
    ``workers > 1`` shards the rank space. ``incremental=False`` runs
    the retained rebuild-per-profile reference path (fresh graph and
    fresh BFS sweeps per profile) — reports and collected equilibrium
    sets are bit-identical for every knob combination. Vertex weights
    break player symmetry, so there is no orbit pruning here.

    Returns ``(report, equilibria)`` where ``equilibria`` is a sorted
    tuple of profile keys when ``collect_equilibria=True``, else
    ``None``.

    Weight-0 vertices follow the Section 6 *folded ghost* semantics of
    :func:`~repro.analysis.weighted.is_weighted_weak_equilibrium`: they
    are neither checked for deviations nor legal swap targets (though
    the profile space may still wire arcs to them — give a vertex
    weight 1 if it should remain a live member of the folded graph).

    ``checkpoint_dir`` / ``resume`` / ``fault_plan`` / ``shard_count``
    / ``runtime_opts`` select the fault-tolerant checkpointed runtime
    exactly as in :func:`census_scan` (incremental path only). The
    2-tuple return shape is preserved; a degraded run's incompleteness
    manifest is published through :data:`LAST_CENSUS_RUNTIME_STATS`.
    """
    from ..analysis.weighted import WeightedRealization, is_weighted_weak_equilibrium

    _reset_census_stats()
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
    if checkpoint_dir is not None and not incremental:
        raise GameError(
            "the checkpointed runtime requires the incremental census kernel"
        )
    weights_t = tuple(int(x) for x in w)
    if incremental:
        from ..parallel.executor import contiguous_shards, parallel_map

        total = profile_space_size(game)
        budgets = tuple(int(b) for b in game.budgets)

        def payload_for(lo: int, hi: int) -> tuple:
            return (
                budgets, weights_t, lo, hi, collect_equilibria, max_profiles
            )

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
        parts = parallel_map(
            _weighted_census_shard, payloads, processes=workers
        )
        return _merge_weighted_parts(
            parts, weights_t=weights_t, total=total, collect=collect_equilibria
        )

    if workers != 1:
        raise GameError("workers require the incremental weighted census kernel")
    from ..graphs.distances import distance_matrix

    active = np.flatnonzero(w > 0).astype(np.int64)
    count = 0
    eq_count = 0
    opt_d = opt_c = None
    best_d = worst_d = best_c = worst_c = None
    eq_profiles: list = []
    for graph in enumerate_realizations(game, max_profiles=max_profiles):
        count += 1
        D = distance_matrix(graph)
        d = int(D.max())
        cost = int((D @ w)[active].sum())
        if opt_d is None or d < opt_d:
            opt_d = d
        if opt_c is None or cost < opt_c:
            opt_c = cost
        wr = WeightedRealization(graph=graph, weights=w)
        if is_weighted_weak_equilibrium(wr):
            eq_count += 1
            best_d = d if best_d is None else min(best_d, d)
            worst_d = d if worst_d is None else max(worst_d, d)
            best_c = cost if best_c is None else min(best_c, cost)
            worst_c = cost if worst_c is None else max(worst_c, cost)
            if collect_equilibria:
                eq_profiles.append(graph.profile_key())
    report = WeightedCensusReport(
        weights=weights_t,
        num_profiles=count,
        num_weak_equilibria=eq_count,
        opt_diameter=opt_d,
        opt_social_cost=opt_c,
        best_equilibrium_diameter=best_d,
        worst_equilibrium_diameter=worst_d,
        best_equilibrium_social_cost=best_c,
        worst_equilibrium_social_cost=worst_c,
    )
    equilibria = tuple(sorted(eq_profiles)) if collect_equilibria else None
    return report, equilibria


# ----------------------------------------------------------------------
# Monte Carlo sampled census
# ----------------------------------------------------------------------

#: ``derive_seed`` domain tags: the rank draws and the bootstrap
#: resampler must be independent streams of the same user seed.
_SAMPLED_DRAW_TAG: int = 1101
_SAMPLED_BOOT_TAG: int = 1102

#: The sampling methods :func:`sampled_census_scan` accepts.
_SAMPLE_METHODS: "tuple[str, ...]" = ("uniform", "stratified", "orbit")


def _sampled_ranks(
    total: int, samples: int, seed: int, method: str
) -> "list[int]":
    """The deterministic sorted Gray-rank draw of one sampled run.

    Shared verbatim by the parent and every shard — a shard re-derives
    the full list and evaluates its slice of *sample indices*, which is
    what makes the estimate worker-count invariant. ``"uniform"`` draws
    ``samples`` i.i.d. ranks (with replacement); ``"stratified"`` and
    ``"orbit"`` draw one rank per contiguous stratum of the rank space
    — deliberately from the *same* stream, so the orbit method's
    memoised estimator is bit-identical to the stratified one. Draws go
    through :class:`random.Random` (not numpy) because profile spaces
    overflow 64 bits long before they overflow Python ints.
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
    Gray ranks. Each sample is one O(n) unranking plus a strategy diff
    against the previous sample's graph, repaired by the engine delta
    machinery; verdicts accumulate
    into a ``(diameter, is_eq)`` histogram that the merge turns into
    density / PoA estimates. The ``"orbit"`` method canonicalises every
    sample through the stabilizer chain first and memoises verdicts per
    orbit key, skipping the graph entirely on a hit.
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
    n = game.n
    total = profile_space_size(game)
    ranks = _sampled_ranks(total, samples, seed, method)
    resume_rec = ctx.resume_state if ctx is not None else None
    if resume_rec is not None and resume_rec.next_rank <= lo:
        resume_rec = None  # vacuous progress: run the shard fresh
    count = 0
    eq_count = 0
    hist: "dict[str, int]" = {}
    start = lo
    if resume_rec is not None:
        c = resume_rec.counters
        count = int(c["count"] or 0)
        eq_count = int(c["eq_count"] or 0)
        for k, v in c.items():
            if k.startswith("d:"):
                hist[k] = int(v or 0)
        start = resume_rec.next_rank

    def counters() -> "dict[str, int | None]":
        out: "dict[str, int | None]" = {"count": count, "eq_count": eq_count}
        out.update(hist)
        return out

    def part() -> "dict[str, object]":
        return dict(counters())

    def save(next_index: int, *, done: bool = False) -> None:
        if ctx is None:
            return
        ctx.checkpoint(
            lo=lo, hi=hi, next_rank=next_index, counters=counters(), done=done
        )

    if start >= hi:
        if lo <= hi:
            save(hi, done=True)
        return part()
    combos, radices, rests = _profile_tables(game)
    digits = _gray_digits(ranks[start], radices, rests)
    graph = OwnedDigraph.from_strategies(
        [combos[u][digits[u]] for u in range(n)], n
    )
    # Recycle retired matrix buffers process-locally: serial batteries
    # re-scan same-sized games back to back, and the shared cache's
    # rebind path skips their reallocations.
    from ..parallel.sweep import shared_distance_cache

    cache = shared_distance_cache(graph, dirty_fraction="adaptive")
    gdigits = list(digits)

    chain = None
    memo: "dict[tuple[int, int], tuple[int, bool]]" = {}
    if method == "orbit":
        from .isomorphism import BudgetStabilizerChain

        chain = BudgetStabilizerChain(budgets)

    def ownership_adj(pdigits: "list[int]") -> np.ndarray:
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            adj[u, list(combos[u][pdigits[u]])] = True
        return adj

    def evaluate(pdigits: "list[int]") -> "tuple[int, bool]":
        for j in range(n):
            if gdigits[j] != pdigits[j]:
                graph.set_strategy(j, combos[j][pdigits[j]])
                gdigits[j] = pdigits[j]
        d = int(cache.base().matrix.max()) if n > 1 else 0
        return d, bool(is_equilibrium(graph, version, cache=cache))

    interval = ctx.interval if ctx is not None else 0
    next_cp = start + interval if interval else None
    for i in range(start, hi):
        pdigits = (
            digits if i == start else _gray_digits(ranks[i], radices, rests)
        )
        verdict = None
        if chain is not None:
            min_hi, min_lo, _ = chain.minimal_images(
                ownership_adj(pdigits)[None, :, :]
            )
            ckey = (int(min_hi[0]), int(min_lo[0]))
            verdict = memo.get(ckey)
        if verdict is None:
            verdict = evaluate(pdigits)
            if chain is not None:
                memo[ckey] = verdict
        d, eq = verdict
        count += 1
        eq_count += int(eq)
        hkey = f"d:{d}:{int(eq)}"
        hist[hkey] = hist.get(hkey, 0) + 1
        if ctx is not None:
            ctx.tick(i)
            if next_cp is not None and i + 1 >= next_cp and i + 1 < hi:
                save(i + 1)
                next_cp = i + 1 + interval
    save(hi, done=True)
    return part()


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
    (``"uniform"``) and one-draw-per-stratum (``"stratified"`` /
    ``"orbit"``) designs. ``eq_density_ci`` is the Wilson score
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
    one per contiguous rank stratum; ``"orbit"``: the stratified draw,
    with each sample canonicalised through the stabilizer chain and
    verdicts memoised per orbit — bit-identical estimates, fewer graph
    evaluations when samples collide in orbit space) and evaluates them
    through the Gray unranking + engine-repair kernel. No profile cap:
    sampling is exactly the regime past exhaustive reach. The estimate
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
    if method == "orbit":
        _check_symmetry_cap(game.n)
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
    incremental: bool = True,
    symmetry: bool = False,
    workers: int = 1,
) -> ExactPriceReport:
    """Exact PoA / PoS of a tiny game by full enumeration.

    One pass over the profile space computes the optimal diameter and
    the best/worst equilibrium diameters simultaneously. The default
    incremental path (Gray-order walk + engine delta repair, optionally
    with ``symmetry`` orbit pruning and ``workers`` shards) returns a
    report bit-identical to the ``incremental=False`` rebuild-per-profile
    reference implementation.
    """
    version = Version.coerce(version)
    if incremental:
        return census_scan(
            game,
            version,
            max_profiles=max_profiles,
            symmetry=symmetry,
            workers=workers,
        ).report
    if symmetry or workers != 1:
        raise GameError("symmetry/workers require the incremental census kernel")
    _check_cap(game, max_profiles)
    opt = None
    best_eq = None
    worst_eq = None
    count = 0
    eq_count = 0
    for graph in enumerate_realizations(game, max_profiles=max_profiles):
        count += 1
        d = diameter(graph)
        if opt is None or d < opt:
            opt = d
        if is_equilibrium(graph, version, method="exact"):
            eq_count += 1
            if best_eq is None or d < best_eq:
                best_eq = d
            if worst_eq is None or d > worst_eq:
                worst_eq = d
    assert opt is not None, "profile space is never empty"
    return ExactPriceReport(
        version=version,
        num_profiles=count,
        num_equilibria=eq_count,
        opt_diameter=opt,
        best_equilibrium_diameter=best_eq,
        worst_equilibrium_diameter=worst_eq,
    )
