"""Batched bitset evaluation of census profiles.

A census visits every profile of ``prod_i C(n-1, b_i)``, so each
unilateral deviation of player ``i`` is itself a profile on axis ``i``:
a profile is a Nash equilibrium iff ``c_i`` at the profile is no larger
than ``c_i`` at each of the player's ``C(n-1, b_i)`` strategies, for
every ``i``. No best-response search, Lemma 2.2 screen or distance
engine is needed for that.

Every graph here is one ``int64`` neighbour mask per vertex (bit ``v``
of ``nbr[g, u]`` set iff ``{u, v}`` is an edge of ``U(G)``), so ``n <=
63``. A breadth-first search is a loop of OR levels over those masks:

* SUM: ``sum_d d * w(frontier_d) + w(unreached) * n^2``, where ``w``
  counts the vertices of a mask, or sums their weights in the weighted
  census;
* MAX: the eccentricity when every vertex is reached, else
  ``kappa * n^2`` with ``kappa`` the number of distinct component masks
  (:mod:`repro.core.costs` adds ``(kappa - 1) * Cinf`` to the ``Cinf``
  eccentricity);
* diameter: the last level at which any vertex's reach set grew, or
  ``n^2`` when the graph is disconnected (the engine's sentinel).

A profile is stable iff each tested player's cost is no larger than
its cost at every candidate strategy: all ``C(n-1, b_i)`` strategies for
Nash equilibrium (:func:`evaluate_block`), the single-arc swap
neighbours of :func:`swap_tables` for the weighted weak equilibrium of
Section 6 (:func:`evaluate_weighted_block`).

Batches are cut so that no temporary holds more than
:data:`_MAX_ROWS` graphs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .costs import Version

__all__ = [
    "out_mask_tables",
    "neighbour_masks",
    "source_costs",
    "diameters",
    "swap_tables",
    "evaluate_block",
    "evaluate_weighted_block",
]

#: Largest number of graphs (rows of ``n`` masks) one batch holds.
_MAX_ROWS: int = 65_536


def out_mask_tables(combos: "Sequence[Sequence[Sequence[int]]]") -> "list[np.ndarray]":
    """Per-player strategy tables as out-neighbour bit masks, ``int64``."""
    return [
        np.asarray([sum(1 << v for v in c) for c in cu], dtype=np.int64)
        for cu in combos
    ]


def _bits(n: int) -> np.ndarray:
    return np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))


def neighbour_masks(out: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(nbr, inn)`` of a ``(G, n)`` block of out-masks.

    ``inn[g, u]`` holds the players owning an arc to ``u``; ``nbr = out
    | inn`` is the undirected neighbourhood.
    """
    n = out.shape[1]
    shifts = np.arange(n, dtype=np.int64)
    inn = np.zeros_like(out)
    for v in range(n):
        inn |= ((out[:, v, None] >> shifts) & 1) << v
    return out | inn, inn


def _spread(masks: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """OR of ``nbr[g, v]`` over the set bits ``v`` of each ``masks[g, k]``."""
    acc = np.zeros_like(masks)
    for v in range(nbr.shape[1]):
        acc |= -((masks >> v) & 1) & nbr[:, v, None]
    return acc


def _components(nbr: np.ndarray) -> np.ndarray:
    """Number of connected components of each graph."""
    reach = nbr | _bits(nbr.shape[1])
    while True:
        grown = _spread(reach, reach)  # doubles the covered radius
        if np.array_equal(grown, reach):
            break
        reach = grown
    reach.sort(axis=1)
    return 1 + (reach[:, 1:] != reach[:, :-1]).sum(axis=1)


def _weight_table(weights: np.ndarray) -> np.ndarray:
    """``table[k, m]``: weight sum of the vertices ``8k + j`` for the set
    bits ``j`` of the byte ``m``."""
    w = np.zeros(-(-weights.size // 8) * 8, dtype=np.int64)
    w[: weights.size] = weights
    bits = (np.arange(256, dtype=np.int64)[:, None] >> np.arange(8)) & 1
    return (bits @ w.reshape(-1, 8).T).T


def _weigh(masks: np.ndarray, table: "np.ndarray | None") -> np.ndarray:
    """Vertex count of each mask, or its weight sum under ``table``."""
    if table is None:
        return np.bitwise_count(masks).astype(np.int64)
    acc = table[0][masks & 255]
    for k in range(1, table.shape[0]):
        acc += table[k][(masks >> (8 * k)) & 255]
    return acc


def source_costs(
    nbr: np.ndarray,
    src: int,
    version: Version,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Cost of player ``src`` in each graph of a ``(G, n)`` mask block.

    ``weights`` (SUM only) prices vertex ``v`` at ``weights[v]`` instead
    of 1.
    """
    n = nbr.shape[1]
    cinf = n * n
    table = None if weights is None else _weight_table(weights)
    seen = np.full(nbr.shape[0], 1 << src, dtype=np.int64)
    front = seen.copy()
    total = np.zeros_like(seen)
    ecc = np.zeros_like(seen)
    level = 0
    while True:
        front = _spread(front[:, None], nbr)[:, 0] & ~seen
        grew = front != 0
        if not grew.any():
            break
        level += 1
        seen |= front
        total += level * _weigh(front, table)
        ecc[grew] = level
    full = (1 << n) - 1
    if version is Version.SUM:
        return total + _weigh(full & ~seen, table) * cinf
    split = seen != full
    if split.any():
        ecc[split] = _components(nbr[split]) * cinf
    return ecc


def diameters(nbr: np.ndarray) -> np.ndarray:
    """Diameter of each graph, ``n^2`` for a disconnected one."""
    n = nbr.shape[1]
    seen = nbr | _bits(n)
    front = nbr
    last = np.where((front != 0).any(axis=1), 1, 0)
    level = 1
    while True:
        front = _spread(front, nbr) & ~seen
        grew = (front != 0).any(axis=1)
        if not grew.any():
            break
        level += 1
        seen |= front
        last[grew] = level
    full = (1 << n) - 1
    return np.where((seen == full).all(axis=1), last, n * n)


def _best_deviation(
    out: np.ndarray,
    inn: np.ndarray,
    i: int,
    strategies: np.ndarray,
    candidates: np.ndarray,
    version: Version,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """Minimum cost of player ``i`` over its candidate strategies, per profile.

    Row ``b`` of the ``(B, k)`` array ``candidates`` holds the indices
    into ``strategies`` that profile ``b``'s player ``i`` may switch to.
    """
    n = out.shape[1]
    k = candidates.shape[1]
    bit = np.int64(1) << i
    base = out | (inn & ~bit)  # U(G) without i's own arcs
    base[:, i] = inn[:, i]
    arcs = ((strategies[:, None] >> np.arange(n, dtype=np.int64)) & 1) << i
    arcs[:, i] = strategies
    best = np.full(out.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    rows = max(1, _MAX_ROWS // k)
    span = min(k, _MAX_ROWS)
    for lo in range(0, out.shape[0], rows):
        for a in range(0, k, span):
            graphs = arcs[candidates[lo : lo + rows, a : a + span]]
            graphs |= base[lo : lo + rows, None, :]
            costs = source_costs(graphs.reshape(-1, n), i, version, weights)
            np.minimum(
                best[lo : lo + rows],
                costs.reshape(graphs.shape[:2]).min(axis=1),
                out=best[lo : lo + rows],
            )
    return best


def _profile_masks(
    digits: np.ndarray, tables: "Sequence[np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(out, nbr, inn)`` of a ``(B, n)`` digit block."""
    out = np.stack([t[digits[:, u]] for u, t in enumerate(tables)], axis=1)
    return (out, *neighbour_masks(out))


def evaluate_block(
    digits: np.ndarray, tables: "Sequence[np.ndarray]", version: Version
) -> "tuple[np.ndarray, np.ndarray]":
    """``(is_nash, diameter)`` of each profile of a ``(B, n)`` digit block.

    Row ``b`` plays strategy ``tables[u][digits[b, u]]`` for each player
    ``u``. Players are tested in turn, each only on the profiles every
    earlier player left standing.
    """
    out, nbr, inn = _profile_masks(digits, tables)
    alive = np.arange(digits.shape[0])
    for i, strategies in enumerate(tables):
        if strategies.size == 1 or not alive.size:
            continue
        current = source_costs(nbr[alive], i, version)
        r = strategies.size
        every = np.broadcast_to(np.arange(r), (alive.size, r))
        best = _best_deviation(
            out[alive], inn[alive], i, strategies, every, version
        )
        alive = alive[current <= best]
    is_nash = np.zeros(digits.shape[0], dtype=bool)
    is_nash[alive] = True
    return is_nash, diameters(nbr)


def swap_tables(
    tables: "Sequence[np.ndarray]", weights: np.ndarray
) -> "list[np.ndarray]":
    """Per-player swap-neighbour gather tables, ``(r_i, k_i)`` ``int64``.

    Row ``s`` of player ``i``'s table lists strategy ``s`` itself, then
    every strategy that drops one target of ``s`` and adds a target
    ``a != i`` it does not own with ``weights[a] > 0`` (weight-0
    vertices are folded ghosts, never swap targets), padded with ``s``.
    """
    n = len(tables)
    targets = [a for a in range(n) if weights[a] > 0]
    out = []
    for i, masks in enumerate(tables):
        index = {m: s for s, m in enumerate(masks.tolist())}
        rows = [
            [s]
            + [
                index[(m & ~(1 << d)) | (1 << a)]
                for d in range(n)
                if m >> d & 1
                for a in targets
                if a != i and not m >> a & 1
            ]
            for s, m in enumerate(masks.tolist())
        ]
        width = max(map(len, rows))
        out.append(np.asarray([r + r[:1] * (width - len(r)) for r in rows]))
    return out


def evaluate_weighted_block(
    digits: np.ndarray,
    tables: "Sequence[np.ndarray]",
    swaps: "Sequence[np.ndarray]",
    weights: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(is_weak_eq, diameter, social_cost)`` per row of a digit block.

    Costs are weighted SUM costs. Only active players (``weights > 0``)
    are tested, each against the swap neighbours ``swaps[i]`` of its
    strategy (see :func:`swap_tables`) and only on the profiles every
    earlier player left standing. The social cost is the sum of the
    active players' costs.
    """
    out, nbr, inn = _profile_masks(digits, tables)
    social = np.zeros(digits.shape[0], dtype=np.int64)
    alive = np.arange(digits.shape[0])
    for i in np.flatnonzero(weights > 0).tolist():
        current = source_costs(nbr, i, Version.SUM, weights)
        social += current
        if swaps[i].shape[1] == 1 or not alive.size:
            continue
        candidates = swaps[i][digits[alive, i]]
        best = _best_deviation(
            out[alive], inn[alive], i, tables[i], candidates, Version.SUM, weights
        )
        alive = alive[current[alive] <= best]
    is_eq = np.zeros(digits.shape[0], dtype=bool)
    is_eq[alive] = True
    return is_eq, diameters(nbr), social
