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

* SUM: ``sum_d d * |frontier_d| + (#unreached) * n^2``;
* MAX: the eccentricity when every vertex is reached, else
  ``kappa * n^2`` with ``kappa`` the number of distinct component masks
  (:mod:`repro.core.costs` adds ``(kappa - 1) * Cinf`` to the ``Cinf``
  eccentricity);
* diameter: the last level at which any vertex's reach set grew, or
  ``n^2`` when the graph is disconnected (the engine's sentinel).

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
    "evaluate_block",
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


def source_costs(nbr: np.ndarray, src: int, version: Version) -> np.ndarray:
    """Cost of player ``src`` in each graph of a ``(G, n)`` mask block."""
    n = nbr.shape[1]
    cinf = n * n
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
        total += level * np.bitwise_count(front).astype(np.int64)
        ecc[grew] = level
    missing = n - np.bitwise_count(seen).astype(np.int64)
    if version is Version.SUM:
        return total + missing * cinf
    split = missing != 0
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
    out: np.ndarray, inn: np.ndarray, i: int, strategies: np.ndarray, version: Version
) -> np.ndarray:
    """Minimum cost of player ``i`` over all its strategies, per profile."""
    n = out.shape[1]
    r = strategies.size
    bit = np.int64(1) << i
    base = out | (inn & ~bit)  # U(G) without i's own arcs
    base[:, i] = inn[:, i]
    arcs = ((strategies[:, None] >> np.arange(n, dtype=np.int64)) & 1) << i
    arcs[:, i] = strategies
    best = np.full(out.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    rows = max(1, _MAX_ROWS // r)
    span = min(r, _MAX_ROWS)
    for lo in range(0, out.shape[0], rows):
        for a in range(0, r, span):
            graphs = base[lo : lo + rows, None, :] | arcs[None, a : a + span, :]
            costs = source_costs(graphs.reshape(-1, n), i, version)
            np.minimum(
                best[lo : lo + rows],
                costs.reshape(graphs.shape[:2]).min(axis=1),
                out=best[lo : lo + rows],
            )
    return best


def evaluate_block(
    digits: np.ndarray, tables: "Sequence[np.ndarray]", version: Version
) -> "tuple[np.ndarray, np.ndarray]":
    """``(is_nash, diameter)`` of each profile of a ``(B, n)`` digit block.

    Row ``b`` plays strategy ``tables[u][digits[b, u]]`` for each player
    ``u``. Players are tested in turn, each only on the profiles every
    earlier player left standing.
    """
    out = np.stack([t[digits[:, u]] for u, t in enumerate(tables)], axis=1)
    nbr, inn = neighbour_masks(out)
    alive = np.arange(digits.shape[0])
    for i, strategies in enumerate(tables):
        if strategies.size == 1 or not alive.size:
            continue
        current = source_costs(nbr[alive], i, version)
        best = _best_deviation(out[alive], inn[alive], i, strategies, version)
        alive = alive[current <= best]
    is_nash = np.zeros(digits.shape[0], dtype=bool)
    is_nash[alive] = True
    return is_nash, diameters(nbr)
