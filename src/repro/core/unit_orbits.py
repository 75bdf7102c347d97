"""Sym(n) orbits of unit-budget profiles, generated directly.

In a unit-budget game every player owns one arc, never to itself, so a
profile is a functional digraph without fixed points. All players share
one budget class, so the profile's orbit under the budget symmetry
group ``Sym(n)`` is an unlabeled such digraph (OEIS A001373). Each weak
component holds exactly one directed cycle, of length ``k >= 2``, with a
rooted in-tree hanging off every cycle vertex, which is enough to list
the orbits with no canonicity test:

* **rooted trees** are canonical nonincreasing tuples of child-tree ids.
  ``|Aut|`` of a tree is the product of its children's, times ``m!``
  for each child tree repeated ``m`` times;
* a **component** is a necklace of ``k >= 2`` rooted trees, taken up to
  rotation only (arcs are directed, so a reflection reverses the
  cycle). Its ``|Aut|`` is the product of its trees', times the number
  of rotations that fix the necklace;
* a **profile** is a multiset of components whose sizes sum to ``n``.
  Its ``|Aut|`` is the product of its components', times ``m!`` for
  each component repeated ``m`` times, and its orbit holds
  ``n! / |Aut|`` labeled profiles.

The orbit sizes of every ``n`` sum to ``(n-1)^n``, the size of the unit
profile space; :func:`unit_orbits` asserts that on every build.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ..errors import GameError

__all__ = ["MAX_UNIT_ORBIT_N", "check_unit_orbit_cap", "unit_orbits"]

#: Largest unit game the generator serves. Orbit counts grow about 2.9x
#: per player (51,916 orbits at n = 13: ~2 s to generate, ~4 s to
#: census both versions on a 2-vCPU host), so larger games are refused
#: rather than left to run for minutes.
MAX_UNIT_ORBIT_N: int = 13


def check_unit_orbit_cap(n: int) -> None:
    """Refuse unit games the orbit generator does not serve."""
    if not 2 <= n <= MAX_UNIT_ORBIT_N:
        raise GameError(
            f"the unit-budget orbit generator serves 2 <= n <= "
            f"{MAX_UNIT_ORBIT_N}, got n = {n}"
        )


def _multisets(total: int, top: int, sizes: Sequence[int], ends: Sequence[int]) -> Iterator[tuple]:
    """Nonincreasing id tuples, ids ``<= top``, whose sizes sum to ``total``.

    Ids are numbered in nondecreasing size order and ``ends[s]`` counts
    the ids of size at most ``s``.
    """
    if total == 0:
        yield ()
        return
    for i in range(min(top, ends[total] - 1), -1, -1):
        for rest in _multisets(total - sizes[i], i, sizes, ends):
            yield (i, *rest)


def _sequences(total: int, sizes: Sequence[int], ends: Sequence[int]) -> Iterator[tuple]:
    """All id tuples whose sizes sum to ``total``."""
    if total == 0:
        yield ()
        return
    for i in range(ends[total]):
        for rest in _sequences(total - sizes[i], sizes, ends):
            yield (i, *rest)


def _aut(ids: tuple, auts: Sequence[int]) -> int:
    """``|Aut|`` of a multiset of parts: the parts' own, times ``m!`` per
    part repeated ``m`` times."""
    out = math.prod(auts[i] for i in ids)
    for m in Counter(ids).values():
        out *= math.factorial(m)
    return out


def _ends(sizes: Sequence[int], limit: int) -> list:
    """``ends[s]``: the number of ids of size at most ``s``, ``s <= limit``."""
    return [sum(1 for z in sizes if z <= s) for s in range(limit + 1)]


@lru_cache(maxsize=None)
def _rooted_trees(limit: int) -> "tuple[tuple[tuple, ...], tuple[int, ...], tuple[int, ...]]":
    """``(children, sizes, auts)`` of every rooted tree of at most
    ``limit`` vertices, ids in nondecreasing size order."""
    children: "list[tuple]" = []
    sizes: "list[int]" = []
    auts: "list[int]" = []
    for size in range(1, limit + 1):
        ends = _ends(sizes, size - 1)
        for kids in list(_multisets(size - 1, len(sizes) - 1, sizes, ends)):
            children.append(kids)
            sizes.append(size)
            auts.append(_aut(kids, auts))
    return tuple(children), tuple(sizes), tuple(auts)


def _hang(tree: int, root: int, targets: "list[int]", children: Sequence[tuple]) -> None:
    """Label ``tree``'s non-root vertices after ``targets``, arcs to parents."""
    for child in children[tree]:
        v = len(targets)
        targets.append(root)
        _hang(child, v, targets, children)


@lru_cache(maxsize=None)
def _components(limit: int) -> "tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]":
    """``(targets, sizes, auts)`` of every component of at most ``limit``
    vertices, ids in nondecreasing size order.

    A component's targets label its cycle vertices ``0..k-1`` (vertex
    ``i`` points at ``i + 1 mod k``), then each tree's other vertices.
    """
    children, tree_sizes, tree_auts = _rooted_trees(limit - 1)
    ends = _ends(tree_sizes, limit)
    targets: "list[tuple[int, ...]]" = []
    sizes: "list[int]" = []
    auts: "list[int]" = []
    for size in range(2, limit + 1):
        for cycle in _sequences(size, tree_sizes, ends):
            k = len(cycle)
            if k < 2:
                continue
            rotations = [cycle[r:] + cycle[:r] for r in range(k)]
            if min(rotations) != cycle:
                continue
            labels = [(i + 1) % k for i in range(k)]
            for i, tree in enumerate(cycle):
                _hang(tree, i, labels, children)
            targets.append(tuple(labels))
            sizes.append(size)
            auts.append(
                rotations.count(cycle) * math.prod(tree_auts[t] for t in cycle)
            )
    return tuple(targets), tuple(sizes), tuple(auts)


@lru_cache(maxsize=None)
def unit_orbits(n: int) -> "tuple[np.ndarray, np.ndarray]":
    """One labeled profile per Sym(n) orbit of the unit game on ``n`` players.

    Returns ``(targets, sizes)``: row ``p`` of the ``(P, n)`` ``int64``
    array ``targets`` is a representative, player ``u`` owning the arc
    to ``targets[p, u]``, and ``sizes[p]`` is its orbit size. Raises
    :class:`~repro.errors.GameError` outside ``2 <= n <=``
    :data:`MAX_UNIT_ORBIT_N`. Both arrays are read-only (cached).
    """
    check_unit_orbit_cap(n)
    comp_targets, comp_sizes, comp_auts = _components(n)
    ends = _ends(comp_sizes, n)
    rows: "list[list[int]]" = []
    orbit_sizes: "list[int]" = []
    fact = math.factorial(n)
    for profile in _multisets(n, len(comp_sizes) - 1, comp_sizes, ends):
        row: "list[int]" = []
        for c in profile:
            base = len(row)
            row.extend(base + t for t in comp_targets[c])
        rows.append(row)
        orbit_sizes.append(fact // _aut(profile, comp_auts))
    assert sum(orbit_sizes) == (n - 1) ** n, "unit orbits do not cover the profile space"
    targets = np.asarray(rows, dtype=np.int64)
    sizes = np.asarray(orbit_sizes, dtype=np.int64)
    targets.flags.writeable = False
    sizes.flags.writeable = False
    return targets, sizes
