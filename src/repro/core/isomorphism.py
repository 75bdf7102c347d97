"""Isomorphism of realizations (ownership-aware), for equilibrium censuses.

Two realizations are isomorphic when some player relabeling maps one
arc set onto the other — ownership included, since budgets travel with
players. The census experiments use this to report equilibrium counts
up to symmetry, which is the structurally meaningful number (the
labeled count scales with n! for symmetric budget vectors).

The engine is an **invariant-refinement canonical form** rather than a
raw permutation scan: vertices are colored by relabeling-invariant
signatures (degree data, brace incidence, the sorted distance profile),
the coloring is sharpened by Weisfeiler–Leman-style rounds over the
out-/in-neighbour color multisets, and the canonical form is the
minimal relabeled adjacency bit-key over the color-class-preserving
relabelings only. Non-isomorphic pairs almost always reject on the
invariant alone, without touching a single permutation; the residual
search space is the product of the class factorials, not ``n!``.

Only meant for the tiny-n enumeration pipeline (capped at ``n = 9``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np

from ..errors import GameError
from ..graphs.digraph import OwnedDigraph
from ..graphs.distances import distance_matrix

__all__ = [
    "are_isomorphic",
    "budget_class_transpositions",
    "BudgetStabilizerChain",
    "canonical_form",
    "chain_cell_positions",
    "isomorphism_invariant",
    "refined_vertex_colors",
    "count_isomorphism_classes",
]

#: Permutation search is capped here; beyond it the census should use
#: sampling, not exact isomorphism.
_MAX_N = 9

#: Relabelings are keyed in chunks this large; bounds the peak
#: ``(chunk, n, n)`` gather of the canonical-form search.
_PERM_CHUNK = 8192


#: Symmetry pruning packs the ownership adjacency into one ``uint64``
#: key per group element, which needs ``n^2 <= 64``.
_MAX_SYMMETRY_N: int = 8


def _check_symmetry_cap(n: int) -> None:
    """Single source of the symmetry-pruning size cap (and its message).

    Every entry point — :func:`~repro.core.enumeration.census_scan` up
    front, the census's orbit keys and :class:`BudgetStabilizerChain` at
    construction — raises through here, so the limit and its wording
    can never drift apart.
    """
    if n > _MAX_SYMMETRY_N:
        raise GameError(
            f"symmetry pruning packs profiles into one 64-bit key "
            f"and is capped at n = {_MAX_SYMMETRY_N} (n^2 <= 64), "
            f"got n = {n}"
        )


def _check_size(graph: OwnedDigraph) -> None:
    if graph.n > _MAX_N:
        raise GameError(f"exact isomorphism is capped at n = {_MAX_N}")


def budget_class_transpositions(budgets) -> np.ndarray:
    """All within-class transpositions of the budget symmetry group.

    Row ``k`` is the permutation swapping one pair of equal-budget
    players and fixing everything else — always an element of
    ``∏ Sym(budget class)``. These are the cheap *probe* elements the
    census orbit pruning maintains incrementally: a profile whose key
    is not minimal under some transposition is certainly not canonical,
    and the probes reject the overwhelming majority of profiles without
    ever touching the full group. Shape ``(t, n)``; ``t`` may be zero
    (all budgets distinct).
    """
    n = len(budgets)
    classes: "dict[int, list[int]]" = {}
    for i, b in enumerate(budgets):
        classes.setdefault(int(b), []).append(i)
    perms = []
    for members in classes.values():
        for a, b in itertools.combinations(members, 2):
            perm = np.arange(n, dtype=np.int64)
            perm[a], perm[b] = b, a
            perms.append(perm)
    if not perms:
        return np.empty((0, n), dtype=np.int64)
    return np.stack(perms)


@lru_cache(maxsize=None)
def chain_cell_positions(n: int) -> np.ndarray:
    """Chain-aligned bit significance of every adjacency cell, ``(n, n)``.

    The stabilizer-chain canonical walk fixes player images in
    *descending* base-point order ``n-1, n-2, ..., 0``; after level
    ``β`` exactly the cells ``(a, b)`` with ``min(a, b) >= β`` are
    determined. Packing cell ``(a, b)`` at bit position
    ``positions[a, b]`` — off-diagonal cells sorted by
    ``(min(a, b), a*n + b)`` *descending*, most significant first, the
    (always-zero) diagonal last — makes the revelation order of the
    chain descent monotone in significance, so branch-and-bound pruning
    on the newly determined cells is exact. Any fixed cell order yields
    a valid orbit-canonical key; this one is shared by the census probe
    keys (:class:`repro.core.enumeration._OrbitKeys`) and the chain's
    exact survivor recheck so both stages decide minimality under the
    *same* total order.

    Positions run ``0 .. n*n - 1`` with higher = more significant, so
    for ``n <= 8`` every cell is one bit of a single ``uint64`` key; the
    array is read-only (cached).
    """
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    cells.sort(key=lambda ab: (min(ab), ab[0] * n + ab[1]), reverse=True)
    positions = np.empty((n, n), dtype=np.int64)
    p = n * n - 1
    for a, b in cells:
        positions[a, b] = p
        p -= 1
    for d in range(n):
        positions[d, d] = p
        p -= 1
    positions.setflags(write=False)
    return positions


class BudgetStabilizerChain:
    """Schreier–Sims-style stabilizer chain of ``∏ Sym(budget class)``.

    The budget symmetry group is a direct product of symmetric groups on
    the equal-budget classes, so its stabilizer chain is available in
    closed form: with base points ``n-1, n-2, ..., 0``, the basic orbit
    of ``β`` under the stabilizer of all later points is exactly the
    *not yet used* members of ``β``'s class, and the transversal
    elements are the corresponding transpositions. The chain supports
    the census's exact survivor recheck without ever materialising the
    group: :meth:`minimal_images` finds the orbit-minimal one-word
    adjacency key (under the :func:`chain_cell_positions` bit order) by
    descending the chain level by level, carrying only the partial
    images that are still tied for the minimum — cost bounded by the
    automorphisms of the profile, not the group order. Keys are one
    ``uint64``, so the chain takes ``n <= 8`` players.

    ``labels`` is any per-player class labelling (budgets work; so do
    the point-orbit labels the census derives from a permutation
    matrix). Players with equal labels may be exchanged; others are
    fixed.
    """

    __slots__ = ("_n", "_labels", "_classes", "_order", "cell_positions")

    def __init__(self, labels) -> None:
        labels = [int(x) for x in labels]
        n = len(labels)
        _check_symmetry_cap(n)
        self._n = n
        self._labels = labels
        classes: "dict[int, list[int]]" = {}
        for i, lab in enumerate(labels):
            classes.setdefault(lab, []).append(i)
        self._classes = {
            lab: np.asarray(members, dtype=np.int64)
            for lab, members in classes.items()
        }
        order = 1
        for members in classes.values():
            order *= math.factorial(len(members))
        self._order = order
        self.cell_positions = chain_cell_positions(n)

    @property
    def order(self) -> int:
        """Group order: the product of the class factorials."""
        return self._order

    def key_of(self, adj: np.ndarray) -> int:
        """Key of one adjacency under the cell order."""
        pos = self.cell_positions[np.asarray(adj, dtype=bool)]
        return sum(1 << int(p) for p in pos)

    def minimal_images(self, adjs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Orbit-minimal keys and stabilizer orders of a key batch.

        ``adjs`` is ``(K, n, n)`` boolean ownership adjacencies. Returns
        ``(min_key, stab)`` — per key the minimal ``uint64``
        relabeled-adjacency key over the whole group (under the
        :func:`chain_cell_positions` order) and the number of group
        elements achieving it (``= |Aut|``, so the orbit size is
        ``order // stab``). The whole batch descends the chain together:
        one vectorised expansion + prune pass per level over every
        key's surviving frontier, never a per-group-element gather.

        The frontier invariant: after level ``β`` each key holds the
        set of partial images (assignments of ``β..n-1``) whose
        determined cells are jointly minimal; since all frontier
        members of a key agree on previously determined cells and the
        cell order reveals strictly less significant bits at each later
        level, pruning on the newly determined cells alone is exact.
        """
        n = self._n
        adjs = np.ascontiguousarray(np.asarray(adjs, dtype=bool))
        if adjs.ndim != 3 or adjs.shape[1:] != (n, n):
            raise GameError(
                f"expected adjacency batch of shape (K, {n}, {n}), "
                f"got {adjs.shape}"
            )
        k_count = adjs.shape[0]
        if k_count == 0:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        # Frontier: per surviving partial assignment one row of images
        # (unassigned = -1), a used-target mask, and its owning key id.
        images = np.full((k_count, n), -1, dtype=np.int64)
        used = np.zeros((k_count, n), dtype=bool)
        kid = np.arange(k_count, dtype=np.int64)
        assigned: "list[int]" = []  # base points so far, descending
        level_best: "list[tuple[int, np.ndarray]]" = []  # (width, best vals)
        for beta in range(n - 1, -1, -1):
            members = self._classes[self._labels[beta]]
            # Expand: every frontier row × every unused class member.
            # Every row expands (beta's own class always has an unused
            # member left for it), so src_kid stays sorted with every
            # key present — segmented reduceat minima below rely on it.
            cand = ~used[:, members]  # (rows, class size)
            rows_idx, tgt_idx = np.nonzero(cand)
            targets = members[tgt_idx]
            src_kid = kid[rows_idx]
            if assigned:
                # Newly determined cells, most significant first:
                # (s, beta) for s descending, then (beta, s) — exactly
                # the chain_cell_positions order within this level.
                s_desc = np.asarray(assigned, dtype=np.int64)
                pi_s = images[rows_idx[:, None], s_desc[None, :]]
                col = adjs[src_kid[:, None], pi_s, targets[:, None]]
                row = adjs[src_kid[:, None], targets[:, None], pi_s]
                bits = np.concatenate([col, row], axis=1)
                # Pack (<= 2n <= 16 bits) for one lexicographic compare.
                weights = np.uint64(1) << np.arange(bits.shape[1])[
                    ::-1
                ].astype(np.uint64)
                vals = bits.astype(np.uint64) @ weights
                starts = np.flatnonzero(
                    np.r_[True, src_kid[1:] != src_kid[:-1]]
                )
                best = np.minimum.reduceat(vals, starts)
                keep = vals == best[src_kid]
                rows_idx = rows_idx[keep]
                targets = targets[keep]
                kid = src_kid[keep]
                level_best.append((bits.shape[1], best))
            else:
                kid = src_kid
            # Materialize only the surviving rows.
            images = images[rows_idx]
            images[:, beta] = targets
            used = used[rows_idx]
            used[np.arange(targets.size), targets] = True
            assigned.append(beta)  # beta descends, so this stays sorted desc
        stab = np.bincount(kid, minlength=k_count).astype(np.int64)
        assert (stab > 0).all()
        # Under chain_cell_positions each level's newly revealed cells
        # occupy one contiguous run of the key, most significant level
        # first — so the minimal key is just the concatenation of the
        # per-level minima, no relabeled-adjacency gather needed.
        min_key = np.zeros(k_count, dtype=np.uint64)
        top = n * n  # next unplaced bit position (exclusive)
        for width, best in level_best:
            top -= width
            min_key |= best << np.uint64(top)
        return min_key, stab


def refined_vertex_colors(graph: OwnedDigraph) -> list[int]:
    """Invariant-refinement vertex coloring (ownership-aware 1-WL).

    Initial colors combine ``(out-degree, in-degree, undirected degree,
    brace incidence, sorted distance profile)``; each round re-colors a
    vertex by its color plus the sorted multisets of its out- and
    in-neighbour colors, until the partition stabilises. Color ids are
    ranks of the sorted distinct signatures, so isomorphic graphs get
    identical colorings up to the isomorphism (same class structure,
    same ids).
    """
    n = graph.n
    dist = distance_matrix(graph)
    braces = Counter()
    for u, v in graph.braces():
        braces[u] += 1
        braces[v] += 1
    sigs: list[tuple] = [
        (
            graph.out_degree(v),
            int(graph.in_neighbors(v).size),
            graph.degree(v),
            braces[v],
            tuple(sorted(int(d) for d in dist[v])),
        )
        for v in range(n)
    ]
    colors = _rank(sigs)
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted(colors[int(w)] for w in graph.out_neighbors(v))),
                tuple(sorted(colors[int(w)] for w in graph.in_neighbors(v))),
            )
            for v in range(n)
        ]
        refined = _rank(sigs)
        if refined == colors:  # partition (and ids) stable
            return colors
        colors = refined


def _rank(signatures: "list[tuple]") -> list[int]:
    """Map each signature to the rank of its value among the distinct ones."""
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def isomorphism_invariant(
    graph: OwnedDigraph, *, colors: "list[int] | None" = None
) -> tuple:
    """A cheap relabeling-invariant fingerprint.

    Combines the sorted multiset of ``(out-degree, in-degree)`` pairs,
    the sorted undirected degree sequence, the brace count, the sorted
    multiset of per-vertex distance profiles, and the refined color
    class-size histogram; graphs with different fingerprints are
    certainly non-isomorphic, and in practice almost every
    non-isomorphic pair already differs here.
    """
    pairs = sorted(
        (graph.out_degree(v), int(graph.in_neighbors(v).size)) for v in range(graph.n)
    )
    degs = sorted(graph.degree(v) for v in range(graph.n))
    dist = distance_matrix(graph)
    profiles = tuple(sorted(tuple(sorted(int(d) for d in row)) for row in dist))
    if colors is None:
        colors = refined_vertex_colors(graph)
    classes = tuple(sorted(Counter(colors).values()))
    return (graph.n, tuple(pairs), tuple(degs), len(graph.braces()), profiles, classes)


def canonical_form(
    graph: OwnedDigraph, *, colors: "list[int] | None" = None
) -> bytes:
    """Canonical adjacency key: equal iff the realizations are isomorphic.

    Vertices are blocked by refined color; the key is the minimum,
    over all relabelings that keep each block in its position range, of
    the relabeled ownership adjacency packed row-major into bits. Any
    isomorphism preserves the (invariant) colors, so isomorphic graphs
    range over the same relabeled-adjacency set and share the minimum;
    distinct keys conversely exhibit distinct arc sets under every
    considered relabeling, and every isomorphism is a considered
    relabeling.
    """
    _check_size(graph)
    n = graph.n
    if colors is None:
        colors = refined_vertex_colors(graph)
    blocks: "dict[int, list[int]]" = {}
    for v in range(n):
        blocks.setdefault(colors[v], []).append(v)
    ordered_blocks = [blocks[c] for c in sorted(blocks)]
    adj = np.zeros((n, n), dtype=bool)
    for u, v in graph.arcs():
        adj[u, v] = True
    best: "bytes | None" = None
    perm_iter = itertools.product(
        *(itertools.permutations(b) for b in ordered_blocks)
    )
    while True:
        chunk = list(itertools.islice(perm_iter, _PERM_CHUNK))
        if not chunk:
            break
        sigma = np.asarray(
            [list(itertools.chain.from_iterable(images)) for images in chunk],
            dtype=np.int64,
        )
        relabeled = adj[sigma[:, :, None], sigma[:, None, :]]
        packed = np.packbits(relabeled.reshape(len(chunk), -1), axis=1)
        # Lexicographic row minimum via two big-endian uint64 words
        # (n <= 9 packs into 11 bytes; trailing zero padding preserves
        # the ordering).
        padded = np.zeros((len(chunk), 16), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        words = padded.view(">u8")
        idx = int(np.lexsort((words[:, 1], words[:, 0]))[0])
        cand = bytes(packed[idx])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def are_isomorphic(a: OwnedDigraph, b: OwnedDigraph) -> bool:
    """Ownership-aware isomorphism test via canonical forms.

    The invariant prefilter rejects almost every non-isomorphic pair
    without enumerating any permutation; survivors are decided by the
    color-class-restricted canonical key.
    """
    if a.n != b.n:
        return False
    _check_size(a)
    if a.num_arcs != b.num_arcs:
        return False
    colors_a = refined_vertex_colors(a)
    colors_b = refined_vertex_colors(b)
    if isomorphism_invariant(a, colors=colors_a) != isomorphism_invariant(
        b, colors=colors_b
    ):
        return False
    return canonical_form(a, colors=colors_a) == canonical_form(b, colors=colors_b)


def count_isomorphism_classes(graphs: "list[OwnedDigraph]") -> int:
    """Number of isomorphism classes among the given realizations.

    Buckets by the cheap invariant first, then resolves each bucket by
    its set of canonical forms — one key computation per graph instead
    of the quadratic pairwise permutation scans.
    """
    buckets: "dict[tuple, list[tuple[OwnedDigraph, list[int]]]]" = {}
    for g in graphs:
        colors = refined_vertex_colors(g)
        buckets.setdefault(isomorphism_invariant(g, colors=colors), []).append(
            (g, colors)
        )
    classes = 0
    for bucket in buckets.values():
        classes += len({canonical_form(g, colors=colors) for g, colors in bucket})
    return classes
