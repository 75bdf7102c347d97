"""Unit tests for the best-response engine (exact, greedy, swap)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BestResponseEnvironment,
    Version,
    exact_best_response,
    greedy_best_response,
    swap_best_response,
    vertex_cost,
)
from repro.errors import GameError
from repro.graphs import (
    DistanceEngine,
    OwnedDigraph,
    connected_components,
    cycle_realization,
    path_realization,
    star_realization,
)

from conftest import random_owned_digraph


def brute_force_best(graph: OwnedDigraph, u: int, version: str) -> int:
    """Reference: mutate the graph for every subset and recompute cost."""
    b = graph.out_degree(u)
    pool = [v for v in range(graph.n) if v != u]
    best = None
    for combo in itertools.combinations(pool, b):
        h = graph.copy()
        h.set_strategy(u, combo)
        c = vertex_cost(h, u, version)
        if best is None or c < best:
            best = c
    return best


def test_environment_evaluates_current_strategy_consistently(rng):
    for _ in range(10):
        n = int(rng.integers(2, 10))
        g = random_owned_digraph(rng, n, p=0.3)
        for u in range(n):
            cur = tuple(int(v) for v in g.out_neighbors(u))
            for version in ("sum", "max"):
                env = BestResponseEnvironment(g, u, version)
                assert env.evaluate(cur) == vertex_cost(g, u, version), (u, version)


def test_exact_matches_brute_force(rng):
    for _ in range(8):
        n = int(rng.integers(3, 8))
        g = random_owned_digraph(rng, n, p=0.35)
        for u in range(n):
            if g.out_degree(u) > 3:
                continue
            for version in ("sum", "max"):
                r = exact_best_response(g, u, version)
                expected = brute_force_best(g, u, version)
                assert r.cost == expected, (u, version, r.cost, expected)


def test_exact_reports_current_cost(path5):
    r = exact_best_response(path5, 0, "sum")
    assert r.current_cost == vertex_cost(path5, 0, "sum")
    assert r.exact
    assert r.improvement == r.current_cost - r.cost
    assert r.player == 0


def test_path_end_improves_by_linking_center():
    # Vertex 0 on a path 0-1-2-3-4 should prefer linking the middle.
    g = path_realization(5)
    r = exact_best_response(g, 0, "sum")
    assert r.is_improving
    assert r.strategy == (2,)


def test_star_center_cannot_improve():
    g = star_realization(7, 0, center_owns=True)
    for version in ("sum", "max"):
        r = exact_best_response(g, 0, version)
        assert not r.is_improving


def test_zero_budget_player():
    g = star_realization(4, 0, center_owns=True)
    r = exact_best_response(g, 1, "sum")
    assert r.strategy == ()
    assert r.cost == r.current_cost
    assert r.evaluated == 1


def test_exact_candidate_cap():
    g = random_owned_digraph(np.random.default_rng(0), 12, p=0.4)
    u = max(range(12), key=g.out_degree)
    if g.out_degree(u) >= 4:
        with pytest.raises(GameError):
            exact_best_response(g, u, "sum", max_candidates=10)


def test_disconnection_is_never_best(rng):
    # In a connected graph with sum(b) = n-1, dropping to a strategy that
    # disconnects costs at least Cinf more; exact BR must stay connected.
    from repro.graphs import is_connected, random_tree_realization

    g, budgets = random_tree_realization(9, seed=3)
    for u in range(9):
        if budgets[u] == 0:
            continue
        r = exact_best_response(g, u, "sum")
        h = g.copy()
        h.set_strategy(u, r.strategy)
        assert is_connected(h)


def test_greedy_never_worse_than_current(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        g = random_owned_digraph(rng, n, p=0.3)
        u = int(rng.integers(n))
        for version in ("sum", "max"):
            r = greedy_best_response(g, u, version)
            assert r.cost <= r.current_cost
            assert not r.exact


def test_greedy_upper_bounds_exact(rng):
    for _ in range(8):
        n = int(rng.integers(3, 9))
        g = random_owned_digraph(rng, n, p=0.35)
        u = int(rng.integers(n))
        if g.out_degree(u) > 3:
            continue
        for version in ("sum", "max"):
            ex = exact_best_response(g, u, version)
            gr = greedy_best_response(g, u, version)
            assert gr.cost >= ex.cost


def test_greedy_budget_one_is_exact(rng):
    # With budget 1 greedy enumerates all single targets = exact.
    g = cycle_realization(9)
    for u in range(9):
        ex = exact_best_response(g, u, "sum")
        gr = greedy_best_response(g, u, "sum")
        assert gr.cost == ex.cost


def test_swap_includes_staying_put(path5):
    r = swap_best_response(path5, 2, "sum")
    assert r.cost <= r.current_cost


def test_swap_upper_bounds_exact_lower_bounds_current(rng):
    for _ in range(8):
        n = int(rng.integers(3, 9))
        g = random_owned_digraph(rng, n, p=0.35)
        u = int(rng.integers(n))
        if g.out_degree(u) > 3:
            continue
        for version in ("sum", "max"):
            ex = exact_best_response(g, u, version)
            sw = swap_best_response(g, u, version)
            assert ex.cost <= sw.cost <= sw.current_cost


def test_swap_matches_bruteforce_single_swap(rng):
    # Reference: evaluate every (drop, add) pair by graph mutation.
    for _ in range(6):
        n = int(rng.integers(4, 9))
        g = random_owned_digraph(rng, n, p=0.3)
        u = int(rng.integers(n))
        cur = set(int(v) for v in g.out_neighbors(u))
        if not cur:
            continue
        best = vertex_cost(g, u, "sum")
        for a in list(cur):
            for w in range(n):
                if w == u or w in cur:
                    continue
                h = g.copy()
                h.set_strategy(u, (cur - {a}) | {w})
                best = min(best, vertex_cost(h, u, "sum"))
        r = swap_best_response(g, u, "sum")
        assert r.cost == best


def test_swap_strategy_is_valid(rng):
    g = random_owned_digraph(rng, 8, p=0.3)
    for u in range(8):
        r = swap_best_response(g, u, "max")
        assert len(r.strategy) == g.out_degree(u)
        assert u not in r.strategy
        assert len(set(r.strategy)) == len(r.strategy)


def test_batch_evaluation_shape_checks():
    g = path_realization(4)
    env = BestResponseEnvironment(g, 0, "sum")
    with pytest.raises(GameError):
        env.evaluate_batch(np.array([1, 2, 3]))
    out = env.evaluate_batch(np.empty((0, 2), dtype=np.int64))
    assert out.size == 0


def test_distances_for_strategy(path5):
    env = BestResponseEnvironment(path5, 0, "sum")
    d = env.distances_for((2,))
    # 0 linked only to 2: distances via 2 in G - 0.
    assert d[0] == 0 and d[2] == 1 and d[1] == 2 and d[3] == 2 and d[4] == 3


def test_environment_kappa_penalty_for_disconnection():
    # Graph: 0-1, 2-3 (two components), vertex 4 isolated; u = 4, b = 1.
    g = OwnedDigraph(5)
    g.add_arc(0, 1)
    g.add_arc(2, 3)
    g.add_arc(4, 0)
    env = BestResponseEnvironment(g, 4, "max")
    c = 25  # cinf(5)
    # Linking one component leaves 2 components: max dist = cinf, plus penalty.
    assert env.evaluate((0,)) == c + c
    assert env.evaluate((2,)) == c + c
    env_sum = BestResponseEnvironment(g, 4, "sum")
    # Linking 0: dist 1 to 0, 2 to 1, cinf to 2 and 3.
    assert env_sum.evaluate((0,)) == 1 + 2 + 2 * c


@st.composite
def _split_realizations(draw, max_n: int = 8):
    """Realizations with at least two components: arcs stay inside the
    blocks of a random split of the vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1)))
    block = np.searchsorted(cuts, np.arange(n), side="right")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and block[u] == block[v]]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return OwnedDigraph.from_arcs(n, arcs)


@given(_split_realizations())
@settings(max_examples=60, deadline=None)
def test_environment_components_match_connected_components(g):
    """Full engines read the components of U(G - u) off their matrix,
    lazy ones run connected_components; both give its labels, and the
    MAX costs of every candidate equal the cost of the rewired graph."""
    for u in range(g.n):
        substrate = g.undirected_csr_without(u)
        ref, kappa = connected_components(substrate)
        b = g.out_degree(u)
        combos = list(itertools.combinations([v for v in range(g.n) if v != u], b))
        cands = np.asarray(combos, dtype=np.int64).reshape(len(combos), b)
        costs = []
        for rows in ("full", "lazy"):
            env = BestResponseEnvironment(
                g, u, "max", engine=DistanceEngine(substrate, rows=rows)
            )
            assert env.comp.dtype == np.int64
            assert np.array_equal(env.comp, ref), rows
            assert env.ncomp_others == kappa - 1
            costs.append(env.evaluate_batch(cands))
        assert np.array_equal(costs[0], costs[1])
        for cand, cost in zip(cands, costs[0]):
            h = g.copy()
            h.set_strategy(u, cand.tolist())
            assert cost == vertex_cost(h, u, "max"), (u, cand)
