"""Unit tests for deviation search and equilibrium predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    find_improving_deviation,
    is_best_response,
    is_equilibrium,
    is_weak_equilibrium,
    satisfies_lemma_2_2,
)
from repro.errors import GameError
from repro.graphs import (
    DistanceEngine,
    OwnedDigraph,
    local_diameter,
    path_realization,
    star_realization,
)


def test_lemma_2_2_local_diameter_one():
    g = star_realization(4, 0, center_owns=True)
    assert satisfies_lemma_2_2(g, 0)


def test_lemma_2_2_local_diameter_two_no_brace():
    g = star_realization(5, 0, center_owns=True)
    # Leaves have local diameter 2 and no brace.
    for leaf in range(1, 5):
        assert satisfies_lemma_2_2(g, leaf)


def test_lemma_2_2_brace_disqualifies():
    g = OwnedDigraph(3)
    g.add_arc(0, 1)
    g.add_arc(1, 0)
    g.add_arc(1, 2)
    # Vertex 0 has local diameter 2 but sits in a brace.
    assert not satisfies_lemma_2_2(g, 0)


def test_lemma_2_2_large_diameter_disqualifies():
    g = path_realization(5)
    # The path ends have local diameter 4 > 2.
    assert not satisfies_lemma_2_2(g, 0)
    assert not satisfies_lemma_2_2(g, 4)
    # The center has local diameter exactly 2 and no brace: the lemma
    # applies (and indeed the center is playing a best response).
    assert satisfies_lemma_2_2(g, 2)


def test_lemma_2_2_disconnected_disqualifies(two_components):
    assert not satisfies_lemma_2_2(two_components, 0)


def test_lemma_2_2_single_vertex():
    assert satisfies_lemma_2_2(OwnedDigraph(1), 0)


def test_lemma_2_2_consistent_with_exact(rng):
    # Lemma 2.2 players must have no improving exact deviation.
    from conftest import random_owned_digraph

    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_owned_digraph(rng, n, p=0.5)
        for u in range(n):
            if g.out_degree(u) > 3:
                continue
            if satisfies_lemma_2_2(g, u):
                for version in ("sum", "max"):
                    dev = find_improving_deviation(g, u, version, use_lemma=False)
                    assert dev is None, (u, version)


@st.composite
def _realizations(draw, max_n: int = 8):
    """Small realizations: any arc set, so braces, isolated vertices and
    disconnected graphs all occur; hub arcs make local diameter 2 common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))) if pairs else set()
    if n > 1 and draw(st.booleans()):
        hub = draw(st.integers(min_value=0, max_value=n - 1))
        leaves = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        arcs |= {(hub, v) for v in leaves if v != hub}
    return OwnedDigraph.from_arcs(n, sorted(arcs))


def _lemma_2_2_definition(g: OwnedDigraph, u: int) -> bool:
    ld = local_diameter(g, u)
    brace = any(g.has_arc(int(v), u) for v in g.out_neighbors(u))
    return ld <= 1 or (ld == 2 and not brace)


@given(_realizations())
@settings(max_examples=200, deadline=None)
@example(OwnedDigraph(1))
@example(OwnedDigraph(2))
@example(OwnedDigraph.from_arcs(2, [(0, 1)]))
@example(OwnedDigraph.from_arcs(2, [(0, 1), (1, 0)]))
@example(OwnedDigraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)]))
@example(OwnedDigraph.from_arcs(5, [(0, 1), (2, 3)]))
def test_lemma_2_2_screen_equals_definition(g):
    """The depth-2 screen, and the engine row path, agree with the
    lemma's statement: local diameter <= 1, or exactly 2 and no brace."""
    engines = (DistanceEngine.from_graph(g), DistanceEngine.from_graph(g, rows="lazy"))
    for u in range(g.n):
        expected = _lemma_2_2_definition(g, u)
        assert satisfies_lemma_2_2(g, u) == expected, u
        for engine in engines:
            assert satisfies_lemma_2_2(g, u, engine=engine) == expected, u


def test_find_improving_deviation_path_end():
    g = path_realization(5)
    dev = find_improving_deviation(g, 0, "sum")
    assert dev is not None
    assert dev.is_improving
    assert dev.strategy == (2,)


def test_is_best_response_methods():
    g = star_realization(6, 0, center_owns=True)
    assert is_best_response(g, 0, "sum")
    assert is_best_response(g, 0, "max", method="swap")
    assert is_best_response(g, 0, "sum", method="greedy")


def test_unknown_method_rejected(path5):
    with pytest.raises(GameError):
        is_best_response(path5, 0, "sum", method="annealing")


def test_is_equilibrium_star():
    g = star_realization(6, 0, center_owns=True)
    assert is_equilibrium(g, "sum")
    assert is_equilibrium(g, "max")
    assert is_weak_equilibrium(g, "sum")


def test_is_equilibrium_path_fails():
    g = path_realization(5)
    assert not is_equilibrium(g, "sum")
    assert not is_equilibrium(g, "max")


def test_is_equilibrium_players_subset():
    g = path_realization(5)
    # Vertex 3's arc to 4 is forced (only way to reach 4)... it can still
    # relink elsewhere; but vertex 2 keeps connectivity whatever happens.
    assert is_equilibrium(g, "sum", players=[4])  # zero budget: trivially stable


def test_two_vertex_brace_is_equilibrium(brace_pair):
    assert is_equilibrium(brace_pair, "sum")
    assert is_equilibrium(brace_pair, "max")


# ----------------------------------------------------------------------
# deviation_improves: the single-deviation point verdict (PR-6)
# ----------------------------------------------------------------------
def test_deviation_improves_agrees_with_env_pricing():
    from conftest import random_owned_digraph

    from repro.core import DistanceCache, deviation_improves
    from repro.core.best_response import BestResponseEnvironment

    rng = np.random.default_rng(99)
    for _ in range(8):
        n = int(rng.integers(4, 11))
        g = random_owned_digraph(rng, n, p=0.3)
        caches = [None, DistanceCache(g), DistanceCache(g, rows="lazy")]
        for version in ("sum", "max"):
            for u in range(n):
                cur = tuple(sorted(int(v) for v in g.out_neighbors(u)))
                if not cur:
                    continue
                others = [v for v in range(n) if v != u]
                dev = tuple(
                    sorted(
                        int(v)
                        for v in rng.choice(
                            others, size=len(cur), replace=False
                        )
                    )
                )
                verdicts = {
                    deviation_improves(g, u, dev, version, cache=c)
                    for c in caches
                }
                assert len(verdicts) == 1
                env = BestResponseEnvironment(g, u, version)
                truth = env.evaluate(dev) < env.evaluate(cur)
                assert verdicts.pop() == truth


def test_deviation_improves_current_strategy_is_never_improving():
    from repro.core import deviation_improves

    g = path_realization(5)
    for u in range(5):
        cur = [int(v) for v in g.out_neighbors(u)]
        if cur:
            assert not deviation_improves(g, u, cur, "sum")


def test_deviation_improves_validates_inputs():
    from repro.core import deviation_improves
    from repro.errors import VertexError

    g = path_realization(4)
    with pytest.raises(VertexError):
        deviation_improves(g, 9, [0], "sum")
    with pytest.raises(VertexError):
        deviation_improves(g, 0, [9], "sum")
    with pytest.raises(GameError):
        deviation_improves(g, 0, [0], "sum")  # self-link
    with pytest.raises(GameError):
        deviation_improves(g, 0, [2, 3], "sum")  # over budget (owns 1 arc)


def test_deviation_improves_cold_path_stays_lazy():
    """The no-cache verdict must price against a lazy throwaway engine,
    not a full all-pairs build."""
    from repro.core import deviation_improves

    g = path_realization(30)
    # An end vertex relinking to the middle strictly improves.
    assert deviation_improves(g, 0, [15], "sum", use_lemma=False)
    assert not deviation_improves(g, 0, [1], "sum", use_lemma=False)
