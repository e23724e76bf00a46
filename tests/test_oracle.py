"""The walk oracle is the reference for everything else, so it gets checked
against raw unmemoised sequence enumeration before anything trusts it."""

import pytest

from conftest import seeded_random_graphs, small_named_graphs
from wtoll.graphs import (
    DisconnectedGraphError,
    Graph,
    VertexSet,
    complete_graph,
    path_graph,
    random_tree,
    two_clique_bridge,
)
from wtoll.intervals import IntervalKind
from wtoll.oracle import (
    ORACLE_KINDS,
    enumerated_interval,
    is_semi_weakly_toll_walk,
    is_tolled_walk,
    is_weakly_toll_walk,
    oracle_interval,
    oracle_wth,
    oracle_wtn,
    witness_lengths,
)
from wtoll.verify import connected_graphs

CLAW = Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])


# -- the verbatim condition checkers --------------------------------------


def test_walk_checkers_on_claw():
    # centre 1; the detour through leaf 3 revisits the hub, which is allowed
    # for weakly toll walks but not for tolled walks
    walk = [0, 1, 3, 1, 2]
    assert is_weakly_toll_walk(CLAW, walk, 0, 2)
    assert not is_tolled_walk(CLAW, walk, 0, 2)
    assert is_semi_weakly_toll_walk(CLAW, walk, 0, 2)
    assert is_tolled_walk(CLAW, [0, 1, 2], 0, 2)
    assert not is_weakly_toll_walk(CLAW, [0, 1, 2], 0, 3)
    assert is_weakly_toll_walk(CLAW, [0], 0, 0)


def test_walk_checkers_reject_non_walks():
    assert not is_weakly_toll_walk(CLAW, [0, 2], 0, 2)
    assert not is_tolled_walk(CLAW, [0, 3, 2], 0, 2)


# -- memoised oracle vs literal enumeration -------------------------------


def _tiny_graphs():
    zoo = [g for _, g in small_named_graphs() if g.n <= 4]
    zoo += [g for g in seeded_random_graphs(6, sizes=(4,), base_seed=501)]
    return zoo


def test_oracle_matches_enumeration_on_tiny_graphs():
    for g in _tiny_graphs():
        budget = 2 * g.n + 2
        for kind in ORACLE_KINDS:
            for u in range(g.n):
                for v in range(g.n):
                    assert oracle_interval(g, u, v, kind, budget) == enumerated_interval(
                        g, u, v, kind, budget
                    ), (g.edges(), kind, u, v)


def test_oracle_matches_enumeration_on_sparse_five_vertex_graphs():
    zoo = [path_graph(5), Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)])]
    zoo += seeded_random_graphs(4, sizes=(5,), base_seed=901)
    for g in zoo:
        for kind in ORACLE_KINDS:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    for s, t in ((u, v), (v, u)):
                        assert oracle_interval(g, s, t, kind, 8) == enumerated_interval(
                            g, s, t, kind, 8
                        ), (g.edges(), kind, s, t)


def test_enumeration_refuses_runs_that_would_take_hours():
    # both calls return at once without the guard: u == v needs no walk, and
    # a path gives few sequences
    with pytest.raises(ValueError, match="limited to 5 vertices and 2n \\+ 2 edges; requested n=6"):
        enumerated_interval(path_graph(6), 0, 0, IntervalKind.WEAKLY_TOLL)
    with pytest.raises(ValueError, match="requested n=3, budget 9$"):
        enumerated_interval(path_graph(3), 0, 2, IntervalKind.TOLL, 9)
    with pytest.raises(ValueError, match="at least one edge"):
        enumerated_interval(path_graph(3), 0, 2, IntervalKind.TOLL, 0)
    assert sorted(enumerated_interval(path_graph(3), 0, 2, IntervalKind.TOLL, 8)) == [0, 1, 2]


# -- known interval values -------------------------------------------------


def test_claw_intervals():
    assert sorted(oracle_interval(CLAW, 0, 2, IntervalKind.WEAKLY_TOLL)) == [0, 1, 2, 3]
    assert sorted(oracle_interval(CLAW, 0, 2, IntervalKind.TOLL)) == [0, 1, 2]
    assert sorted(oracle_interval(CLAW, 0, 2, IntervalKind.SEMI_WEAKLY_TOLL)) == [0, 1, 2, 3]


def test_path_endpoints_cover_everything():
    p4 = path_graph(4)
    for kind in ORACLE_KINDS:
        assert oracle_interval(p4, 0, 3, kind) == VertexSet.full(4)


def test_adjacent_pairs():
    p4 = path_graph(4)
    assert sorted(oracle_interval(p4, 1, 2, IntervalKind.WEAKLY_TOLL)) == [1, 2]
    assert sorted(oracle_interval(p4, 1, 2, IntervalKind.TOLL)) == [1, 2]


def test_single_vertex_walk():
    p4 = path_graph(4)
    for kind in ORACLE_KINDS:
        assert sorted(oracle_interval(p4, 2, 2, kind)) == [2]


def test_oracle_requires_connected():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        oracle_interval(g, 0, 3, IntervalKind.WEAKLY_TOLL)


def test_budget_validation():
    with pytest.raises(ValueError):
        oracle_interval(CLAW, 0, 2, IntervalKind.WEAKLY_TOLL, 0)


# -- budget behaviour -------------------------------------------------------


def test_budget_monotonicity():
    for g in seeded_random_graphs(8, sizes=(6, 7), base_seed=301):
        for kind in ORACLE_KINDS:
            for u in range(0, g.n, 2):
                for v in range(1, g.n, 2):
                    small = oracle_interval(g, u, v, kind, 4)
                    big = oracle_interval(g, u, v, kind, 9)
                    assert small <= big


def test_budget_stabilisation():
    for g in seeded_random_graphs(10, sizes=(6, 7, 8), base_seed=411):
        for kind in ORACLE_KINDS:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    at_2n = oracle_interval(g, u, v, kind, 2 * g.n)
                    at_2n2 = oracle_interval(g, u, v, kind, 2 * g.n + 2)
                    assert at_2n == at_2n2


def _pairs(g, kind):
    if kind is IntervalKind.SEMI_WEAKLY_TOLL:
        return [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]


def test_one_search_gives_the_interval_at_smaller_budgets():
    zoo = [g for n in range(2, 6) for g in connected_graphs(n)]
    zoo += seeded_random_graphs(20, sizes=(7, 8), base_seed=2718)
    for g in zoo:
        for kind in ORACLE_KINDS:
            pairs = _pairs(g, kind)
            at_2n = [oracle_interval(g, u, v, kind, 2 * g.n) for u, v in pairs]
            for extra in (0, 2):
                top = 2 * g.n + extra
                searched = witness_lengths(g, pairs, kind)
                for (u, v), lengths, expected_2n in zip(pairs, searched, at_2n):
                    expected_top = oracle_interval(g, u, v, kind, top)
                    for budget, expected in ((top, expected_top), (2 * g.n, expected_2n)):
                        mask = sum(1 << x for x, edges in lengths.items() if edges <= budget)
                        assert mask == expected.mask, (g.edges(), kind, u, v, budget)
                    if kind is IntervalKind.TOLL and g.adjacent(u, v):
                        assert lengths == {u: 1, v: 1}


def test_witness_lengths_are_minimal():
    # each vertex's length is the least budget whose interval holds it
    for g in [g for n in range(2, 5) for g in connected_graphs(n)] + [CLAW, path_graph(5)]:
        for kind in ORACLE_KINDS:
            pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
            top = 2 * g.n + 2
            for (u, v), lengths in zip(pairs, witness_lengths(g, pairs, kind)):
                first_in = {}
                for budget in range(1, top + 1):
                    for x in oracle_interval(g, u, v, kind, budget):
                        first_in.setdefault(x, budget)
                if u == v:
                    assert lengths == {u: 0}
                else:
                    assert lengths == first_in, (g.edges(), kind, u, v)


def test_witness_lengths_checks_its_input():
    with pytest.raises(DisconnectedGraphError):
        witness_lengths(Graph.from_edge_list(4, [(0, 1), (2, 3)]), [(0, 1)], IntervalKind.TOLL)
    with pytest.raises(ValueError, match="out of range"):
        witness_lengths(CLAW, [(0, 1), (0, 4)], IntervalKind.TOLL)
    with pytest.raises(ValueError, match="no walk oracle"):
        witness_lengths(CLAW, [(0, 1)], IntervalKind.GEODESIC)


# -- exact minima -----------------------------------------------------------


def test_oracle_wtn_known_values():
    assert oracle_wtn(complete_graph(4))[0] == 4
    for seed in range(6):
        assert oracle_wtn(random_tree(4 + seed, seed))[0] == 2
    value, witness = oracle_wtn(two_clique_bridge(3))
    assert value == 4
    assert sorted(witness) == [1, 2, 4, 5]


def test_oracle_wtn_bounds_and_hull():
    for g in seeded_random_graphs(8, sizes=(5, 6), base_seed=77):
        value, witness = oracle_wtn(g)
        assert 2 <= value <= g.n
        hull_value, _ = oracle_wth(g)
        assert hull_value <= value
