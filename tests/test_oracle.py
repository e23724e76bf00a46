"""The walk oracle is the reference for everything else, so it gets checked
against raw unmemoised sequence enumeration before anything trusts it."""

import ast
import functools
import operator
import random
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from conftest import seeded_random_graphs, small_named_graphs, walks_within
from wtoll import oracle
from wtoll.graphs import (
    DisconnectedGraphError,
    Graph,
    VertexSet,
    complete_graph,
    path_graph,
    random_tree,
    require_connected,
    two_clique_bridge,
)
from wtoll.intervals import IntervalKind
from wtoll.oracle import (
    ORACLE_KINDS,
    is_semi_weakly_toll_walk,
    is_tolled_walk,
    is_weakly_toll_walk,
    oracle_interval,
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


# -- literal enumeration, the reference the oracle is held to -------------

_CHECKERS = {
    IntervalKind.WEAKLY_TOLL: oracle._weakly_toll_walk,
    IntervalKind.SEMI_WEAKLY_TOLL: oracle._semi_weakly_toll_walk,
    IntervalKind.TOLL: oracle._tolled_walk,
}

#: Largest graph ``enumerated_interval`` accepts.  Its cost grows like
#: degree**budget: the worst 5-vertex graph takes seconds per kind at 2n + 2,
#: and a 6-vertex graph had not finished its three kinds after minutes.
ENUMERATION_MAX_N = 5


def enumerated_interval(
    graph: Graph, u: int, v: int, kind: IntervalKind, budget: int | None = None
) -> VertexSet:
    """Unmemoised ground truth: depth-first over raw vertex sequences of at
    most ``budget`` edges (2n + 2 by default, which is also the largest
    budget accepted; graphs above ``ENUMERATION_MAX_N`` vertices are
    refused).

    Every extension keeps the walk-edge constraint and drops dead prefixes.
    For all three kinds the u-side condition is a separate test of each
    position i >= 1, given w_1: a vertex adjacent to u must be w_1 for
    weakly and semi weakly toll walks, and must sit at position 1 for
    tolled walks.  So a prefix that fails it at some position fails it in
    every extension, and skipping the prefix loses no valid walk.  Full
    sequences ending at v are still validated with the verbatim condition
    checkers.
    """
    kind = IntervalKind(kind)
    checker = _CHECKERS[kind]
    require_connected(graph, "walk enumeration")
    graph._check_vertex(u)
    graph._check_vertex(v)
    max_len = 2 * graph.n + 2 if budget is None else budget
    if max_len < 1:
        raise ValueError("walk budget must allow at least one edge")
    if graph.n > ENUMERATION_MAX_N or max_len > 2 * graph.n + 2:
        raise ValueError(
            f"walk enumeration is limited to {ENUMERATION_MAX_N} vertices and 2n + 2 "
            f"edges; requested n={graph.n}, budget {max_len}"
        )
    if u == v:
        return VertexSet(graph.n, 1 << u)
    nbrs = oracle._neighbour_lists(graph)
    toll = kind is IntervalKind.TOLL
    mask = 0
    walk = [u]

    def extend() -> None:
        nonlocal mask
        if walk[-1] == v and checker(nbrs, walk, u, v):
            for x in walk:
                mask |= 1 << x
        if len(walk) > max_len:
            return
        for w in nbrs[walk[-1]]:
            if len(walk) > 1 and w in nbrs[u] and (toll or w != walk[1]):
                continue
            walk.append(w)
            extend()
            walk.pop()

    extend()
    return VertexSet(graph.n, mask)


# -- oracle vs literal enumeration ----------------------------------------


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
                    assert walks_within(g, u, v, kind, budget) == enumerated_interval(
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
                        assert walks_within(g, s, t, kind, 8) == enumerated_interval(
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


def _oracle_covering_sets(g):
    # the least sets whose pairwise oracle intervals cover V, by plain
    # subset enumeration over the oracle's own weakly toll intervals
    table = {
        (u, v): oracle_interval(g, u, v, IntervalKind.WEAKLY_TOLL).mask
        for u in range(g.n)
        for v in range(u, g.n)
    }
    full = (1 << g.n) - 1
    for size in range(1, g.n + 1):
        found = [
            set(subset)
            for subset in combinations(range(g.n), size)
            if full == functools.reduce(
                operator.or_, (table[pair] for pair in combinations_with_replacement(subset, 2))
            )
        ]
        if found:
            return size, found
    raise AssertionError("V covers itself")


def test_oracle_wtn_known_values():
    # the oracle's intervals alone give the known weakly toll numbers,
    # without the engine's table or subset search
    assert _oracle_covering_sets(complete_graph(4))[0] == 4
    for seed in range(6):
        assert _oracle_covering_sets(random_tree(4 + seed, seed))[0] == 2
    value, witnesses = _oracle_covering_sets(two_clique_bridge(3))
    assert value == 4
    assert {1, 2, 4, 5} in witnesses


def _pairs(g, kind):
    if kind is IntervalKind.SEMI_WEAKLY_TOLL:
        return [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]


def test_budget_stabilisation():
    # the interval is complete by walk budget 2n: every shortest witness has
    # at most 2n edges (the margin the verification checks log)
    for g in seeded_random_graphs(10, sizes=(6, 7, 8), base_seed=411):
        for kind in ORACLE_KINDS:
            for lengths in witness_lengths(g, _pairs(g, kind), kind):
                assert max(lengths.values()) <= 2 * g.n, (g.edges(), kind)


def test_one_call_over_all_pairs_equals_one_call_per_pair():
    zoo = [g for n in range(2, 6) for g in connected_graphs(n)]
    zoo += seeded_random_graphs(20, sizes=(7, 8), base_seed=2718)
    for g in zoo:
        for kind in ORACLE_KINDS:
            pairs = _pairs(g, kind)
            if kind is IntervalKind.SEMI_WEAKLY_TOLL:
                # consecutive pairs change source on every step
                pairs.sort(key=lambda pair: (pair[1], pair[0]))
            searched = list(witness_lengths(g, pairs, kind))
            assert searched == [next(witness_lengths(g, [pair], kind)) for pair in pairs]
            for (u, v), lengths in zip(pairs, searched):
                assert oracle_interval(g, u, v, kind).mask == sum(1 << x for x in lengths)
                if kind is IntervalKind.TOLL and g.adjacent(u, v):
                    assert lengths == {u: 1, v: 1}


def test_witness_lengths_are_minimal():
    # each vertex's length is the least budget at which literal enumeration
    # finds a walk through it
    for g in [g for n in range(2, 5) for g in connected_graphs(n)] + [CLAW, path_graph(5)]:
        for kind in ORACLE_KINDS:
            pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
            top = 2 * g.n + 2
            for (u, v), lengths in zip(pairs, witness_lengths(g, pairs, kind)):
                if u == v:
                    assert lengths == {u: 0}
                    continue
                first_in = {}
                for budget in range(1, top + 1):
                    for x in enumerated_interval(g, u, v, kind, budget):
                        first_in.setdefault(x, budget)
                assert lengths == first_in, (g.edges(), kind, u, v)


#: The path 2 - 0 - 1 - 3.
BENT_PATH = Graph.from_edge_list(4, [(2, 0), (0, 1), (1, 3)])


@pytest.mark.parametrize(
    "kind, u, v, expected",
    [
        # hub 2 would have to come back through 0 to reach the common
        # neighbour 1, which is a second vertex of N(0); a ban of
        # (N(u) | N(v)) - {a, b} would let it in at length 4
        (IntervalKind.WEAKLY_TOLL, 0, 3, {0: 2, 1: 2, 3: 2}),
        (IntervalKind.TOLL, 0, 3, {0: 2, 1: 2, 3: 2}),
        (IntervalKind.SEMI_WEAKLY_TOLL, 0, 3, {0: 2, 1: 2, 3: 2}),
        (IntervalKind.TOLL, 2, 3, {2: 3, 0: 3, 1: 3, 3: 3}),
        # adjacent: v is the only first hub and u the only last one
        (IntervalKind.WEAKLY_TOLL, 0, 1, {0: 1, 1: 1}),
        (IntervalKind.TOLL, 0, 1, {0: 1, 1: 1}),
        # a target next to its source is the only first hub, and the walk
        # may leave it and come back: 0, 1, 3, 1
        (IntervalKind.SEMI_WEAKLY_TOLL, 0, 1, {0: 1, 1: 1, 3: 3}),
        (IntervalKind.SEMI_WEAKLY_TOLL, 1, 0, {1: 1, 0: 1, 2: 3}),
    ],
)
def test_hand_checked_witness_lengths(kind, u, v, expected):
    assert next(witness_lengths(BENT_PATH, [(u, v)], kind)) == expected


def _shared_search_zoo():
    return [g for n in range(2, 6) for g in connected_graphs(n)] + seeded_random_graphs(
        12, sizes=(7, 8), base_seed=1414
    )


def test_swt_shared_search_equals_one_search_per_pair():
    swt = IntervalKind.SEMI_WEAKLY_TOLL
    rng = random.Random(14)
    for g in _shared_search_zoo():
        pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
        fresh = {(u, v): next(witness_lengths(g, [(u, v)], swt)) for u, v in pairs}
        orders = {
            "shuffled": rng.sample(pairs, len(pairs)),
            # consecutive pairs change source on every step
            "interleaved": sorted(pairs, key=lambda pair: (pair[1], pair[0])),
            "repeated": [pair for pair in pairs for _ in range(2)] + pairs,
            # a u == v pair of another source between two of the same source
            "u == v between": [pair for u, v in pairs if u != v for pair in ((u, v), (v, v))],
        }
        for name, order in orders.items():
            searched = list(witness_lengths(g, order, swt))
            assert searched == [fresh[pair] for pair in order], (g.edges(), name)


def test_swt_runs_the_hub_searches_once_per_source(monkeypatch):
    sources = []
    hub_searches = oracle._hub_searches

    def counted(nbrs, u):
        sources.append(u)
        return hub_searches(nbrs, u)

    monkeypatch.setattr(oracle, "_hub_searches", counted)
    swt = IntervalKind.SEMI_WEAKLY_TOLL
    for g in [CLAW, path_graph(5), *seeded_random_graphs(4, sizes=(7, 8), base_seed=1515)]:
        grouped = [(u, v) for u in range(g.n) for v in range(g.n)]
        interleaved = sorted(grouped, key=lambda pair: (pair[1], pair[0]))
        for order, expected in (
            (grouped, list(range(g.n))),
            # a u == v pair neither searches nor drops the current source
            (interleaved, [u for v in range(g.n) for u in range(g.n) if u != v]),
        ):
            sources.clear()
            list(witness_lengths(g, order, swt))
            assert sources == expected, g.edges()
        for kind in (IntervalKind.WEAKLY_TOLL, IntervalKind.TOLL):
            sources.clear()
            list(witness_lengths(g, grouped, kind))
            assert sources == [], (g.edges(), kind)


def test_oracle_imports_no_engine_logic():
    # the oracle reads only the kind names from ``intervals``, none of the
    # sweeps the engines are built from, and nothing from ``convexity``
    tree = ast.parse(Path(oracle.__file__).read_text())
    from_intervals, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(
                name in alias.name for alias in node.names for name in ("intervals", "convexity")
            )
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = (node.module or "").rpartition(".")[2]
            assert module != "convexity", names
            if module == "intervals":
                from_intervals |= names
            imported |= names
    assert from_intervals == {"IntervalKind"}
    forbidden = {"intervals", "convexity", "_BODIES", "component_boundaries", "neighbourhood"}
    assert not imported & forbidden


def test_witness_lengths_checks_its_input():
    with pytest.raises(DisconnectedGraphError):
        witness_lengths(Graph.from_edge_list(4, [(0, 1), (2, 3)]), [(0, 1)], IntervalKind.TOLL)
    with pytest.raises(ValueError, match="out of range"):
        witness_lengths(CLAW, [(0, 1), (0, 4)], IntervalKind.TOLL)
    with pytest.raises(ValueError, match="no walk oracle"):
        witness_lengths(CLAW, [(0, 1)], IntervalKind.GEODESIC)
    # equal to a checked vertex, but not a vertex
    with pytest.raises(ValueError, match="vertex 1.0 out of range"):
        witness_lengths(CLAW, [(0, 1), (1.0, 2)], IntervalKind.TOLL)


def test_witness_lengths_checks_each_endpoint_once(monkeypatch):
    checked = []
    check_vertex = Graph._check_vertex

    def counted(graph, v):
        checked.append(v)
        return check_vertex(graph, v)

    monkeypatch.setattr(Graph, "_check_vertex", counted)
    g = path_graph(5)
    for kind in ORACLE_KINDS:
        checked.clear()
        witness_lengths(g, [(u, v) for u in range(g.n) for v in range(g.n)], kind)
        assert checked == list(range(g.n)), kind
