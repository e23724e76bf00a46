import pytest

from conftest import seeded_random_graphs, small_named_graphs
from wtoll.convexity import hull, is_convex, maximum_interval_pairs, wth, wtn
from wtoll.graphs import (
    DisconnectedGraphError,
    Graph,
    VertexSet,
    cycle_graph,
    path_graph,
    random_tree,
    two_clique_bridge,
)
from wtoll.intervals import (
    IntervalKind,
    geodesic_interval,
    interval,
    interval_closure,
    is_weakly_toll_set,
    monophonic_interval,
    semi_weakly_toll_interval,
    toll_interval,
    weakly_toll_interval,
)
from wtoll.oracle import ORACLE_KINDS, oracle_interval

CLAW = Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])

ENGINES = {
    IntervalKind.WEAKLY_TOLL: weakly_toll_interval,
    IntervalKind.SEMI_WEAKLY_TOLL: semi_weakly_toll_interval,
    IntervalKind.TOLL: toll_interval,
}


def _engine_vs_oracle(graph):
    for kind in ORACLE_KINDS:
        fn = ENGINES[kind]
        for u in range(graph.n):
            for v in range(graph.n):
                assert fn(graph, u, v) == oracle_interval(graph, u, v, kind), (
                    graph.edges(),
                    kind,
                    u,
                    v,
                )


def test_engine_matches_oracle_on_zoo(graph_zoo):
    for _, g in graph_zoo:
        _engine_vs_oracle(g)


def test_engine_matches_oracle_on_random_graphs():
    for g in seeded_random_graphs(24, sizes=(5, 6, 7, 8), base_seed=1200):
        _engine_vs_oracle(g)


# -- worked examples ---------------------------------------------------------


def test_claw_weakly_toll_covers_fourth_leaf():
    # the walk 0,1,3,1,2 picks up leaf 3 between the other two leaves
    assert weakly_toll_interval(CLAW, 0, 2) == VertexSet.full(4)
    assert sorted(toll_interval(CLAW, 0, 2)) == [0, 1, 2]
    assert sorted(semi_weakly_toll_interval(CLAW, 0, 2)) == [0, 1, 2, 3]


def test_path_and_cycle_values():
    p4 = path_graph(4)
    assert weakly_toll_interval(p4, 0, 3) == VertexSet.full(4)
    assert toll_interval(p4, 0, 3) == VertexSet.full(4)
    c5 = cycle_graph(5)
    assert weakly_toll_interval(c5, 0, 2) == VertexSet.full(5)
    assert sorted(geodesic_interval(c5, 0, 2)) == [0, 1, 2]
    assert monophonic_interval(c5, 0, 2) == VertexSet.full(5)


def test_semi_weakly_toll_examples():
    p3 = path_graph(3)
    assert semi_weakly_toll_interval(p3, 0, 2) == VertexSet.full(3)
    c4 = cycle_graph(4)
    assert semi_weakly_toll_interval(c4, 0, 2) == VertexSet.full(4)


def test_adjacent_and_equal_pairs():
    p4 = path_graph(4)
    symmetric = [k for k in IntervalKind if k is not IntervalKind.SEMI_WEAKLY_TOLL]
    for kind in symmetric:
        assert sorted(interval(p4, 1, 2, kind)) == [1, 2]
    for kind in IntervalKind:
        assert sorted(interval(p4, 2, 2, kind)) == [2]


def test_semi_weakly_toll_adjacent_pair_roams_past_target():
    # only the source side is restricted, so the walk 1,2,3,2 on the path
    # 0-1-2-3 is valid and the adjacent pair reaches a third vertex
    p4 = path_graph(4)
    assert sorted(semi_weakly_toll_interval(p4, 1, 2)) == [1, 2, 3]
    assert sorted(semi_weakly_toll_interval(p4, 2, 1)) == [0, 1, 2]
    assert sorted(oracle_interval(p4, 1, 2, IntervalKind.SEMI_WEAKLY_TOLL)) == [1, 2, 3]


def test_semi_weakly_toll_is_ordered():
    # from a leaf of the bridge graph the source restriction bites; in the
    # other direction the walk may roam back across the middle
    g = two_clique_bridge(3)
    assert semi_weakly_toll_interval(g, 1, 6) != semi_weakly_toll_interval(g, 6, 1)


def test_disconnected_rejected():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    for kind in IntervalKind:
        what = kind.value.replace("-", " ")
        with pytest.raises(DisconnectedGraphError, match=f"^{what} interval requires"):
            interval(g, 0, 3, kind)
    pair = VertexSet.from_iterable(4, [0, 3])
    wt = IntervalKind.WEAKLY_TOLL
    for what, call in (
        ("weakly toll interval", lambda: interval_closure(g, pair, wt)),
        ("semi weakly toll interval", lambda: interval_closure(g, pair, "semi-weakly-toll")),
        ("weakly toll interval", lambda: hull(g, pair)),
        ("toll interval", lambda: hull(g, pair, IntervalKind.TOLL)),
        ("convexity test", lambda: is_convex(g, pair, wt)),
        ("weakly toll number", lambda: wtn(g)),
        ("weakly toll hull number", lambda: wth(g)),
        ("maximum interval search", lambda: maximum_interval_pairs(g)),
    ):
        with pytest.raises(DisconnectedGraphError, match=f"^{what} requires a connected graph$"):
            call()


# -- structural properties ---------------------------------------------------


def test_interval_nesting_chain():
    for g in seeded_random_graphs(12, sizes=(5, 6, 7), base_seed=1500):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                geo = geodesic_interval(g, u, v)
                mono = monophonic_interval(g, u, v)
                tol = toll_interval(g, u, v)
                wt = weakly_toll_interval(g, u, v)
                assert geo <= mono <= tol <= wt


def test_symmetry_and_endpoints():
    for g in seeded_random_graphs(10, sizes=(6, 7), base_seed=1600):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert weakly_toll_interval(g, u, v) == weakly_toll_interval(g, v, u)
                assert toll_interval(g, u, v) == toll_interval(g, v, u)
                wt = weakly_toll_interval(g, u, v)
                assert u in wt and v in wt
                assert geodesic_interval(g, u, v) <= wt


def test_neighbor_extension_property():
    # outside both closed neighbourhoods, touching the interior pulls you in
    for g in seeded_random_graphs(12, sizes=(6, 7), base_seed=1700):
        adj = g.adjacency_masks()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adjacent(u, v):
                    continue
                wt = weakly_toll_interval(g, u, v)
                interior = wt.mask & ~(1 << u | 1 << v)
                shell = adj[u] | adj[v] | 1 << u | 1 << v
                for x in range(g.n):
                    if shell >> x & 1 or x in wt:
                        continue
                    assert adj[x] & interior == 0, (g.edges(), u, v, x)


# -- closure -----------------------------------------------------------------


def test_closure_examples():
    tree = random_tree(7, 3)
    leaves = [v for v in range(7) if tree.degree(v) == 1]
    closed = interval_closure(
        tree, VertexSet.from_iterable(7, leaves[:2]), IntervalKind.WEAKLY_TOLL
    )
    assert closed == VertexSet.full(7)
    assert is_weakly_toll_set(tree, VertexSet.from_iterable(7, leaves[:2]))

    single = VertexSet.from_iterable(5, [3])
    assert interval_closure(cycle_graph(5), single, IntervalKind.WEAKLY_TOLL) == single
    full = VertexSet.full(5)
    assert interval_closure(cycle_graph(5), full, IntervalKind.WEAKLY_TOLL) == full


def test_weakly_toll_sets():
    from wtoll.graphs import complete_graph

    k4 = complete_graph(4)
    import itertools

    for size in range(1, 4):
        for combo in itertools.combinations(range(4), size):
            assert not is_weakly_toll_set(k4, VertexSet.from_iterable(4, combo))
    assert is_weakly_toll_set(k4, VertexSet.full(4))

    bridge = two_clique_bridge(3)
    assert is_weakly_toll_set(bridge, VertexSet.from_iterable(7, [1, 2, 4, 5]))
    assert not is_weakly_toll_set(bridge, VertexSet.from_iterable(7, [1, 4]))
