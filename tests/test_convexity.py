import itertools
import sys
import threading

import pytest

from conftest import seeded_random_graphs
from wtoll import convexity, intervals
from wtoll.convexity import (
    InfeasibleSearchError,
    check_max_interval_decomposition,
    check_wtn_exceeds_two_criterion,
    hull,
    interval_report,
    is_convex,
    maximum_interval_pairs,
    wth,
    wtn,
)
from wtoll.graphs import (
    CompleteGraphError,
    Graph,
    TrivialGraphError,
    VertexSet,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    two_clique_bridge,
)
from wtoll.intervals import (
    IntervalKind,
    interval,
    interval_closure,
    pair_intervals,
    semi_weakly_toll_interval,
)
from wtoll.oracle import oracle_interval
from wtoll.products import cartesian, lexicographic
from wtoll.verify import connected_graphs

CLAW = Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])


def test_claw_convexity_split():
    s = VertexSet.from_iterable(4, [0, 1, 2])
    assert is_convex(CLAW, s, IntervalKind.TOLL)
    assert not is_convex(CLAW, s, IntervalKind.WEAKLY_TOLL)
    assert is_convex(CLAW, VertexSet.full(4), IntervalKind.WEAKLY_TOLL)
    # a subset of another vertex range is refused, not judged
    foreign = VertexSet.from_iterable(4, [0, 3])
    with pytest.raises(ValueError, match="subset belongs to a different vertex range"):
        is_convex(path_graph(6), foreign, IntervalKind.WEAKLY_TOLL)
    with pytest.raises(ValueError, match="subset belongs to a different vertex range"):
        hull(path_graph(6), foreign, IntervalKind.WEAKLY_TOLL)


def test_is_convex_is_its_definition():
    # S is convex when every interval between two members, either order, lies in S
    verdicts = set()
    for g in (g for n in range(1, 6) for g in connected_graphs(n)):
        for kind in IntervalKind:
            spans = {(u, v): interval(g, u, v, kind) for u in range(g.n) for v in range(g.n)}
            for bits in range(1 << g.n):
                s = VertexSet(g.n, bits)
                literal = all(spans[u, v] <= s for u in s for v in s)
                assert is_convex(g, s, kind) == literal, (g.edges(), kind, sorted(s))
                verdicts.add((kind, literal))
    assert len(verdicts) == 2 * len(IntervalKind)


def test_hull_examples():
    c5 = cycle_graph(5)
    convex = VertexSet.from_iterable(5, [0, 1])
    assert hull(c5, convex, IntervalKind.WEAKLY_TOLL) == convex

    tree = random_tree(8, 5)
    leaves = [v for v in range(8) if tree.degree(v) == 1]
    assert hull(tree, VertexSet.from_iterable(8, leaves[:2])) == VertexSet.full(8)

    bridge = two_clique_bridge(3)
    five = hull(bridge, VertexSet.from_iterable(7, [1, 4]))
    assert sorted(five) == [0, 1, 3, 4, 6]

    with pytest.raises(ValueError):
        hull(c5, VertexSet.from_iterable(5, []))


def test_hull_is_literal_interval_fixpoint():
    asymmetric = 0
    for i, g in enumerate(seeded_random_graphs(10, sizes=(5, 6, 7), base_seed=1800)):
        seed = VertexSet.from_iterable(g.n, [i % g.n, (3 * i + 1) % g.n])
        for kind in IntervalKind:
            current = seed
            while True:
                grown = current
                for u in current:
                    for v in current:
                        grown = grown | interval(g, u, v, kind)
                if grown == current:
                    break
                current = grown
            assert hull(g, seed, kind) == current, (g.edges(), kind, sorted(seed))
        table = pair_intervals(g, IntervalKind.SEMI_WEAKLY_TOLL)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                forward = semi_weakly_toll_interval(g, u, v)
                backward = semi_weakly_toll_interval(g, v, u)
                assert table[u, v] == (forward | backward).mask, (g.edges(), u, v)
                asymmetric += forward != backward
    assert asymmetric  # the union is not one order in disguise


def test_graph_checked_once_per_call(monkeypatch):
    product = lexicographic(path_graph(3), cycle_graph(4)).graph
    seed = VertexSet.from_iterable(product.n, [0, 5, 9])
    checks = []
    original = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda self: checks.append(self) or original(self))
    for call in (
        lambda: wtn(product),
        lambda: hull(product, seed),
        lambda: interval_closure(product, seed, IntervalKind.WEAKLY_TOLL),
    ):
        checks.clear()
        call()
        assert len(checks) <= 1


def test_wtn_known_values():
    assert wtn(cycle_graph(5))[0] == 2
    for n in (4, 5):
        assert wtn(complete_graph(n))[0] == n
    value, witness = wtn(two_clique_bridge(3))
    assert value == 4 and sorted(witness) == [1, 2, 4, 5]
    assert wtn(two_clique_bridge(4))[0] == 6
    for seed in range(8):
        assert wtn(random_tree(5 + seed % 4, seed))[0] == 2
        assert wtn(random_tree(4 + seed, seed))[0] == 2


def test_wtn_bounds_and_hull():
    for g in seeded_random_graphs(8, sizes=(5, 6), base_seed=77):
        value, witness = wtn(g)
        assert 2 <= value <= g.n and len(witness) == value
        assert wth(g)[0] <= value


def test_wtn_with_two_leaves_is_two():
    for seed in range(8):
        base = seeded_random_graphs(1, sizes=(5,), base_seed=3300 + seed)[0]
        n = base.n
        edges = base.edges() + [(0, n), (1, n + 1)]
        g = Graph.from_edge_list(n + 2, edges)
        assert wtn(g)[0] == 2


def test_wtn_errors():
    with pytest.raises(TrivialGraphError):
        wtn(complete_graph(1))


def test_wtn_and_wth_match_oracle():
    # the filled table is all that wtn and wth read of the graph, so it is
    # where an exact search over oracle intervals could differ from them
    wt = IntervalKind.WEAKLY_TOLL
    for g in seeded_random_graphs(10, sizes=(5, 6, 7), base_seed=3400):
        assert wth(g)[0] <= wtn(g)[0]
        for (u, v), mask in pair_intervals(g, wt).filled().items():
            assert mask == oracle_interval(g, u, v, wt).mask, (g.edges(), u, v)


def test_wtn_two_iff_full_pair_interval():
    from wtoll.intervals import weakly_toll_interval

    for g in seeded_random_graphs(12, sizes=(5, 6), base_seed=3500):
        full = VertexSet.full(g.n)
        some_full_pair = any(
            weakly_toll_interval(g, u, v) == full
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        assert (wtn(g)[0] == 2) == some_full_pair


def test_maximum_interval_pairs():
    tree = random_tree(7, 9)
    pairs = maximum_interval_pairs(tree)
    leaves = {v for v in range(7) if tree.degree(v) == 1}
    for u, v, report in pairs:
        assert not report.outside
        assert report.interval == VertexSet.full(7)
    assert any(u in leaves and v in leaves for u, v, _ in pairs)

    claw_pairs = maximum_interval_pairs(CLAW)
    assert [(u, v) for u, v, _ in claw_pairs] == [(0, 2), (0, 3), (2, 3)]
    assert all(len(r.interval) == 4 for _, _, r in claw_pairs)

    bridge_pairs = maximum_interval_pairs(two_clique_bridge(3))
    assert all(len(r.interval) == 5 for _, _, r in bridge_pairs)
    assert (1, 4) in [(u, v) for u, v, _ in bridge_pairs]

    with pytest.raises(CompleteGraphError):
        maximum_interval_pairs(complete_graph(4))


def test_interval_report_fields():
    report = interval_report(two_clique_bridge(3), 1, 4)
    assert sorted(report.interval) == [0, 1, 3, 4, 6]
    assert sorted(report.outside) == [2, 5]
    assert sorted(report.missed_near_u) == [2]
    assert sorted(report.missed_near_v) == [5]


def test_decomposition_checks():
    assert check_max_interval_decomposition(path_graph(5))
    assert check_wtn_exceeds_two_criterion(path_graph(5))
    assert check_max_interval_decomposition(two_clique_bridge(3))
    assert check_wtn_exceeds_two_criterion(two_clique_bridge(3))
    for g in seeded_random_graphs(12, sizes=(5, 6, 7), base_seed=3600):
        if g.is_complete():
            continue
        assert check_max_interval_decomposition(g)
        assert check_wtn_exceeds_two_criterion(g)


def test_convexity_nesting_over_subsets():
    order = [
        IntervalKind.WEAKLY_TOLL,
        IntervalKind.TOLL,
        IntervalKind.MONOPHONIC,
        IntervalKind.GEODESIC,
    ]
    for g in seeded_random_graphs(6, sizes=(4, 5), base_seed=3700):
        for bits in range(1 << g.n):
            s = VertexSet(g.n, bits)
            flags = [is_convex(g, s, kind) for kind in order]
            for stronger, weaker in zip(flags, flags[1:]):
                assert not stronger or weaker


def test_hull_closure_axioms():
    import random

    rng = random.Random(99)
    kinds = list(IntervalKind)
    for g in seeded_random_graphs(10, sizes=(5, 6), base_seed=3800):
        kind = kinds[rng.randrange(len(kinds))]
        small = VertexSet.from_iterable(g.n, rng.sample(range(g.n), 2))
        big = small | VertexSet.from_iterable(g.n, rng.sample(range(g.n), 2))
        h_small = hull(g, small, kind)
        assert small <= h_small
        assert hull(g, h_small, kind) == h_small
        assert h_small <= hull(g, big, kind)


def test_hull_is_least_convex_superset():
    # the fixpoint agrees with the intersection of all convex supersets
    for g in seeded_random_graphs(4, sizes=(4,), base_seed=4000):
        for kind in (IntervalKind.WEAKLY_TOLL, IntervalKind.TOLL):
            for bits in range(1, 1 << g.n):
                seed = VertexSet(g.n, bits)
                closed = hull(g, seed, kind)
                assert is_convex(g, closed, kind)
                for sup_bits in range(1 << g.n):
                    sup = VertexSet(g.n, sup_bits)
                    if seed <= sup and is_convex(g, sup, kind):
                        assert closed <= sup


def test_every_weakly_toll_set_is_a_hull_set():
    from wtoll.intervals import is_weakly_toll_set

    for g in seeded_random_graphs(8, sizes=(5, 6), base_seed=3900):
        value, witness = wtn(g)
        assert is_weakly_toll_set(g, witness)
        assert hull(g, witness) == VertexSet.full(g.n)


def _block_graph(sizes: list[int], chain: bool = True) -> Graph:
    """Cliques of the given sizes, each glued at one cut vertex to the
    previous clique's last vertex (``chain``) or all to vertex 0."""
    edges, top = [], 0
    for size in sizes:
        joint = top if chain else 0
        block = [joint] + list(range(top + 1, top + size))
        edges += list(itertools.combinations(block, 2))
        top += size - 1
    return Graph.from_edge_list(top + 1, edges)


def _brute_force(g: Graph) -> tuple[tuple[int, VertexSet], tuple[int, VertexSet]]:
    """``wtn`` and ``wth`` by trying every subset in combinations order."""
    full = VertexSet.full(g.n)

    def least(spans):
        for k in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), k):
                subset = VertexSet.from_iterable(g.n, combo)
                if spans(subset):
                    return k, subset

    return (
        least(lambda s: interval_closure(g, s, IntervalKind.WEAKLY_TOLL) == full),
        least(lambda s: hull(g, s) == full),
    )


def test_wtn_and_wth_equal_brute_force():
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    graphs += seeded_random_graphs(24, sizes=(7, 8, 9, 10), base_seed=4100)
    graphs += [
        _block_graph(sizes, chain)
        for sizes in ([3, 3, 3], [2, 4, 3], [4, 2, 2, 4], [3, 4, 2, 3])
        for chain in (True, False)
    ]
    graphs += [two_clique_bridge(k) for k in (3, 4, 5)]
    beyond_two = 0
    for g in graphs:
        expected = _brute_force(g)
        assert (wtn(g), wth(g)) == expected, g.edges()
        beyond_two += expected[0][0] > 2
    assert beyond_two > 20  # the pruned third stage is exercised, not only pairs


def _count_pairs(monkeypatch) -> list[tuple[int, int]]:
    """Record every weakly toll pair an engine body computes for a table
    built from now on; each test's graphs are fresh objects, so no table of
    theirs exists yet."""
    body = intervals._BODIES[IntervalKind.WEAKLY_TOLL]
    calls = []

    def counted(adj, n, u, v):
        calls.append((u, v))
        return body(adj, n, u, v)

    monkeypatch.setitem(intervals._BODIES, IntervalKind.WEAKLY_TOLL, counted)
    return calls


def test_wtn_two_reads_few_pairs(monkeypatch):
    calls = _count_pairs(monkeypatch)
    product = cartesian(path_graph(4), cycle_graph(5)).graph
    assert wtn(product)[0] == 2
    assert 0 < len(calls) <= product.n  # of n(n-1)/2 = 190 pairs


def test_wth_after_wtn_reuses_the_table(monkeypatch):
    calls = _count_pairs(monkeypatch)
    bridge = two_clique_bridge(4)
    assert wtn(bridge)[0] == 6
    assert len(calls) == bridge.n * (bridge.n - 1) // 2
    calls.clear()
    checks = []
    original = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda self: checks.append(self) or original(self))
    assert wth(bridge)[0] == 6
    assert calls == [] and checks == []


def test_exact_search_refuses_oversized_stages(monkeypatch):
    covering = random_connected_graph(8, 0.7, 1280)  # wtn 3, nothing forced
    hull_three = random_connected_graph(6, 0.5, 1222)  # wth 3, two forced
    monkeypatch.setattr(convexity, "MAX_SEARCH_SUBSETS", 56)
    assert wtn(covering)[0] == 3
    monkeypatch.setattr(convexity, "MAX_SEARCH_SUBSETS", 55)
    with pytest.raises(InfeasibleSearchError, match="on 8 vertices with 0 forced would try 56 sets of size 3"):
        wtn(covering)
    assert wth(hull_three)[0] == 3
    monkeypatch.setattr(convexity, "MAX_SEARCH_SUBSETS", 3)
    with pytest.raises(InfeasibleSearchError, match="on 6 vertices with 2 forced would try 4 sets of size 3"):
        wth(hull_three)
    assert issubclass(InfeasibleSearchError, ValueError)


def test_table_cache_shared_across_threads():
    graphs = [
        two_clique_bridge(3),
        two_clique_bridge(4),
        lexicographic(path_graph(3), cycle_graph(4)).graph,
        random_connected_graph(8, 0.7, 1280),
    ]
    # computed on equal copies, so the threads race to build every table
    expected = [(wtn(Graph(g.adjacency_masks())), wth(Graph(g.adjacency_masks()))) for g in graphs]
    tables = [[] for _ in graphs]
    failures = []

    def work(offset: int) -> None:
        try:
            for i in range(offset, offset + 200):
                g = graphs[i % len(graphs)]
                assert (wtn(g), wth(g)) == expected[i % len(graphs)], g.edges()
                tables[i % len(graphs)].append(pair_intervals(g, IntervalKind.WEAKLY_TOLL))
        except Exception as exc:  # reported below, from the main thread
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    # one table per graph and kind, whichever thread built it
    for g, seen in zip(graphs, tables):
        assert seen and all(t is pair_intervals(g, IntervalKind.WEAKLY_TOLL) for t in seen)
