import random

import pytest

from conftest import seeded_random_graphs, small_named_graphs
from wtoll import graphs, intervals
from wtoll.convexity import hull, is_convex, maximum_interval_pairs, wth, wtn
from wtoll.graphs import (
    DisconnectedGraphError,
    Graph,
    VertexSet,
    _bits,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    two_clique_bridge,
)
from wtoll.intervals import (
    IntervalKind,
    closure_mask,
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
from wtoll.products import cartesian, corona, lexicographic, strong
from wtoll.verify import connected_graphs

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


# -- the hub-pair reference ---------------------------------------------------
#
# The engines decide each hub once, from component boundaries.  The bodies
# below reach the same masks by a slower, more literal route: they try every
# pair of exclusive hubs against per-hub touch tables, and take geodesic
# intervals as the vertices x with d(u, x) + d(x, v) = d(u, v).  They grow
# components and distance layers one vertex at a time over ``_bits``, so no
# mask kernel of ``graphs`` is on both sides of the comparison.


def _components(adj, kept: int) -> list[int]:
    """Component masks of the subgraph induced on ``kept``, ordered by
    smallest member, each grown layer by layer from its lowest vertex."""
    comps = []
    todo = kept
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            grown = 0
            for w in _bits(frontier):
                grown |= adj[w]
            frontier = grown & kept & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


def _touch_tables(adj, comps, candidates: int):
    """For each candidate hub, which base components its neighbours touch.

    Returns two dicts keyed by hub vertex: a small bitmask over component
    indices, and the union of the touched components' vertex masks.
    """
    touch_idx = {}
    touch_mask = {}
    for y in _bits(candidates):
        idx = 0
        mask = 0
        for i, comp in enumerate(comps):
            if adj[y] & comp:
                idx |= 1 << i
                mask |= comp
        touch_idx[y] = idx
        touch_mask[y] = mask
    return touch_idx, touch_mask


def _hub_split(adj: tuple[int, ...], n: int, u: int, v: int):
    """For non-adjacent u, v: the components of G - (N[u] | N[v]), the touch
    tables of the hubs N(u) | N(v), and the exclusive hubs (adjacent to u
    only, and to v only)."""
    nu, nv = adj[u], adj[v]
    comps = _components(adj, (1 << n) - 1 & ~(nu | nv | 1 << u | 1 << v))
    touch_idx, touch_mask = _touch_tables(adj, comps, nu | nv)
    return comps, touch_idx, touch_mask, nu & ~nv, nv & ~nu


def _pairwise_weakly_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    if adj[u] >> v & 1:
        return 1 << u | 1 << v
    _, touch_idx, touch_mask, only_u, only_v = _hub_split(adj, n, u, v)
    result = 1 << u | 1 << v
    for a in _bits(adj[u] & adj[v]):
        result |= 1 << a | touch_mask[a]
    for a in _bits(only_u):
        for b in _bits(only_v):
            if adj[a] >> b & 1 or touch_idx[a] & touch_idx[b]:
                result |= 1 << a | 1 << b | touch_mask[a] | touch_mask[b]
    return result


def _pairwise_semi_weakly_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    comps = _components(adj, (1 << n) - 1 & ~(adj[u] | 1 << u))
    touch_idx, touch_mask = _touch_tables(adj, comps, adj[u])
    if adj[u] >> v & 1:
        return 1 << u | 1 << v | touch_mask[v]
    v_idx = next(1 << i for i, comp in enumerate(comps) if comp >> v & 1)
    result = 1 << u
    for a in _bits(adj[u]):
        if touch_idx[a] & v_idx:
            result |= 1 << a | touch_mask[a]
    return result


def _pairwise_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    if adj[u] >> v & 1:
        return 1 << u | 1 << v
    comps, touch_idx, _, only_u, only_v = _hub_split(adj, n, u, v)
    result = 1 << u | 1 << v | adj[u] & adj[v]
    for a in _bits(only_u):
        for b in _bits(only_v):
            if adj[a] >> b & 1:
                result |= 1 << a | 1 << b
            shared = touch_idx[a] & touch_idx[b]
            if shared:
                result |= 1 << a | 1 << b
                for i in _bits(shared):
                    result |= comps[i]
    return result


def _bfs_distances(adj: tuple[int, ...], n: int, source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    frontier = 1 << source
    seen = frontier
    d = 0
    while frontier:
        grown = 0
        for w in _bits(frontier):
            grown |= adj[w]
        frontier = grown & ~seen
        seen |= frontier
        d += 1
        for w in _bits(frontier):
            dist[w] = d
    return dist


def _distance_geodesic(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    du = _bfs_distances(adj, n, u)
    dv = _bfs_distances(adj, n, v)
    d = du[v]
    mask = 0
    for x in range(n):
        if du[x] + dv[x] == d:
            mask |= 1 << x
    return mask


REFERENCE = {
    IntervalKind.WEAKLY_TOLL: _pairwise_weakly_toll,
    IntervalKind.SEMI_WEAKLY_TOLL: _pairwise_semi_weakly_toll,
    IntervalKind.TOLL: _pairwise_toll,
    IntervalKind.GEODESIC: _distance_geodesic,
}


def _engines_match_reference(graph, pairs):
    adj, n = graph.adjacency_masks(), graph.n
    for u, v in pairs:
        for kind, reference in REFERENCE.items():
            assert intervals._BODIES[kind](adj, n, u, v) == reference(adj, n, u, v), (
                graph.edges(),
                kind,
                u,
                v,
            )


def test_engines_match_pairwise_reference_through_six():
    for k in range(2, 7):
        for g in connected_graphs(k):
            _engines_match_reference(g, [(u, v) for u in range(k) for v in range(k) if u != v])


def test_engines_match_pairwise_reference_on_random_graphs():
    rng = random.Random(1800)
    for i, k in enumerate((7, 9, 12, 16, 24, 40, 60)):
        for j, p in enumerate((0.1, 0.3, 0.6)):
            g = random_connected_graph(k, p, 1800 + 3 * i + j)
            pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
            if k > 24:
                pairs = rng.sample(pairs, 400)
            _engines_match_reference(g, pairs)
    # sparse graphs wide enough that the engines' masks take the byte walk
    for k, p, seed in ((100, 0.05, 1830), (200, 0.025, 1831)):
        g = random_connected_graph(k, p, seed)
        pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
        _engines_match_reference(g, rng.sample(pairs, 200))


def _rows_match_bodies(graph, sources):
    """The weakly toll and semi weakly toll tables of a fresh copy of the
    graph, which read kept semi weakly toll sweeps, equal the bodies: their
    ordered functions on every ordered pair with an end among the sources,
    in both orders, and then their filled entries on those pairs."""
    adj, n = graph.adjacency_masks(), graph.n
    fresh = Graph(adj)
    pairs = {p for u in sources for v in range(n) if v != u for p in ((u, v), (v, u))}
    for kind in (IntervalKind.WEAKLY_TOLL, IntervalKind.SEMI_WEAKLY_TOLL):
        body, table = intervals._BODIES[kind], intervals.pair_intervals(fresh, kind)
        expected = {(u, v): body(adj, n, u, v) for u, v in pairs}
        for (u, v), mask in expected.items():
            assert table.ordered(u, v) == mask, (kind, graph.edges(), u, v)
        table.filled()
        for u, v in pairs:
            if u < v:
                assert table[u, v] == expected[u, v] | expected[v, u], (kind, graph.edges(), u, v)


def test_rows_match_bodies():
    for k in range(2, 7):
        for g in connected_graphs(k):
            _rows_match_bodies(g, range(k))
    rng = random.Random(2100)
    for i in range(4):
        g, h = (random_connected_graph(rng.randint(3, 6), 0.5, 2100 + 2 * i + j) for j in (0, 1))
        for product in (lexicographic(g, h).graph, corona(g, h).graph):
            _rows_match_bodies(product, range(product.n))
    _rows_match_bodies(random_connected_graph(100, 0.05, 2110), range(100))
    _rows_match_bodies(random_connected_graph(200, 0.025, 2111), rng.sample(range(200), 12))


def _relabelled(graph, sigma):
    """sigma(G): vertex x of the graph becomes sigma[x]."""
    return Graph.from_edge_list(graph.n, [(sigma[u], sigma[v]) for u, v in graph.edges()])


def _image(mask, sigma):
    return sum(1 << sigma[x] for x in _bits(mask))


def test_relabelling_commutes_with_the_engines_and_tables():
    # needs no reference, so it holds at every size: a wrong byte, shift or
    # offset in a mask kernel depends on where a vertex sits
    rng = random.Random(2300)
    # wtn 3 and wth 2
    factors = (random_connected_graph(5, 0.5, 2307), random_connected_graph(6, 0.5, 2308))
    product = lexicographic(*factors).graph
    kinds = (IntervalKind.WEAKLY_TOLL, IntervalKind.SEMI_WEAKLY_TOLL, IntervalKind.TOLL,
             IntervalKind.GEODESIC)
    for graph in (random_connected_graph(200, 0.025, 1), product):
        n = graph.n
        sigma = rng.sample(range(n), n)
        moved = _relabelled(graph, sigma)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(200)]
        for kind in kinds:
            for u, v in pairs:
                expected = _image(interval(graph, u, v, kind).mask, sigma)
                assert interval(moved, sigma[u], sigma[v], kind).mask == expected, (n, kind, u, v)
        for kind in kinds[:2]:
            table, moved_table = (intervals.pair_intervals(g, kind) for g in (graph, moved))
            for u, v in pairs:
                x, y = sorted((sigma[u], sigma[v]))
                assert moved_table[x, y] == _image(table[min(u, v), max(u, v)], sigma), (n, kind, u, v)
    # the product was relabelled last: hulls of its seeded non-adjacent pairs
    far = [(u, v) for u, v in pairs if not product.adjacent(u, v)][:10]
    assert len(far) == 10
    for kind in kinds:
        for u, v in far:
            closed = hull(product, VertexSet.from_iterable(n, (u, v)), kind)
            moved_hull = hull(moved, VertexSet.from_iterable(n, (sigma[u], sigma[v])), kind)
            assert moved_hull.mask == _image(closed.mask, sigma), (kind, u, v)
    # the values only: a witness is the first spanning set in vertex order
    assert (wtn(moved)[0], wth(moved)[0]) == (wtn(product)[0], wth(product)[0])
    # wtn 2: the pair stage tries only the spanning targets, which move with
    # their vertices
    crown = corona(random_connected_graph(5, 0.5, 2751), random_connected_graph(4, 0.5, 2841)).graph
    sigma = rng.sample(range(crown.n), crown.n)
    moved = _relabelled(crown, sigma)
    value, witness = wtn(moved)
    assert value == wtn(crown)[0] == 2
    assert is_weakly_toll_set(moved, witness)
    table, moved_table = (intervals.pair_intervals(g, IntervalKind.WEAKLY_TOLL) for g in (crown, moved))
    for u in range(crown.n):
        assert moved_table.targets(sigma[u]) == _image(table.targets(u), sigma), u


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


def _count_sweeps(monkeypatch) -> list[int]:
    """Record every connectivity sweep, that is, every component search
    over the whole vertex set made from module ``graphs``."""
    sweeps = []
    original = graphs.component_boundaries

    def counted(adj, kept):
        if kept == (1 << len(adj)) - 1:
            sweeps.append(kept)
        return original(adj, kept)

    monkeypatch.setattr(graphs, "component_boundaries", counted)
    return sweeps


def test_connectivity_swept_once_per_graph(monkeypatch):
    g = random_connected_graph(12, 0.3, 1900)
    sweeps = _count_sweeps(monkeypatch)
    rng = random.Random(1900)
    kinds = list(IntervalKind)
    for i in range(50):
        interval(g, rng.randrange(12), rng.randrange(12), kinds[i % len(kinds)])
    wtn(g)
    hull(g, VertexSet.from_iterable(12, [0, 5]))
    assert len(sweeps) == 1


def test_graph_keeps_its_tables():
    first = random_connected_graph(9, 0.4, 1901)
    table = intervals.pair_intervals(first, IntervalKind.WEAKLY_TOLL)
    for seed in range(5):
        wtn(first)
        wtn(random_connected_graph(9, 0.4, 1902 + seed))
        assert intervals.pair_intervals(first, IntervalKind.WEAKLY_TOLL) is table
    # an equal graph is another object with tables of its own
    twin = Graph(first.adjacency_masks())
    assert twin == first and intervals.pair_intervals(twin, IntervalKind.WEAKLY_TOLL) is not table


def test_pair_table_is_the_dict_its_readers_index():
    g = two_clique_bridge(3)
    for kind in IntervalKind:
        table = intervals.pair_intervals(g, kind)
        # every read is the C dict lookup; only a missing pair runs Python code
        assert isinstance(table, dict) and type(table).__getitem__ is dict.__getitem__
        assert not table
        assert table[1, 4] == (interval(g, 1, 4, kind) | interval(g, 4, 1, kind)).mask
        assert list(table) == [(1, 4)]
        assert table.filled() is table and len(table) == g.n * (g.n - 1) // 2


def test_disconnected_graph_raises_on_every_call(monkeypatch):
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    sweeps = _count_sweeps(monkeypatch)
    for _ in range(3):
        for kind in IntervalKind:
            with pytest.raises(DisconnectedGraphError, match="requires a connected graph$"):
                intervals.pair_intervals(g, kind)
            with pytest.raises(DisconnectedGraphError, match="requires a connected graph$"):
                interval(g, 0, 4, kind)
        with pytest.raises(DisconnectedGraphError, match="^weakly toll number requires"):
            wtn(g)
    assert len(sweeps) == 1
    assert list(g._derived.values()) == [False]  # its connectivity, and no table


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


def test_pair_closure_step_is_the_table_entry():
    # every interval holds its two ends, so the subset searches read the
    # closure step of a pair as its table entry
    graphs = [g for k in range(2, 6) for g in connected_graphs(k)]
    # sparse: the monophonic body takes seconds on a dense 30-vertex graph
    for g in graphs + [random_connected_graph(30, 0.08, 2500)]:
        full = (1 << g.n) - 1
        for kind in IntervalKind:
            table = intervals.pair_intervals(g, kind)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert closure_mask(table, 1 << u | 1 << v, full) == table[u, v], (kind, g.edges(), u, v)


def test_spanning_targets_match_the_filled_table():
    # a weakly toll entry is V exactly when each end lies in a component of
    # G - N[other end] whose boundary is all of that end's neighbourhood;
    # K2's one pair is adjacent, and its entry {u, v} is V
    graphs = [g for k in range(2, 7) for g in connected_graphs(k)]
    graphs += seeded_random_graphs(40, sizes=(8, 12, 20, 30), base_seed=2700)
    factors = seeded_random_graphs(6, sizes=(4, 5, 6), base_seed=2750)
    graphs += [build(g, h).graph for build in (lexicographic, corona, strong, cartesian)
               for g, h in zip(factors, factors[1:])]
    spanning = 0
    for g in graphs:
        full = (1 << g.n) - 1
        table = intervals.pair_intervals(g, IntervalKind.WEAKLY_TOLL)
        targets = [table.targets(u) for u in range(g.n)]
        for (u, v), mask in table.filled().items():
            assert (mask == full) == bool(targets[u] >> v & targets[v] >> u & 1), (g.edges(), u, v)
            spanning += mask == full
    assert spanning > 1000  # both outcomes are exercised, not only misses


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
