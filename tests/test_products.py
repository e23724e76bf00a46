from typing import Sequence

import pytest

from conftest import seeded_random_graphs
from wtoll.graphs import Graph, complete_graph, cycle_graph, path_graph
from wtoll.products import (
    ProductGraph,
    ProductKind,
    build,
    cartesian,
    corona,
    generalized_corona,
    lexicographic,
    strong,
    to_dot,
)
from wtoll.verify import connected_graphs


def test_lexicographic_complete_factors():
    p = lexicographic(complete_graph(2), complete_graph(2))
    assert p.graph == complete_graph(4)


def test_lexicographic_counts():
    # |E| = |E(G)|*|V(H)|^2 + |V(G)|*|E(H)| by the edge rule
    p = lexicographic(path_graph(2), path_graph(3))
    assert p.graph.n == 6
    assert p.graph.edge_count == 1 * 9 + 2 * 2


def test_cartesian_square_is_four_cycle():
    p = cartesian(complete_graph(2), complete_graph(2))
    assert p.graph.n == 4 and p.graph.edge_count == 4
    assert all(p.graph.degree(v) == 2 for v in range(4))
    assert p.graph == cycle_graph(4) or sorted(len(c) for c in p.graph.connected_components()) == [4]


def test_cartesian_grid_counts():
    p = cartesian(path_graph(3), path_graph(3))
    assert p.graph.n == 9 and p.graph.edge_count == 12


def test_strong_product_counts():
    k4 = strong(complete_graph(2), complete_graph(2))
    assert k4.graph == complete_graph(4)
    cart = cartesian(path_graph(3), path_graph(3))
    st = strong(path_graph(3), path_graph(3))
    # strong = cartesian edges plus one diagonal pair per edge pair
    assert st.graph.edge_count == cart.graph.edge_count + 2 * 2 * 2
    cart_edges = set(cart.graph.edges())
    assert cart_edges <= set(st.graph.edges())


def test_corona_counts_and_degrees():
    p = corona(path_graph(3), path_graph(3))
    assert p.graph.n == 12
    assert p.graph.edge_count == 2 + 3 * (2 + 3)
    g = path_graph(3)
    for i in range(3):
        assert p.graph.degree(p.base_index(i)) == g.degree(i) + 3


def test_corona_cone():
    p = corona(complete_graph(1), path_graph(4))
    assert p.graph.n == 5
    assert p.graph.degree(p.base_index(0)) == 4


def test_generalized_corona():
    gc = generalized_corona(path_graph(2), [complete_graph(1), path_graph(3)])
    assert gc.kind is ProductKind.GENERALIZED_CORONA
    assert gc.graph.n == 2 + 1 + 3
    # copy vertices attach only to their own base vertex
    assert gc.graph.adjacent(gc.base_index(1), gc.copy_index(1, 0))
    assert not gc.graph.adjacent(gc.base_index(0), gc.copy_index(1, 0))
    with pytest.raises(ValueError):
        generalized_corona(path_graph(2), [path_graph(3)])


def test_generalized_corona_with_equal_copies_is_corona():
    h = path_graph(3)
    assert generalized_corona(path_graph(2), [h, h]).kind is ProductKind.CORONA


def test_layers_induce_factors():
    g, h = path_graph(3), Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for product in (lexicographic(g, h), cartesian(g, h), strong(g, h)):
        for gv in range(g.n):
            layer = sorted(product.second_factor_layer(gv))
            assert len(layer) == h.n
            sub, kept = product.graph.delete_vertices(
                product.second_factor_layer(gv).complement()
            )
            remap = {old: new for new, old in enumerate(kept)}
            expected = {
                tuple(sorted((remap[product.pair_index(gv, a)], remap[product.pair_index(gv, b)])))
                for a, b in h.edges()
            }
            assert set(sub.edges()) == expected
    for h_v in range(h.n):
        assert len(cartesian(g, h).first_factor_layer(h_v)) == g.n


def test_corona_copy_induces_factor():
    g, h = path_graph(3), path_graph(3)
    product = corona(g, h)
    for i in range(g.n):
        sub, kept = product.graph.delete_vertices(product.copy_set(i).complement())
        remap = {old: new for new, old in enumerate(kept)}
        expected = {
            tuple(sorted((remap[product.copy_index(i, a)], remap[product.copy_index(i, b)])))
            for a, b in h.edges()
        }
        assert set(sub.edges()) == expected


def test_products_of_connected_factors_are_connected():
    factors = seeded_random_graphs(6, sizes=(3, 4, 5), base_seed=2500)
    for i in range(0, len(factors) - 1, 2):
        g, h = factors[i], factors[i + 1]
        for make in (lexicographic, cartesian, strong, corona):
            assert make(g, h).graph.is_connected()
        assert generalized_corona(g, [h] * g.n).graph.is_connected()


def test_count_invariants_on_random_factors():
    factors = seeded_random_graphs(8, sizes=(3, 4, 5), base_seed=2600)
    for i in range(0, len(factors) - 1, 2):
        g, h = factors[i], factors[i + 1]
        eg, eh, ng, nh = g.edge_count, h.edge_count, g.n, h.n
        assert lexicographic(g, h).graph.edge_count == eg * nh * nh + ng * eh
        assert cartesian(g, h).graph.edge_count == eg * nh + ng * eh
        assert strong(g, h).graph.edge_count == eg * nh + ng * eh + 2 * eg * eh
        assert corona(g, h).graph.edge_count == eg + ng * (eh + nh)
        assert corona(g, h).graph.n == ng * (1 + nh)


def test_projections_and_order():
    p = lexicographic(path_graph(3), path_graph(2))
    # row-major over (g, h)
    assert p.pair_index(1, 0) == 2
    assert p.project_first(3) == 1 and p.project_second(3) == 1
    with pytest.raises(ValueError):
        corona(path_graph(2), path_graph(2)).pair_index(0, 0)
    with pytest.raises(ValueError):
        p.base_index(0)
    # out-of-range coordinates are refused per factor, not looked up
    gc = generalized_corona(path_graph(2), [path_graph(2), path_graph(3)])
    assert gc.copy_index(1, 2) == 6
    for lookup in (
        lambda: p.pair_index(0, 9),
        lambda: p.pair_index(3, 0),
        lambda: p.pair_index(-1, 1),
        lambda: p.pair_index(1.5, 0),
        lambda: gc.base_index(2),
        lambda: gc.copy_index(2, 0),
        lambda: gc.copy_index(0, 2),
    ):
        with pytest.raises(ValueError, match="out of range"):
            lookup()


def test_dot_export_labels():
    text = to_dot(lexicographic(path_graph(2), path_graph(2)))
    assert 'label="(0,1)"' in text and "0 -- 2" in text
    text = to_dot(corona(path_graph(2), path_graph(2)))
    assert 'label="g_0"' in text and 'label="h_1^1"' in text
    assert to_dot(path_graph(2)).startswith("graph G {")
    # a bare product graph carries no labels: its DOT text shows vertex ids
    assert '  3 [label="3"];' in to_dot(corona(path_graph(2), path_graph(2)).graph)


def test_build_dispatch():
    assert build(ProductKind.LEXICOGRAPHIC, path_graph(2), path_graph(2)).graph.n == 4
    assert build("corona", path_graph(2), path_graph(2)).graph.n == 6
    gc = build("generalized-corona", path_graph(2), [path_graph(2), path_graph(3)])
    assert gc.graph.n == 7
    with pytest.raises(ValueError):
        build("generalized-corona", path_graph(2), path_graph(2))
    with pytest.raises(ValueError):
        build("corona", path_graph(2), [path_graph(2)])


# -- reference builders: the edge-rule constructions that the adjacency-mask
# builders replaced, kept word for word except that Graph no longer takes
# vertex names ---------------------------------------------------------------


def _reference_pair_product(g: Graph, h: Graph, kind: ProductKind, rule) -> ProductGraph:
    m = h.n
    labels = tuple((a, b) for a in range(g.n) for b in range(m))
    edges = []
    for x, (g1, h1) in enumerate(labels):
        for y in range(x + 1, len(labels)):
            g2, h2 = labels[y]
            if rule(g.adjacent(g1, g2), g1 == g2, h.adjacent(h1, h2), h1 == h2):
                edges.append((x, y))
    return ProductGraph(Graph.from_edge_list(len(labels), edges), kind, (g, h), labels)


_REFERENCE_RULES = {
    lexicographic: (ProductKind.LEXICOGRAPHIC, lambda ge, gs, he, hs: ge or (gs and he)),
    cartesian: (ProductKind.CARTESIAN, lambda ge, gs, he, hs: (ge and hs) or (gs and he)),
    strong: (
        ProductKind.STRONG,
        lambda ge, gs, he, hs: (ge and hs) or (gs and he) or (ge and he),
    ),
}


def _reference_generalized_corona(g: Graph, copies: Sequence[Graph]) -> ProductGraph:
    labels: list = [("base", i) for i in range(g.n)]
    for i, copy in enumerate(copies):
        labels.extend(("copy", i, h) for h in range(copy.n))
    index = {label: x for x, label in enumerate(labels)}
    edges = [(index[("base", a)], index[("base", b)]) for a, b in g.edges()]
    for i, copy in enumerate(copies):
        edges.extend(
            (index[("copy", i, a)], index[("copy", i, b)]) for a, b in copy.edges()
        )
        edges.extend((index[("base", i)], index[("copy", i, h)]) for h in range(copy.n))
    graph = Graph.from_edge_list(len(labels), edges)
    identical = all(copy is copies[0] or copy == copies[0] for copy in copies)
    if identical:
        return ProductGraph(graph, ProductKind.CORONA, (g, copies[0]), tuple(labels))
    return ProductGraph(graph, ProductKind.GENERALIZED_CORONA, (g, *copies), tuple(labels))


def _same_product(got: ProductGraph, want: ProductGraph) -> None:
    assert got.graph == want.graph
    assert got.labels == want.labels
    assert got.kind is want.kind
    assert got.factors == want.factors


def _factor_pairs():
    small = [g for n in range(1, 5) for g in connected_graphs(n)]
    yield from ((g, h) for g in small for h in small)
    seeded = seeded_random_graphs(60, sizes=(5, 6, 7, 8), base_seed=2700)
    yield from zip(seeded[::2], seeded[1::2])


def test_pair_products_match_edge_rule_reference():
    for g, h in _factor_pairs():
        for make, (kind, rule) in _REFERENCE_RULES.items():
            _same_product(make(g, h), _reference_pair_product(g, h, kind, rule))
        _same_product(corona(g, h), _reference_generalized_corona(g, [h] * g.n))


def test_generalized_corona_matches_edge_list_reference():
    pool = [complete_graph(1), complete_graph(2), path_graph(3), cycle_graph(4), path_graph(4)]
    pool += seeded_random_graphs(6, sizes=(5, 6), base_seed=2800)
    for n in range(1, 6):
        for g in (path_graph(n), complete_graph(n)):
            for shift in range(len(pool)):
                copies = [pool[(shift + 3 * i) % len(pool)] for i in range(n)]
                got = generalized_corona(g, copies)
                _same_product(got, _reference_generalized_corona(g, copies))
    lone = generalized_corona(path_graph(3), [complete_graph(1)] * 3)
    assert lone.kind is ProductKind.CORONA and lone.graph.edge_count == 2 + 3
