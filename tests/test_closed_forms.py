import itertools
from functools import partial

import pytest

from conftest import seeded_random_graphs
from wtoll.closed_forms import (
    cartesian_wtn,
    corona_interval_base_pair,
    corona_interval_cross_copies,
    corona_interval_mixed,
    corona_interval_same_copy,
    corona_wth,
    corona_wtn,
    generalized_corona_wtn,
    lex_interval_cross_layer,
    lex_interval_same_layer,
    lex_wth,
    lex_wtn,
    strong_wtn_bound,
)
from wtoll.convexity import wtn
from wtoll.graphs import complete_graph, path_graph, two_clique_bridge
from wtoll.intervals import IntervalKind, weakly_toll_interval
from wtoll.oracle import oracle_interval
from wtoll import products
from wtoll.products import corona, lexicographic
from wtoll.verify import connected_graphs

P3 = path_graph(3)
BRIDGE = two_clique_bridge(3)


def test_lex_same_layer_full_when_factor_pair_covers():
    pred = lex_interval_same_layer(P3, P3, 1, 0, 2)
    assert pred.applicable
    assert len(pred.vertex_set) == 9  # no vertex is excluded


def test_lex_same_layer_excludes_one_sided_clique_vertices():
    # inside the bridge graph, the interval of the two off-hinge clique
    # vertices misses exactly the third vertex of each clique
    assert sorted(weakly_toll_interval(BRIDGE, 1, 4)) == [0, 1, 3, 4, 6]
    pred = lex_interval_same_layer(P3, BRIDGE, 0, 1, 4)
    assert pred.applicable
    product = lexicographic(P3, BRIDGE)
    excluded = pred.vertex_set.complement()
    assert sorted(excluded) == sorted(
        [product.index(0, 2), product.index(0, 5)]
    )
    engine = weakly_toll_interval(product.graph, product.index(0, 1), product.index(0, 4))
    assert pred.vertex_set == engine


def test_lex_same_layer_hypotheses():
    assert not lex_interval_same_layer(P3, P3, 0, 0, 1).applicable  # adjacent
    assert not lex_interval_same_layer(P3, P3, 0, 1, 1).applicable  # equal
    assert not lex_interval_same_layer(complete_graph(3), P3, 0, 0, 2).applicable
    assert not lex_interval_same_layer(P3, complete_graph(3), 0, 0, 1).applicable


def test_lex_cross_layer_against_engine_and_oracle():
    pred = lex_interval_cross_layer(P3, P3, 0, 0, 2, 2)
    assert pred.applicable
    product = lexicographic(P3, P3)
    u = product.index(0, 0)
    v = product.index(2, 2)
    engine = weakly_toll_interval(product.graph, u, v)
    walks = oracle_interval(product.graph, u, v, IntervalKind.WEAKLY_TOLL)
    assert pred.vertex_set == engine == walks
    # the factor interval is all of P3, so only the two layer neighbourhoods drop out
    assert sorted(pred.vertex_set.complement()) == sorted(
        [product.index(0, 1), product.index(2, 1)]
    )


def test_lex_cross_layer_hypotheses():
    assert not lex_interval_cross_layer(P3, P3, 0, 0, 1, 2).applicable  # adjacent g's
    assert not lex_interval_cross_layer(P3, P3, 0, 0, 2, 1).applicable  # adjacent h's


def test_lex_number_predictions():
    pred = lex_wtn(P3, P3)
    assert pred.applicable and pred.value == 2
    pred = lex_wtn(P3, BRIDGE)
    assert pred.applicable and pred.value == 3
    assert wtn(BRIDGE)[0] == 4  # the dichotomy puts this factor on the 3 branch
    assert lex_wth(P3, P3).value == 2
    assert not lex_wtn(complete_graph(3), P3).applicable


def test_corona_same_copy_against_engine():
    pred = corona_interval_same_copy(P3, BRIDGE, 1, 1, 4)
    assert pred.applicable
    product = corona(P3, BRIDGE)
    excluded = pred.vertex_set.complement()
    assert sorted(excluded) == sorted(
        [product.index("copy", 1, 2), product.index("copy", 1, 5)]
    )
    engine = weakly_toll_interval(
        product.graph, product.index("copy", 1, 1), product.index("copy", 1, 4)
    )
    assert pred.vertex_set == engine


def test_corona_same_copy_covers_everything_for_leaf_pair():
    pred = corona_interval_same_copy(P3, P3, 0, 0, 2)
    assert pred.applicable and len(pred.vertex_set) == 12


def test_corona_cross_copies_against_engine():
    pred = corona_interval_cross_copies(P3, P3, 0, 0, 1, 0)
    assert pred.applicable
    product = corona(P3, P3)
    engine = weakly_toll_interval(
        product.graph, product.index("copy", 0, 0), product.index("copy", 1, 0)
    )
    assert pred.vertex_set == engine
    assert sorted(pred.vertex_set.complement()) == sorted(
        [product.index("copy", 0, 1), product.index("copy", 1, 1)]
    )
    assert not corona_interval_cross_copies(P3, P3, 1, 0, 1, 2).applicable


def test_corona_base_pair_against_engine():
    product = corona(P3, P3)
    pred = corona_interval_base_pair(P3, P3, 0, 2)
    assert pred.applicable
    copy_1 = {x for x, label in enumerate(product.labels) if label[:2] == ("copy", 1)}
    expected = {product.index("base", i) for i in range(3)} | copy_1
    assert set(pred.vertex_set) == expected
    engine = weakly_toll_interval(
        product.graph, product.index("base", 0), product.index("base", 2)
    )
    assert pred.vertex_set == engine
    # adjacent base vertices: only the walk along the edge qualifies
    adjacent = corona_interval_base_pair(P3, P3, 0, 1)
    assert sorted(adjacent.vertex_set) == sorted(
        [product.index("base", 0), product.index("base", 1)]
    )
    assert adjacent.vertex_set == weakly_toll_interval(
        product.graph, product.index("base", 0), product.index("base", 1)
    )


def test_corona_mixed_same_base_is_the_edge():
    product = corona(P3, P3)
    pred = corona_interval_mixed(P3, P3, 1, 1, 2)
    assert sorted(pred.vertex_set) == sorted(
        [product.index("base", 1), product.index("copy", 1, 2)]
    )


def test_corona_mixed_distinct_bases_against_engine_and_oracle():
    product = corona(P3, P3)
    pred = corona_interval_mixed(P3, P3, 0, 2, 1)
    assert pred.applicable
    u = product.index("base", 0)
    v = product.index("copy", 2, 1)
    engine = weakly_toll_interval(product.graph, u, v)
    walks = oracle_interval(product.graph, u, v, IntervalKind.WEAKLY_TOLL)
    assert pred.vertex_set == engine == walks
    expected = {product.index("base", i) for i in range(3)}
    expected |= {product.index("copy", 2, 1)}  # the target keeps only itself in its copy
    expected |= {x for x, label in enumerate(product.labels) if label[:2] == ("copy", 1)}
    assert set(pred.vertex_set) == expected


def test_corona_mixed_adjacent_bases_against_engine():
    # the one-sided interval semantics is what makes the adjacent case work
    product = corona(P3, P3)
    for (i, j, k) in [(0, 1, 0), (1, 0, 2), (1, 2, 1), (2, 1, 0)]:
        pred = corona_interval_mixed(P3, P3, i, j, k)
        engine = weakly_toll_interval(
            product.graph, product.index("base", i), product.index("copy", j, k)
        )
        assert pred.vertex_set == engine, (i, j, k)


def test_corona_number_predictions():
    assert corona_wtn(P3, P3).value == 2
    assert corona_wtn(P3, BRIDGE).value == 3
    assert corona_wth(P3, BRIDGE).value == 2
    assert not corona_wtn(P3, complete_graph(2)).applicable


def test_generalized_corona_predictions():
    pred = generalized_corona_wtn(P3, [complete_graph(2), P3, complete_graph(1)])
    assert pred.applicable and pred.target == "wtn" and pred.value == 2
    pred = generalized_corona_wtn(P3, [complete_graph(2), BRIDGE, complete_graph(3)])
    assert pred.applicable and pred.target == "wtn-upper-bound" and pred.value == 3
    pred = generalized_corona_wtn(P3, [complete_graph(2)] * 3)
    assert not pred.applicable
    with pytest.raises(ValueError):
        generalized_corona_wtn(P3, [P3])


def test_cartesian_and_strong_predictions():
    assert cartesian_wtn(complete_graph(2), complete_graph(2)).value == 2
    assert not cartesian_wtn(complete_graph(1), P3).applicable
    assert strong_wtn_bound(P3, P3).value == 3
    assert strong_wtn_bound(P3, P3).target == "wtn-upper-bound"
    assert not strong_wtn_bound(complete_graph(2), P3).applicable


def test_predictions_are_pure():
    for g in seeded_random_graphs(4, sizes=(3, 4), base_seed=4100):
        if g.is_complete():
            continue
        first = lex_interval_same_layer(g, BRIDGE, 0, 1, 4)
        second = lex_interval_same_layer(g, BRIDGE, 0, 1, 4)
        assert first == second


def _interval_cases(g, h):
    """Every coordinate tuple of the six interval rules on (g, h), each with
    the product graph and the vertex pair it names there."""
    lex, cor = lexicographic(g, h), corona(g, h)
    pair, base, copy = lex.index, partial(cor.index, "base"), partial(cor.index, "copy")
    G, H = range(g.n), range(h.n)
    for gv, h1, h2 in itertools.product(G, H, H):
        yield lex_interval_same_layer, (gv, h1, h2), lex, pair(gv, h1), pair(gv, h2)
        yield corona_interval_same_copy, (gv, h1, h2), cor, copy(gv, h1), copy(gv, h2)
    for g1, h1, g2, h2 in itertools.product(G, H, G, H):
        yield lex_interval_cross_layer, (g1, h1, g2, h2), lex, pair(g1, h1), pair(g2, h2)
        yield corona_interval_cross_copies, (g1, h1, g2, h2), cor, copy(g1, h1), copy(g2, h2)
    for i, j in itertools.product(G, G):
        yield corona_interval_base_pair, (i, j), cor, base(i), base(j)
        for k in H:
            yield corona_interval_mixed, (i, j, k), cor, base(i), copy(j, k)


def test_interval_rules_match_engine_without_building_products(monkeypatch):
    # every connected non-complete graph on 3 and 4 vertices, as either factor
    factors = [g for n in (3, 4) for g in connected_graphs(n) if not g.is_complete()]
    assert len(factors) == 6
    cases = [case for g in factors for h in factors for case in _interval_cases(g, h)]

    def refuse(*args):
        raise AssertionError("a closed-form interval rule built a product")

    monkeypatch.setattr(products, "_pair_product", refuse)
    monkeypatch.setattr(products, "generalized_corona", refuse)
    checked = 0
    for rule, coordinates, product, a, b in cases:
        g, h = product.factors
        pred = rule(g, h, *coordinates)
        if pred.applicable:
            engine = weakly_toll_interval(product.graph, a, b)
            assert pred.vertex_set == engine, (rule.__name__, coordinates)
            checked += 1
    assert checked == 9997
