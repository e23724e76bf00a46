"""Closed-form predictions for product intervals and interval numbers.

Each operation evaluates one product-graph rule: intervals inside the
lexicographic and corona products expressed through factor-level intervals,
the two/three dichotomies for the interval number, the hull-number value 2,
and the Cartesian/strong corollaries.  The predictions use the factor-level
engines as sub-computations, while the verification harness compares them
against the product-level engine, so nothing is checked against itself.

A prediction whose hypotheses fail (factor complete, endpoints adjacent,
and so on) comes back with ``applicable=False`` and a reason instead of a
guessed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .convexity import wtn
from .graphs import Graph, VertexSet
from .intervals import semi_weakly_toll_interval, weakly_toll_interval
from .products import corona, lexicographic


@dataclass(frozen=True)
class Prediction:
    """Outcome of one closed-form rule on one instance.

    ``target`` says what is being predicted ("interval", "wtn", "wth" or
    "wtn-upper-bound"); ``rule`` names the rule that produced it.  Exactly
    one of ``vertex_set`` / ``value`` is set when applicable.
    """

    target: str
    rule: str
    applicable: bool
    reason: str = ""
    vertex_set: VertexSet | None = None
    value: int | None = None

    @classmethod
    def not_applicable(cls, target: str, rule: str, reason: str) -> "Prediction":
        return cls(target=target, rule=rule, applicable=False, reason=reason)


def _factor_obstacle(g: Graph, h: Graph) -> str | None:
    """Why (g, h) fails the standing hypotheses, or None if admissible."""
    for name, graph in (("first factor", g), ("second factor", h)):
        if not graph.is_connected():
            return f"{name} is disconnected"
        if graph.is_complete():
            return f"{name} is complete"
    return None


def _one_copy_interval(rule, g, h, gv, h1, h2, adjacent_reason, build, index) -> Prediction:
    """Interval between two vertices of the copy of H at ``gv`` (a lex layer
    or a corona copy): everything except the copy's vertices outside the
    factor interval that see exactly one endpoint.  ``index(product, x)``
    places vertex x of that copy in the product."""
    g._check_vertex(gv)
    h._check_vertex(h1)
    h._check_vertex(h2)
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if h1 == h2:
        return Prediction.not_applicable("interval", rule, "endpoints coincide")
    if h.adjacent(h1, h2):
        return Prediction.not_applicable("interval", rule, adjacent_reason)
    product = build(g, h)
    inner = weakly_toll_interval(h, h1, h2)
    removed = 0
    for x in range(h.n):
        if x not in inner and h.adjacent(x, h1) != h.adjacent(x, h2):
            removed |= 1 << index(product, x)
    mask = (1 << product.graph.n) - 1 & ~removed
    return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))


# -- lexicographic product ----------------------------------------------


def lex_interval_same_layer(g: Graph, h: Graph, gv: int, h1: int, h2: int) -> Prediction:
    """Interval between (gv, h1) and (gv, h2): everything except the layer
    vertices outside the factor interval that see exactly one endpoint."""
    return _one_copy_interval(
        "lex-same-layer-interval", g, h, gv, h1, h2, "endpoints adjacent in second factor",
        lexicographic, lambda product, x: product.pair_index(gv, x),
    )


def lex_interval_cross_layer(
    g: Graph, h: Graph, g1: int, h1: int, g2: int, h2: int
) -> Prediction:
    """Interval between (g1, h1) and (g2, h2) across non-adjacent layers:
    the factor interval times V(H), minus the two endpoint layer
    neighbourhoods."""
    rule = "lex-cross-layer-interval"
    g._check_vertex(g1)
    g._check_vertex(g2)
    h._check_vertex(h1)
    h._check_vertex(h2)
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if g1 == g2 or g.adjacent(g1, g2):
        return Prediction.not_applicable("interval", rule, "first coordinates not non-adjacent")
    if h1 == h2 or h.adjacent(h1, h2):
        return Prediction.not_applicable("interval", rule, "second coordinates not non-adjacent")
    product = lexicographic(g, h)
    base = weakly_toll_interval(g, g1, g2)
    mask = 0
    for gv in base:
        for hv in range(h.n):
            mask |= 1 << product.pair_index(gv, hv)
    for y in h.neighbors(h1):
        mask &= ~(1 << product.pair_index(g1, y))
    for y in h.neighbors(h2):
        mask &= ~(1 << product.pair_index(g2, y))
    return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))


def _wtn_dichotomy(rule: str, g: Graph, h: Graph) -> Prediction:
    """2 when the second factor has interval number 2, and 3 otherwise."""
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("wtn", rule, obstacle)
    return Prediction("wtn", rule, True, value=2 if wtn(h)[0] == 2 else 3)


def _hull_number_two(rule: str, g: Graph, h: Graph) -> Prediction:
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("wth", rule, obstacle)
    return Prediction("wth", rule, True, value=2)


def lex_wtn(g: Graph, h: Graph) -> Prediction:
    """Interval number of the lexicographic product: 2 when the second
    factor has interval number 2, and 3 otherwise."""
    return _wtn_dichotomy("lex-wtn-dichotomy", g, h)


def lex_wth(g: Graph, h: Graph) -> Prediction:
    """Hull number of the lexicographic product is always 2."""
    return _hull_number_two("lex-hull-number", g, h)


# -- corona product -------------------------------------------------------


def corona_interval_same_copy(g: Graph, h: Graph, i: int, h1: int, h2: int) -> Prediction:
    """Interval between two non-adjacent vertices of one attached copy."""
    return _one_copy_interval(
        "corona-same-copy-interval", g, h, i, h1, h2, "endpoints adjacent in the copy",
        corona, lambda product, x: product.copy_index(i, x),
    )


def corona_interval_cross_copies(g: Graph, h: Graph, i: int, k: int, j: int, l: int) -> Prediction:
    """Interval between vertices of two different copies: everything except
    the copy-internal neighbourhoods of the endpoints."""
    rule = "corona-cross-copy-interval"
    g._check_vertex(i)
    g._check_vertex(j)
    h._check_vertex(k)
    h._check_vertex(l)
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if i == j:
        return Prediction.not_applicable("interval", rule, "endpoints share a copy")
    product = corona(g, h)
    removed = 0
    for y in h.neighbors(k):
        removed |= 1 << product.copy_index(i, y)
    for y in h.neighbors(l):
        removed |= 1 << product.copy_index(j, y)
    mask = (1 << product.graph.n) - 1 & ~removed
    return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))


def corona_interval_base_pair(g: Graph, h: Graph, i: int, j: int) -> Prediction:
    """Interval between two base vertices: the factor interval plus the full
    copies hanging off its interior vertices."""
    rule = "corona-base-pair-interval"
    g._check_vertex(i)
    g._check_vertex(j)
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if i == j:
        return Prediction.not_applicable("interval", rule, "endpoints coincide")
    product = corona(g, h)
    base = weakly_toll_interval(g, i, j)
    mask = 0
    for x in base:
        mask |= 1 << product.base_index(x)
        if x != i and x != j:
            mask |= product.copy_set(x).mask
    return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))


def corona_interval_mixed(g: Graph, h: Graph, i: int, j: int, k: int) -> Prediction:
    """Interval between base vertex i and vertex k of copy j.

    For i == j the two are adjacent.  Otherwise the reachable set is the
    endpoints, the non-neighbours of k inside copy j, and the full copies
    over the interior of the one-sided walk interval from i to j in the
    base factor.
    """
    rule = "corona-mixed-pair-interval"
    g._check_vertex(i)
    g._check_vertex(j)
    h._check_vertex(k)
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    product = corona(g, h)
    if i == j:
        mask = 1 << product.base_index(i) | 1 << product.copy_index(i, k)
        return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))
    one_sided = semi_weakly_toll_interval(g, i, j)
    mask = 1 << product.base_index(i) | 1 << product.base_index(j)
    mask |= product.copy_set(j).mask
    for y in h.neighbors(k):
        mask &= ~(1 << product.copy_index(j, y))
    for x in one_sided:
        if x != i and x != j:
            mask |= 1 << product.base_index(x) | product.copy_set(x).mask
    return Prediction("interval", rule, True, vertex_set=VertexSet(product.graph.n, mask))


def corona_wtn(g: Graph, h: Graph) -> Prediction:
    """Interval number of the corona product: the same 2/3 dichotomy on the
    attached factor."""
    return _wtn_dichotomy("corona-wtn-dichotomy", g, h)


def corona_wth(g: Graph, h: Graph) -> Prediction:
    """Hull number of the corona product is always 2."""
    return _hull_number_two("corona-hull-number", g, h)


def generalized_corona_wtn(g: Graph, copies: Sequence[Graph]) -> Prediction:
    """Generalized corona: exact 2 when some non-complete attached graph has
    interval number 2, otherwise an upper bound of 3 when some attached
    graph is non-complete."""
    rule = "generalized-corona-wtn"
    if len(copies) != g.n:
        raise ValueError(f"need exactly {g.n} attached graphs, got {len(copies)}")
    if not g.is_connected():
        return Prediction.not_applicable("wtn", rule, "base graph is disconnected")
    if g.is_complete():
        return Prediction.not_applicable("wtn", rule, "base graph is complete")
    for idx, copy in enumerate(copies):
        if not copy.is_connected():
            return Prediction.not_applicable("wtn", rule, f"attached graph {idx} is disconnected")
    open_copies = [copy for copy in copies if not copy.is_complete()]
    if any(wtn(copy)[0] == 2 for copy in open_copies):
        return Prediction("wtn", rule, True, value=2)
    if open_copies:
        return Prediction("wtn-upper-bound", rule, True, value=3)
    return Prediction.not_applicable("wtn", rule, "every attached graph is complete")


# -- Cartesian and strong products -----------------------------------------


def cartesian_wtn(g: Graph, h: Graph) -> Prediction:
    """Interval number of the Cartesian product of connected non-trivial
    factors is always 2."""
    rule = "cartesian-wtn"
    for name, graph in (("first factor", g), ("second factor", h)):
        if not graph.is_connected():
            return Prediction.not_applicable("wtn", rule, f"{name} is disconnected")
        if graph.n < 2:
            return Prediction.not_applicable("wtn", rule, f"{name} is trivial")
    return Prediction("wtn", rule, True, value=2)


def strong_wtn_bound(g: Graph, h: Graph) -> Prediction:
    """Interval number of the strong product of connected non-complete
    factors is at most 3."""
    rule = "strong-wtn-bound"
    obstacle = _factor_obstacle(g, h)
    if obstacle:
        return Prediction.not_applicable("wtn-upper-bound", rule, obstacle)
    return Prediction("wtn-upper-bound", rule, True, value=3)
