"""Closed-form predictions for product intervals and interval numbers.

Each operation evaluates one product-graph rule: intervals inside the
lexicographic and corona products expressed through factor-level intervals,
the two/three dichotomies for the interval number, the hull-number value 2,
and the Cartesian/strong corollaries.  The predictions use the factor-level
engines as sub-computations, while the verification harness compares them
against the product-level engine, so nothing is checked against itself.

The interval rules build no product: they place factor masks at the
vertex numbering that :mod:`wtoll.products` owns and documents.  With
m = |V(H)|, lexicographic layer a starts at a·m; corona base vertex i is i,
and copy i starts at |V(G)| + i·m.

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


def _factor_obstacle(g: Graph, h: Graph, g_vertices=(), h_vertices=()) -> str | None:
    """Range-check the given coordinates in each factor, then say why (g, h)
    fails the standing hypotheses, or None if admissible."""
    for graph, vertices in ((g, g_vertices), (h, h_vertices)):
        for v in vertices:
            graph._check_vertex(v)
    for name, graph in (("first factor", g), ("second factor", h)):
        if not graph.is_connected():
            return f"{name} is disconnected"
        if graph.is_complete():
            return f"{name} is complete"
    return None


def _interval(rule: str, n: int, mask: int) -> Prediction:
    return Prediction("interval", rule, True, vertex_set=VertexSet(n, mask))


def _one_copy_interval(rule, g, h, gv, h1, h2, adjacent_reason, n, start) -> Prediction:
    """Interval between two vertices of the copy of H at ``gv`` (a lex layer
    or a corona copy) that starts at vertex ``start`` of the n-vertex
    product: everything except the copy's vertices outside the factor
    interval that see exactly one endpoint."""
    obstacle = _factor_obstacle(g, h, (gv,), (h1, h2))
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if h1 == h2:
        return Prediction.not_applicable("interval", rule, "endpoints coincide")
    if h.adjacent(h1, h2):
        return Prediction.not_applicable("interval", rule, adjacent_reason)
    near = h.adjacency_masks()
    removed = (near[h1] ^ near[h2]) & ~weakly_toll_interval(h, h1, h2).mask
    return _interval(rule, n, (1 << n) - 1 & ~(removed << start))


# -- lexicographic product ----------------------------------------------


def lex_interval_same_layer(g: Graph, h: Graph, gv: int, h1: int, h2: int) -> Prediction:
    """Interval between (gv, h1) and (gv, h2): everything except the layer
    vertices outside the factor interval that see exactly one endpoint."""
    return _one_copy_interval(
        "lex-same-layer-interval", g, h, gv, h1, h2, "endpoints adjacent in second factor",
        g.n * h.n, gv * h.n,
    )


def lex_interval_cross_layer(
    g: Graph, h: Graph, g1: int, h1: int, g2: int, h2: int
) -> Prediction:
    """Interval between (g1, h1) and (g2, h2) across non-adjacent layers:
    the factor interval times V(H), minus the two endpoint layer
    neighbourhoods."""
    rule = "lex-cross-layer-interval"
    obstacle = _factor_obstacle(g, h, (g1, g2), (h1, h2))
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if g1 == g2 or g.adjacent(g1, g2):
        return Prediction.not_applicable("interval", rule, "first coordinates not non-adjacent")
    if h1 == h2 or h.adjacent(h1, h2):
        return Prediction.not_applicable("interval", rule, "second coordinates not non-adjacent")
    m, near = h.n, h.adjacency_masks()
    mask = sum((1 << m) - 1 << a * m for a in weakly_toll_interval(g, g1, g2))
    return _interval(rule, g.n * m, mask & ~(near[h1] << g1 * m | near[h2] << g2 * m))


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


def _corona_interior(g: Graph, h: Graph, base: VertexSet, i: int, j: int) -> int:
    """The vertices of ``base`` but i and j, each with its full copy of H."""
    full, mask = (1 << h.n) - 1, 0
    for x in base:
        if x != i and x != j:
            mask |= 1 << x | full << g.n + x * h.n
    return mask


def corona_interval_same_copy(g: Graph, h: Graph, i: int, h1: int, h2: int) -> Prediction:
    """Interval between two non-adjacent vertices of one attached copy."""
    return _one_copy_interval(
        "corona-same-copy-interval", g, h, i, h1, h2, "endpoints adjacent in the copy",
        g.n * (1 + h.n), g.n + i * h.n,
    )


def corona_interval_cross_copies(g: Graph, h: Graph, i: int, k: int, j: int, l: int) -> Prediction:
    """Interval between vertices of two different copies: everything except
    the copy-internal neighbourhoods of the endpoints."""
    rule = "corona-cross-copy-interval"
    obstacle = _factor_obstacle(g, h, (i, j), (k, l))
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if i == j:
        return Prediction.not_applicable("interval", rule, "endpoints share a copy")
    n, near = g.n * (1 + h.n), h.adjacency_masks()
    removed = near[k] << g.n + i * h.n | near[l] << g.n + j * h.n
    return _interval(rule, n, (1 << n) - 1 & ~removed)


def corona_interval_base_pair(g: Graph, h: Graph, i: int, j: int) -> Prediction:
    """Interval between two base vertices: the factor interval plus the full
    copies hanging off its interior vertices."""
    rule = "corona-base-pair-interval"
    obstacle = _factor_obstacle(g, h, (i, j))
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    if i == j:
        return Prediction.not_applicable("interval", rule, "endpoints coincide")
    mask = 1 << i | 1 << j | _corona_interior(g, h, weakly_toll_interval(g, i, j), i, j)
    return _interval(rule, g.n * (1 + h.n), mask)


def corona_interval_mixed(g: Graph, h: Graph, i: int, j: int, k: int) -> Prediction:
    """Interval between base vertex i and vertex k of copy j.

    For i == j the two are adjacent.  Otherwise the reachable set is the
    endpoints, the non-neighbours of k inside copy j, and the full copies
    over the interior of the one-sided walk interval from i to j in the
    base factor.
    """
    rule = "corona-mixed-pair-interval"
    obstacle = _factor_obstacle(g, h, (i, j), (k,))
    if obstacle:
        return Prediction.not_applicable("interval", rule, obstacle)
    n, start = g.n * (1 + h.n), g.n + j * h.n
    if i == j:
        return _interval(rule, n, 1 << i | 1 << start + k)
    interior = _corona_interior(g, h, semi_weakly_toll_interval(g, i, j), i, j)
    in_copy = (1 << h.n) - 1 & ~h.adjacency_masks()[k]
    return _interval(rule, n, 1 << i | 1 << j | in_copy << start | interior)


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
