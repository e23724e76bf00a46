"""Convex-set predicates, hull fixpoints, and exact interval numbers.

The exact searches enumerate candidate sets by increasing cardinality with
pairwise intervals precomputed once per graph, so the minimum and its
lexicographically least witness come out deterministically.  On the graph
products this package targets, the searches stop at three-element sets, so
exhaustive search stays cheap exactly where it is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, VertexSet, require_non_complete, require_non_trivial, require_subset
from .intervals import IntervalKind, closure_mask, pair_intervals, weakly_toll_interval


@dataclass(frozen=True)
class IntervalReport:
    """One vertex pair's interval and what its closed neighbourhoods miss.

    ``outside`` is everything the interval fails to reach; ``missed_near_u``
    and ``missed_near_v`` are the parts of N[u] and N[v] it fails to reach.
    At a maximum-size interval between non-adjacent endpoints the outside
    splits exactly into those two disjoint neighbourhood parts.
    """

    u: int
    v: int
    interval: VertexSet
    outside: VertexSet
    missed_near_u: VertexSet
    missed_near_v: VertexSet
    is_maximum: bool


def is_convex(graph: Graph, subset: VertexSet, kind: IntervalKind) -> bool:
    """Whether every pairwise interval of the subset stays inside it."""
    require_subset(graph, subset)
    table = pair_intervals(graph, kind, "convexity test")
    members = list(subset)
    outside = ~subset.mask
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if table[u, v] & outside:
                return False
    return True


def _hull_mask(pair, seed: int) -> int:
    """Closure fixpoint of the ``seed`` bitmask over a pair table or its
    filled dict."""
    current = seed
    while True:
        grown = closure_mask(pair, current)
        if grown == current:
            return current
        current = grown


def hull(graph: Graph, subset: VertexSet, kind: IntervalKind = IntervalKind.WEAKLY_TOLL) -> VertexSet:
    """Least interval-closed superset: iterate the closure to its fixpoint."""
    if not subset:
        raise ValueError("hull needs a nonempty seed set")
    require_subset(graph, subset)
    return VertexSet(graph.n, _hull_mask(pair_intervals(graph, kind), subset.mask))


def least_covering_set(n: int, pair: dict[tuple[int, int], int]) -> tuple[int, VertexSet]:
    """Least k with a k-set whose pairwise intervals cover all n vertices,
    and the lexicographically least such set; ``pair[u, v]`` (u < v) holds
    the interval masks."""
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            mask = 0
            for i, u in enumerate(combo):
                mask |= 1 << u
                for v in combo[i + 1 :]:
                    mask |= pair[u, v]
            if mask == full:
                return k, VertexSet.from_iterable(n, combo)
    raise AssertionError("the full vertex set always covers itself")


def least_hull_set(n: int, pair: dict[tuple[int, int], int]) -> tuple[int, VertexSet]:
    """Least k with a k-set whose interval closure fixpoint is all n
    vertices, and the lexicographically least such set."""
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            seed = 0
            for u in combo:
                seed |= 1 << u
            if _hull_mask(pair, seed) == full:
                return k, VertexSet.from_iterable(n, combo)
    raise AssertionError("the full vertex set always covers itself")


def wtn(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll number with the lexicographically least witness."""
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "weakly toll number")
    require_non_trivial(graph, "weakly toll number")
    return least_covering_set(graph.n, table.filled())


def wth(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll hull number with the lexicographically least witness."""
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "weakly toll hull number")
    require_non_trivial(graph, "weakly toll hull number")
    return least_hull_set(graph.n, table.filled())


def _report(graph: Graph, u: int, v: int, inside: VertexSet, is_maximum: bool) -> IntervalReport:
    outside = inside.complement()
    return IntervalReport(
        u=u,
        v=v,
        interval=inside,
        outside=outside,
        missed_near_u=graph.closed_neighborhood(u) & outside,
        missed_near_v=graph.closed_neighborhood(v) & outside,
        is_maximum=is_maximum,
    )


def interval_report(graph: Graph, u: int, v: int, is_maximum: bool = False) -> IntervalReport:
    return _report(graph, u, v, weakly_toll_interval(graph, u, v), is_maximum)


def maximum_interval_pairs(graph: Graph) -> list[tuple[int, int, IntervalReport]]:
    """All pairs whose weakly toll interval has maximum cardinality.

    On a connected non-complete graph some non-adjacent pair reaches at
    least three vertices while adjacent pairs reach exactly two, so every
    maximum pair is non-adjacent; this is asserted rather than assumed.
    """
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "maximum interval search")
    require_non_complete(graph, "maximum interval search")
    masks = table.filled()
    best = max(mask.bit_count() for mask in masks.values())
    out = []
    for (u, v), mask in sorted(masks.items()):
        if mask.bit_count() == best:
            assert not graph.adjacent(u, v), "maximum interval at an adjacent pair"
            out.append((u, v, _report(graph, u, v, VertexSet(graph.n, mask), True)))
    return out


def check_max_interval_decomposition(graph: Graph) -> bool:
    """At every maximum pair, the outside is exactly the disjoint union of
    the missed parts of the two closed neighbourhoods."""
    for _, _, report in maximum_interval_pairs(graph):
        if report.outside != report.missed_near_u | report.missed_near_v:
            return False
        if not report.missed_near_u.isdisjoint(report.missed_near_v):
            return False
    return True


def check_wtn_exceeds_two_criterion(graph: Graph) -> bool:
    """wtn(G) > 2 holds exactly when every maximum pair misses something
    next to one of its endpoints."""
    value, _ = wtn(graph)
    all_miss = all(
        bool(report.missed_near_u | report.missed_near_v)
        for _, _, report in maximum_interval_pairs(graph)
    )
    return (value > 2) == all_miss
