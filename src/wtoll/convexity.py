"""Convex-set predicates, hull fixpoints, and exact interval numbers.

The exact searches try candidate sets by increasing cardinality, so the
minimum and its lexicographically least witness come out deterministically.
They read the lazily filled weakly toll pair table, compute only what they
need, and test a candidate S once, on its closure step I[S]: ``wtn`` asks
whether I[S] is V, and ``wth`` whether the hull of I[S], which is that of S,
is V.  The three stages run in one of two ways, as the table keeps the
forced set F of stage 2 once a search has computed it.  With F unknown:

1. Every set of two vertices, stopping at the first success.  Every
   interval holds its ends, so I[{u, v}] is the table entry: ``wtn`` = 2
   stops at the first pair whose entry is V and ``wth`` at the first whose
   hull is, having computed only the pairs read.  Else all are computed.
2. The forced set F: a vertex in no interval between two other vertices is
   extreme, V minus it is convex, so it lies in every interval set and
   every hull set.  It is read off the filled table and stored on it.
3. Sets of k >= max(3, |F|) vertices, each F plus a combination of the
   other vertices.  Among sets of equal size the lexicographic order
   depends only on the least element of their symmetric difference, so
   fixing F keeps the lexicographically least witness.

With F known, as for ``wth`` after ``wtn`` on the same graph, stage 2 is
skipped and stage 1 is stage 3 at k = 2: it tries only the pairs that
contain F, so none when |F| >= 3.  Every spanning set contains F, so the
first spanning set among those containing F is the same witness.

A size k >= 3 that would try more than ``MAX_SEARCH_SUBSETS`` sets is
refused with :class:`InfeasibleSearchError` rather than left to run
for hours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, VertexSet, require_non_complete, require_non_trivial, require_subset
from .intervals import IntervalKind, PairIntervals, closure_mask, interval, pair_intervals

#: The most sets one size k of an exact search may try: a few seconds of
#: covering checks.  The largest count in the tests and the benchmark
#: inputs is C(42, 3) = 11480.
MAX_SEARCH_SUBSETS = 1_000_000


class InfeasibleSearchError(ValueError):
    """Raised when an exact search would try more than ``MAX_SEARCH_SUBSETS``
    sets of one size."""


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


def is_convex(graph: Graph, subset: VertexSet, kind: IntervalKind) -> bool:
    """Whether every pairwise interval of the subset stays inside it."""
    require_subset(graph, subset)
    table = pair_intervals(graph, kind, "convexity test")
    return closure_mask(table, subset.mask, (1 << graph.n) - 1) == subset.mask


def _hull_mask(table: PairIntervals, seed: int, full: int) -> int:
    """Closure fixpoint of the ``seed`` bitmask, stopping as soon as it is
    ``full``."""
    current = seed
    while current != full:
        grown = closure_mask(table, current, full)
        if grown == current:
            break
        current = grown
    return current


def hull(graph: Graph, subset: VertexSet, kind: IntervalKind = IntervalKind.WEAKLY_TOLL) -> VertexSet:
    """Least interval-closed superset: iterate the closure to its fixpoint."""
    if not subset:
        raise ValueError("hull needs a nonempty seed set")
    require_subset(graph, subset)
    full = (1 << graph.n) - 1
    return VertexSet(graph.n, _hull_mask(pair_intervals(graph, kind), subset.mask, full))


def _forced_mask(table: PairIntervals) -> int:
    """Vertices in no interval between two other vertices, from a filled
    table."""
    inner = 0
    for (u, v), mask in table.items():
        inner |= mask & ~(1 << u | 1 << v)
    return (1 << table.n) - 1 & ~inner


def _least_set(table: PairIntervals, spans: Callable[[int], bool]) -> tuple[int, VertexSet]:
    """Least k with a k-set S for which ``spans(I[S])`` holds, and the
    lexicographically least such S, in the stages of the module docstring;
    ``spans`` takes the closure step I[S] and must fail on that of every set
    that leaves out a forced vertex.  The table has n >= 2 vertices, so no
    single vertex spans: the closure and the hull of one vertex are that vertex."""
    n, forced, least, full = table.n, table.forced, 2, (1 << table.n) - 1
    if forced is None:
        for u in range(n):
            for v in range(u + 1, n):
                if spans(table[u, v]):
                    return 2, VertexSet(n, 1 << u | 1 << v)
        # racing threads store equal masks
        table.forced = forced = _forced_mask(table.filled())
        least = 3
    free = [x for x in range(n) if not forced >> x & 1]
    fixed = n - len(free)
    for k in range(max(least, fixed), n + 1):
        count = math.comb(len(free), k - fixed)
        # the pair stage is never refused, so no repeated search refuses
        # what its first run answered
        if k > 2 and count > MAX_SEARCH_SUBSETS:
            raise InfeasibleSearchError(
                f"exact search on {n} vertices with {fixed} forced would try {count} sets "
                f"of size {k}, more than {MAX_SEARCH_SUBSETS}"
            )
        for combo in itertools.combinations(free, k - fixed):
            seed = forced
            for x in combo:
                seed |= 1 << x
            if spans(closure_mask(table, seed, full)):
                return k, VertexSet(n, seed)
    raise AssertionError("the full vertex set always spans itself")


def wtn(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll number: the least k with a k-set whose pairwise
    intervals cover all vertices, and the lexicographically least such set."""
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "weakly toll number")
    require_non_trivial(graph, "weakly toll number")
    full = (1 << graph.n) - 1
    return _least_set(table, full.__eq__)


def wth(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll hull number: the least k with a k-set whose closure
    fixpoint is all vertices, and the lexicographically least such set."""
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "weakly toll hull number")
    require_non_trivial(graph, "weakly toll hull number")
    full = (1 << graph.n) - 1
    return _least_set(table, lambda step: _hull_mask(table, step, full) == full)


def _report(graph: Graph, u: int, v: int, inside: VertexSet) -> IntervalReport:
    outside = inside.complement()
    return IntervalReport(
        u=u,
        v=v,
        interval=inside,
        outside=outside,
        missed_near_u=graph.closed_neighborhood(u) & outside,
        missed_near_v=graph.closed_neighborhood(v) & outside,
    )


def interval_report(
    graph: Graph, u: int, v: int, kind: IntervalKind = IntervalKind.WEAKLY_TOLL
) -> IntervalReport:
    """The ``kind`` interval from u to v and what it misses."""
    return _report(graph, u, v, interval(graph, u, v, kind))


def maximum_interval_pairs(graph: Graph) -> list[tuple[int, int, IntervalReport]]:
    """All pairs whose weakly toll interval has maximum cardinality.

    On a connected non-complete graph some non-adjacent pair reaches at
    least three vertices while adjacent pairs reach exactly two, so every
    maximum pair is non-adjacent; this is asserted rather than assumed.
    """
    table = pair_intervals(graph, IntervalKind.WEAKLY_TOLL, "maximum interval search")
    require_non_complete(graph, "maximum interval search")
    best = max(mask.bit_count() for mask in table.filled().values())
    out = []
    for (u, v), mask in sorted(table.items()):
        if mask.bit_count() == best:
            assert not graph.adjacent(u, v), "maximum interval at an adjacent pair"
            out.append((u, v, _report(graph, u, v, VertexSet(graph.n, mask))))
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
