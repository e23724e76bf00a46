"""Walk-based intervals on connected graphs.

Five interval notions are supported.  A weakly toll walk between u and v is
a walk whose only vertex adjacent to u is its second vertex and whose only
vertex adjacent to v is its second-to-last vertex, where those two "hub"
vertices may repeat along the walk.  A tolled walk additionally requires
each hub to occur exactly once.  A semi weakly toll walk keeps the
restriction at the source u only.  Monophonic and geodesic intervals are the
classical induced-path and shortest-path intervals.

The weakly toll / semi weakly toll / toll engines below do not enumerate
walks.  They rely on a hub decomposition: once the first-step neighbour a of
u and the last-step neighbour b of v are fixed, every other interior vertex
must avoid N[u] and N[v] entirely, so the reachable interior is a union of
connected components of G - (N[u] | N[v]).  The component bookkeeping per
vertex pair costs O(deg(u) * deg(v)) bitmask operations.  Module ``oracle``
recomputes the same sets by direct walk enumeration, and the test suite
keeps both in exact agreement over an exhaustive small-graph corpus.

Each public call checks its graph once.  ``interval``, which the five named
engines call, checks one query; ``pair_intervals`` checks a graph for a
lazily filled table of all its pairs, which closures, hulls, convexity tests
and the subset searches read, and keeps the last two tables for the next
call on the same graph.  The engine bodies themselves never check.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable

from .graphs import Graph, VertexSet, _bits, component_masks, require_connected, require_subset


class IntervalKind(str, Enum):
    WEAKLY_TOLL = "weakly-toll"
    SEMI_WEAKLY_TOLL = "semi-weakly-toll"
    TOLL = "toll"
    MONOPHONIC = "monophonic"
    GEODESIC = "geodesic"


#: Kinds whose interval is symmetric in (u, v).  Semi weakly toll is the
#: exception: only the source endpoint carries the walk restriction.
SYMMETRIC_KINDS = frozenset(
    {IntervalKind.WEAKLY_TOLL, IntervalKind.TOLL, IntervalKind.MONOPHONIC, IntervalKind.GEODESIC}
)


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


# Each public engine below hands its query to ``interval``, which checks it
# once and runs the engine body: an unchecked mask function of (adj, n, u, v)
# for a connected graph and u != v.


def _hub_split(adj: tuple[int, ...], n: int, u: int, v: int):
    """For non-adjacent u, v: the components of G - (N[u] | N[v]), the touch
    tables of the hubs N(u) | N(v), and the exclusive hubs (adjacent to u
    only, and to v only)."""
    nu, nv = adj[u], adj[v]
    comps = component_masks(adj, (1 << n) - 1 & ~(nu | nv | 1 << u | 1 << v))
    touch_idx, touch_mask = _touch_tables(adj, comps, nu | nv)
    return comps, touch_idx, touch_mask, nu & ~nv, nv & ~nu


def weakly_toll_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """All vertices lying on some weakly toll walk between u and v.

    For non-adjacent u, v the qualifying hub pairs (a, b) are either a
    common neighbour (a == b) or a pair with a adjacent to u but not to v
    and b adjacent to v but not to u; any other combination would put a
    second v-neighbour (or u-neighbour) on the walk.  Because hubs may
    repeat, a walk through a connected pair (a, b) can detour into every
    component touched by a or by b.
    """
    return interval(graph, u, v, IntervalKind.WEAKLY_TOLL)


def _weakly_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
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


def semi_weakly_toll_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """All vertices on some semi weakly toll walk from source u to target v.

    Only the source side is restricted: with the first-step neighbour a
    fixed, the rest of the walk lives in G - (N[u] - {a}) and must reach v,
    so the answer is {u} plus the merged component of a and v whenever they
    meet.  When u and v are adjacent the source condition forces the first
    step onto v itself, which leaves {u} plus the component of v in
    G - (N[u] - {v}).
    """
    return interval(graph, u, v, IntervalKind.SEMI_WEAKLY_TOLL)


def _semi_weakly_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    comps = component_masks(adj, (1 << n) - 1 & ~(adj[u] | 1 << u))
    touch_idx, touch_mask = _touch_tables(adj, comps, adj[u])
    if adj[u] >> v & 1:
        return 1 << u | 1 << v | touch_mask[v]
    v_idx = next(1 << i for i, comp in enumerate(comps) if comp >> v & 1)
    result = 1 << u
    for a in _bits(adj[u]):
        if touch_idx[a] & v_idx:
            result |= 1 << a | touch_mask[a]
    return result


def toll_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """All vertices lying on some tolled walk between u and v.

    Hubs occur exactly once in a tolled walk, so a common neighbour
    contributes only itself, and an exclusive hub pair (a, b) reaches
    exactly the components touched by both ends (the walk enters the
    interior once and must leave it towards b).
    """
    return interval(graph, u, v, IntervalKind.TOLL)


def _toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
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


def geodesic_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """Union of all shortest u-v paths."""
    return interval(graph, u, v, IntervalKind.GEODESIC)


def _geodesic(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    du = _bfs_distances(adj, n, u)
    dv = _bfs_distances(adj, n, v)
    d = du[v]
    mask = 0
    for x in range(n):
        if du[x] + dv[x] == d:
            mask |= 1 << x
    return mask


def monophonic_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """Union of all induced u-v paths, by depth-first enumeration."""
    return interval(graph, u, v, IntervalKind.MONOPHONIC)


def _monophonic(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    result = 0

    def extend(last: int, path: int) -> None:
        nonlocal result
        if last == v:
            result |= path
            return
        for w in _bits(adj[last] & ~path):
            # keeping the path induced: w may touch only its predecessor
            if adj[w] & path & ~(1 << last):
                continue
            extend(w, path | 1 << w)

    extend(u, 1 << u)
    return result


_BODIES = {
    IntervalKind.WEAKLY_TOLL: _weakly_toll,
    IntervalKind.SEMI_WEAKLY_TOLL: _semi_weakly_toll,
    IntervalKind.TOLL: _toll,
    IntervalKind.MONOPHONIC: _monophonic,
    IntervalKind.GEODESIC: _geodesic,
}


def interval(graph: Graph, u: int, v: int, kind: IntervalKind) -> VertexSet:
    """The ``kind`` interval from u to v, for a connected graph."""
    kind = IntervalKind(kind)
    require_connected(graph, f"{kind.value.replace('-', ' ')} interval")
    graph._check_vertex(u)
    graph._check_vertex(v)
    if u == v:
        return VertexSet(graph.n, 1 << u)
    return VertexSet(graph.n, _BODIES[kind](graph.adjacency_masks(), graph.n, u, v))


# -- the pair-interval table -----------------------------------------------


class PairIntervals:
    """Pair-interval table of one graph and kind.

    ``table[u, v]`` with u < v is the mask of the union of the intervals
    from u to v and from v to u, computed from ``ordered(u, v)`` on first
    read; a symmetric kind needs only the first.  Closures, hulls,
    convexity tests and the subset searches read nothing else, and compute
    only the pairs they read.
    """

    __slots__ = ("n", "_symmetric", "_ordered", "_masks")

    def __init__(self, n: int, kind: IntervalKind, ordered: Callable[[int, int], int]):
        self.n = n
        self._symmetric = IntervalKind(kind) in SYMMETRIC_KINDS
        self._ordered = ordered
        self._masks: dict[tuple[int, int], int] = {}

    def __getitem__(self, pair: tuple[int, int]) -> int:
        mask = self._masks.get(pair)
        if mask is None:
            u, v = pair
            mask = self._ordered(u, v)
            if not self._symmetric:
                mask |= self._ordered(v, u)
            self._masks[pair] = mask
        return mask

    def filled(self) -> dict[tuple[int, int], int]:
        """Every pair computed, as a plain dict keyed like the table: the
        subset searches index it in their inner loops once every pair is
        known, where a method call per read costs too much."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                self[u, v]
        return self._masks


#: How many tables ``pair_intervals`` keeps, most recently used last.  Two,
#: because ``closed_forms.lex_wtn`` and ``corona_wtn`` read a factor's table
#: between ``wtn`` and ``wth`` of the product.
TABLE_CACHE_SIZE = 2
_TABLES: dict[tuple[Graph, IntervalKind], PairIntervals] = {}
_TABLES_LOCK = threading.Lock()


def pair_intervals(graph: Graph, kind: IntervalKind, what: str | None = None) -> PairIntervals:
    """The pair-interval table of a connected graph, checked here once for
    all its pairs; ``what`` names the operation in the error and defaults
    to the interval kind.

    The last ``TABLE_CACHE_SIZE`` tables are kept, keyed ``(graph, kind)``,
    so a second call on the same graph reuses the pairs the first one
    computed and skips the check.  A disconnected graph is never kept.
    """
    kind = IntervalKind(kind)
    key = (graph, kind)
    with _TABLES_LOCK:
        table = _TABLES.pop(key, None)
        if table is None:
            require_connected(graph, what or f"{kind.value.replace('-', ' ')} interval")
            adj, n, body = graph.adjacency_masks(), graph.n, _BODIES[kind]
            table = PairIntervals(n, kind, lambda u, v: body(adj, n, u, v))
            if len(_TABLES) >= TABLE_CACHE_SIZE:
                del _TABLES[next(iter(_TABLES))]
        _TABLES[key] = table
    return table


def closure_mask(pair, mask: int, full: int) -> int:
    """One closure step: ``mask`` plus ``pair[u, v]`` for every two of its
    members, from a :class:`PairIntervals` (computing the pairs it lacks)
    or a filled dict of every pair.  Once the result reaches ``full``, the
    mask of every vertex, the remaining pairs are not read."""
    members = list(_bits(mask))
    grown = mask
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            grown |= pair[u, v]
        if grown == full:
            break
    return grown


def interval_closure(graph: Graph, subset: VertexSet, kind: IntervalKind) -> VertexSet:
    """Union of the pairwise intervals over the subset (one closure step).

    Diagonal pairs contribute the singletons, so the subset itself is
    always contained in the result.
    """
    require_subset(graph, subset)
    full = (1 << graph.n) - 1
    return VertexSet(graph.n, closure_mask(pair_intervals(graph, kind), subset.mask, full))


def is_weakly_toll_set(graph: Graph, subset: VertexSet) -> bool:
    """Whether the pairwise weakly toll intervals of the subset cover V."""
    return interval_closure(graph, subset, IntervalKind.WEAKLY_TOLL) == VertexSet.full(graph.n)
