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
connected components of G - (N[u] | N[v]).  Each component comes with its
boundary, the removed vertices adjacent to it, and every hub and component
is then decided by intersecting masks: one component sweep plus
O(#components + deg u + deg v) mask operations per vertex pair.  A sweep is
one adjacency OR per kept vertex, through ``graphs.neighbourhood``.  Module
``oracle`` recomputes the same sets by direct walk enumeration, and the test
suite keeps both in exact agreement over an exhaustive small-graph corpus.

The semi weakly toll sweep, of G - N[u], depends on the source alone, and
I_swt(u, v) is read off it for any target v in O(#components) mask
operations.  The weakly toll interval of non-adjacent u, v is the
intersection of the two semi weakly toll ones,
I_wt(u, v) = I_swt(u, v) & I_swt(v, u).  With A = N(u) - N(v),
B = N(v) - N(u) and X = V - N[u] - N[v]: in G - N[u] the component of v is
{v}, B and the X-components that border B, and its boundary is the common
neighbours plus the A-hubs adjacent to B or to such a component, that is,
the common neighbours and the A-hubs that qualify.  So I_swt(u, v) is u, v,
those hubs, B, and the X-components that border B or one of those hubs; the
same holds with u and v swapped.  The intersection keeps the common
neighbours, the qualifying hubs of each side and the X-components that
border one of these (a component that borders both A and B makes its
boundary hubs qualify), which is the weakly toll interval.  An adjacent
pair's weakly toll interval is just {u, v}.

The sweep of u also names the targets v whose weakly toll interval with u
can be V.  I_swt(u, v) meets N(u) in the boundary of v's component of
G - N[u], so it holds N(u) only when that boundary is all of N(u), and
then it is V, as in a connected graph every component of G - N[u] borders
N(u).  So for n >= 3 the weakly toll interval of u, v is V exactly when v
lies in a component of G - N[u] whose boundary is N(u) and u in a
component of G - N[v] whose boundary is N(v): an adjacent pair's {u, v}
is V only in K2.

Each public call checks its graph, whose connectivity is swept once and kept.
``interval``, which the five named engines call, checks one query and runs
the pair body; ``pair_intervals`` checks a graph for its table of all pairs,
a dict that computes each pair on its first read; closures, hulls,
convexity tests and the subset searches index it, and the graph keeps it,
one table per kind.  The weakly toll and semi weakly toll tables read their
pairs off kept semi weakly toll sweeps, so filling one costs a sweep per
source and O(#components) per read, and the weakly toll table reads each
source's spanning targets off the same sweeps.  The engine bodies
themselves never check.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .graphs import (
    Graph,
    VertexSet,
    _bits,
    component_boundaries,
    neighbourhood,
    require_connected,
    require_subset,
)


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

#: Kinds whose pair table reads kept semi weakly toll sweeps, not pair bodies.
SWEEP_KINDS = frozenset({IntervalKind.WEAKLY_TOLL, IntervalKind.SEMI_WEAKLY_TOLL})


# Each public engine below hands its query to ``interval``, which checks it
# once and runs the engine body: an unchecked mask function of (adj, n, u, v)
# for a connected graph and u != v.


def _qualifying_hubs(adj: tuple[int, ...], n: int, u: int, v: int):
    """For non-adjacent u, v: the components of G - (N[u] | N[v]) with their
    boundaries, the exclusive hubs that qualify, and the union of the
    components whose boundary meets both sides.

    The exclusive hubs are A = N(u) - N(v) and B = N(v) - N(u).  A hub
    qualifies when it is adjacent to a hub of the other side, or when it
    borders a component that also borders the other side.
    """
    nu, nv = adj[u], adj[v]
    only_u, only_v = nu & ~nv, nv & ~nu
    comps = component_boundaries(adj, (1 << n) - 1 & ~(nu | nv | 1 << u | 1 << v))
    hubs = only_u & neighbourhood(adj, only_v)
    # b in B is next to A exactly when it is next to A & N(B)
    hubs |= only_v & neighbourhood(adj, hubs)
    exclusive = only_u | only_v
    two_sided = 0
    for comp, touch in comps:
        if touch & only_u and touch & only_v:
            hubs |= touch & exclusive
            two_sided |= comp
    return comps, hubs, two_sided


def weakly_toll_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """All vertices lying on some weakly toll walk between u and v.

    For non-adjacent u, v a walk leaves u through a hub a and reaches v
    through a hub b, where either a == b is a common neighbour or a is
    adjacent to u only and b to v only; any other combination would put a
    second v-neighbour (or u-neighbour) on the walk.  Such an exclusive
    pair is usable when a and b are adjacent or border a common component
    of G - (N[u] | N[v]), so a hub qualifies when some partner on the other
    side does.  Because hubs may repeat, the walk can detour into every
    component that a common neighbour or a qualifying hub borders.
    """
    return interval(graph, u, v, IntervalKind.WEAKLY_TOLL)


def _weakly_toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    if adj[u] >> v & 1:
        return 1 << u | 1 << v
    comps, hubs, _ = _qualifying_hubs(adj, n, u, v)
    hubs |= adj[u] & adj[v]
    result = 1 << u | 1 << v | hubs
    for comp, touch in comps:
        if touch & hubs:
            result |= comp
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
    return _semi_weakly_toll_read(adj, _semi_weakly_toll_sweep(adj, n, u), u, v)


def _semi_weakly_toll_sweep(adj: tuple[int, ...], n: int, u: int) -> list[tuple[int, int]]:
    """The components of G - N[u] with their boundaries, the part of a semi
    weakly toll interval that depends on the source u alone."""
    return component_boundaries(adj, (1 << n) - 1 & ~(adj[u] | 1 << u))


def _semi_weakly_toll_read(adj: tuple[int, ...], comps: list[tuple[int, int]], u: int, v: int) -> int:
    """I_swt(u, v) from ``comps``, the sweep of u."""
    if adj[u] >> v & 1:
        hubs = 1 << v
    else:
        # the first steps that reach v: the boundary of v's component
        for comp, hubs in comps:
            if comp >> v & 1:
                break
    result = 1 << u | hubs
    for comp, touch in comps:
        if touch & hubs:
            result |= comp
    return result


def toll_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """All vertices lying on some tolled walk between u and v.

    Hubs occur exactly once in a tolled walk, so a common neighbour
    contributes only itself, a qualifying exclusive hub (as for weakly toll
    walks) contributes itself, and a component joins exactly when it
    borders both sides (the walk enters the interior once from a and must
    leave it towards b).
    """
    return interval(graph, u, v, IntervalKind.TOLL)


def _toll(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    if adj[u] >> v & 1:
        return 1 << u | 1 << v
    _, hubs, two_sided = _qualifying_hubs(adj, n, u, v)
    return 1 << u | 1 << v | adj[u] & adj[v] | hubs | two_sided


def geodesic_interval(graph: Graph, u: int, v: int) -> VertexSet:
    """Union of all shortest u-v paths."""
    return interval(graph, u, v, IntervalKind.GEODESIC)


def _geodesic(adj: tuple[int, ...], n: int, u: int, v: int) -> int:
    # breadth-first layers from u until v, then back: a vertex of layer i
    # lies on a shortest path when it is adjacent to one in layer i + 1 that does
    layers = []
    frontier = seen = 1 << u
    while not frontier >> v & 1:
        layers.append(frontier)
        frontier = neighbourhood(adj, frontier) & ~seen
        seen |= frontier
    result = back = 1 << v
    for layer in reversed(layers):
        back = layer & neighbourhood(adj, back)
        result |= back
    return result


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


class PairIntervals(dict):
    """Pair-interval table of one graph and kind: a dict from each pair
    (u, v) with u < v to the mask of the union of the intervals from u to v
    and from v to u.  A missing pair is computed from ``ordered(u, v)``, the
    interval from u to v, on its first read and stored, so every later read
    is an ordinary dict lookup; a symmetric kind needs only the first order.
    Closures, hulls, convexity tests and the subset searches read nothing
    else, and compute only the pairs they read.

    ``forced`` is the mask of the vertices in no interval between two other
    vertices, ``None`` until a subset search of module ``convexity`` has
    filled the table and read it off; later searches on the table start
    from it.  Racing threads may both store it, and their masks are equal.

    ``targets`` is ``ordered.targets`` when ``ordered`` has one, as the
    weakly toll table's has, and ``None`` else; see ``pair_intervals``.
    """

    __slots__ = ("n", "_symmetric", "ordered", "forced", "targets")

    def __init__(self, n: int, kind: IntervalKind, ordered: Callable[[int, int], int]):
        super().__init__()
        self.n = n
        self.forced: int | None = None
        self._symmetric = IntervalKind(kind) in SYMMETRIC_KINDS
        self.ordered = ordered
        self.targets: Callable[[int], int] | None = getattr(ordered, "targets", None)

    def __missing__(self, pair: tuple[int, int]) -> int:
        u, v = pair
        mask = self.ordered(u, v)
        if not self._symmetric:
            mask |= self.ordered(v, u)
        self[pair] = mask
        return mask

    def filled(self) -> PairIntervals:
        """The table itself, with every pair computed."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                self[u, v]
        return self


def _from_sweeps(adj: tuple[int, ...], n: int, kind: IntervalKind) -> Callable[[int, int], int]:
    """The ordered interval from u to v that the table of a kind in
    ``SWEEP_KINDS`` reads off the semi weakly toll sweeps of its ends, each
    swept on its first need and kept.  The weakly toll one carries
    ``targets``, the spanning targets of a source read off its sweep."""
    read, sweeps = _semi_weakly_toll_read, [None] * n

    def sweep(u: int) -> list[tuple[int, int]]:
        # read as ``sweeps[u] or sweep(u)``, which redoes an empty sweep;
        # racing threads may both sweep u, and their sweeps are equal
        sweeps[u] = comps = _semi_weakly_toll_sweep(adj, n, u)
        return comps

    if kind is IntervalKind.SEMI_WEAKLY_TOLL:
        return lambda u, v: read(adj, sweeps[u] or sweep(u), u, v)

    def weakly_toll(u: int, v: int) -> int:
        if adj[u] >> v & 1:
            return 1 << u | 1 << v
        return read(adj, sweeps[u] or sweep(u), u, v) & read(adj, sweeps[v] or sweep(v), v, u)

    def targets(u: int) -> int:
        if n == 2:
            return 1 << (1 - u)  # K2: the one pair is adjacent and {u, v} is V
        nu, spanning = adj[u], 0
        for comp, touch in sweeps[u] or sweep(u):
            if touch == nu:
                spanning |= comp
        return spanning

    weakly_toll.targets = targets
    return weakly_toll


def pair_intervals(graph: Graph, kind: IntervalKind, what: str | None = None) -> PairIntervals:
    """The pair-interval table of a connected graph, checked once for all its
    pairs; ``what`` names the operation in the error and defaults to the
    interval kind.  The graph keeps its table of each kind, so later calls
    reuse the pairs computed so far and skip the check.  A disconnected
    graph raises on every call and never gets a table.

    The semi weakly toll table reads a pair as I_swt(u, v) | I_swt(v, u),
    and the weakly toll table as {u, v} for an adjacent pair and
    I_swt(u, v) & I_swt(v, u) otherwise (see the module docstring), each
    I_swt(u, v) read off the sweep of u, swept on the table's first need
    of it and kept.  A filled table of either kind costs one sweep per
    source and O(#components) mask operations per pair, where the bodies
    cost a sweep per pair.  The other kinds run their pair bodies.

    The weakly toll table's ``targets(u)`` is the mask of the other vertex
    in K2, and else the union of the components of u's kept sweep whose
    boundary is all of N(u), read in O(#components) on each call and
    stored nowhere.  An entry (u, v) is V exactly when v is in
    ``targets(u)`` and u in ``targets(v)``: I_swt(u, v) holds N(u) only
    when the boundary of v's component is N(u), and is then V (see the
    module docstring).  The other tables have ``targets`` ``None``."""
    kind = IntervalKind(kind)
    table = graph._derived.get(kind)
    if table is None:
        require_connected(graph, what or f"{kind.value.replace('-', ' ')} interval")
        adj, n, body = graph.adjacency_masks(), graph.n, _BODIES[kind]
        ordered = _from_sweeps(adj, n, kind) if kind in SWEEP_KINDS else lambda u, v: body(adj, n, u, v)
        table = PairIntervals(n, kind, ordered)
        table = graph._derived.setdefault(kind, table)  # racing threads share the first
    return table


def closure_mask(table: PairIntervals, mask: int, full: int) -> int:
    """One closure step: ``mask`` plus ``table[u, v]`` for every two of its
    members, computing the pairs the table lacks.  Once the result reaches
    ``full``, the mask of every vertex, the remaining pairs are not read."""
    # the lowest-bit loop is inlined: a closure step is the searches' inner loop
    members = []
    rest = mask
    while rest:
        low = rest & -rest
        members.append(low.bit_length() - 1)
        rest ^= low
    grown = mask
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            grown |= table[u, v]
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
