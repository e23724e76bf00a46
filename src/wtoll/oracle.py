"""Brute-force reference implementations of the walk intervals.

Everything here works directly from the walk definitions and is kept
deliberately independent of the closed-form engines in ``intervals``: the
adjacency structure is rebuilt as plain neighbour lists and the walk
conditions are restated from scratch.  These oracles exist to catch any
mistake in the derived characterisations, so they favour obviousness over
speed.

A weakly toll walk u = w_0, w_1, ..., w_k = v may revisit its hubs, so its
definition bounds no walk length, and raw vertex sequences cannot be
enumerated exhaustively.  ``witness_lengths`` and ``oracle_interval``
instead fix the hubs a = w_1 and b = w_(k-1).  Once they are fixed, the
definition only says which vertices the walk may not visit: each w_i with
i >= 1 that is adjacent to u must be a, and each w_i with i <= k - 1 that
is adjacent to v must be b.  So, for u and v not adjacent, the weakly toll
walks with hubs a and b are exactly u, then any walk from a to b in G
without (N(u) - a) | (N(v) - b), then v, unless that set holds a or b.
Every such sequence meets the conditions (sound), and every weakly toll
walk is one of them for its own hubs (complete).  The shortest one through
a vertex x has 2 + d(a, x) + d(x, b) edges, two breadth-first distances in
that subgraph, and the least over the hub choices is exact with no cap on
walk length.  Semi weakly toll walks have no condition on the v side:
without N(u) - a, x gets 1 + d(a, x) + d(x, v).  Tolled walks meet each
neighbourhood only at their hub, so a common neighbour c gives u, c, v,
and every other walk runs from N(u) - N(v) to N(v) - N(u) without
N(u) & N(v), u and v, touching each side only at its end.  So x gets
2 plus its distances from the two sides: one multi-source search from
each, which stops at the other side's hubs.  For an adjacent pair, v
must be the first hub of a weakly toll or tolled walk and u the last, so
u, v is the only walk; a semi weakly toll walk then has the first hub v
and may roam from it.

Each search is a plain breadth-first search, linear in the edges it
reaches.  A weakly toll pair runs at most two per hub choice, at most
deg(u) * deg(v) choices; a toll pair runs two.  The semi weakly toll
searches from the hubs read N(u) alone, so ``witness_lengths`` runs them
once for consecutive pairs with the same source, holding one source's at a
time, and each target runs one more per hub that reaches it.  The tests
hold the lengths to a literal depth-first enumeration of vertex
sequences on tiny graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph, VertexSet, require_connected
from .intervals import IntervalKind

ORACLE_KINDS = (IntervalKind.WEAKLY_TOLL, IntervalKind.SEMI_WEAKLY_TOLL, IntervalKind.TOLL)


def _neighbour_lists(graph: Graph) -> list[list[int]]:
    """Each vertex's neighbours, in increasing order."""
    nbrs: list[list[int]] = [[] for _ in range(graph.n)]
    for a, b in graph.edges():
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


# -- verbatim walk validity --------------------------------------------


def _weakly_toll_walk(nbrs: list[list[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in nbrs[walk[i]] for i in range(k)):
        return False
    if any(walk[i] in nbrs[u] and walk[i] != walk[1] for i in range(1, k + 1)):
        return False
    if any(v in nbrs[walk[i]] and walk[i] != walk[k - 1] for i in range(k)):
        return False
    return True


def _semi_weakly_toll_walk(nbrs: list[list[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in nbrs[walk[i]] for i in range(k)):
        return False
    return not any(walk[i] in nbrs[u] and walk[i] != walk[1] for i in range(1, k + 1))


def _tolled_walk(nbrs: list[list[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in nbrs[walk[i]] for i in range(k)):
        return False
    if any((walk[i] in nbrs[u]) != (i == 1) for i in range(1, k + 1)):
        return False
    return not any((walk[i] in nbrs[v]) != (i == k - 1) for i in range(k))


def is_weakly_toll_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Check the three defining conditions of a weakly toll walk as stated."""
    return _weakly_toll_walk(_neighbour_lists(graph), walk, u, v)


def is_semi_weakly_toll_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Like the weakly toll conditions but restricted to the source side."""
    return _semi_weakly_toll_walk(_neighbour_lists(graph), walk, u, v)


def is_tolled_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Positional form: w_i is adjacent to u iff i == 1, and to v iff i == k-1."""
    return _tolled_walk(_neighbour_lists(graph), walk, u, v)


# -- hub-fixed breadth-first search -------------------------------------


def _distances(nbrs: list[list[int]], banned, sources, stops=()) -> dict[int, int]:
    """Breadth-first distances from ``sources`` in the graph without the
    ``banned`` vertices.  A vertex in ``stops`` gets its distance but is not
    searched beyond."""
    dist = dict.fromkeys(sources, 0)
    queue = list(dist)
    for x in queue:
        if x in stops:
            continue
        d = dist[x] + 1
        for w in nbrs[x]:
            if w not in dist and w not in banned:
                dist[w] = d
                queue.append(w)
    return dist


def _join(lengths: dict[int, int], edges: int, before: dict, after: dict) -> None:
    """For each vertex both searches reach, keep the lesser of its length
    so far and ``edges`` plus its distances in the two searches."""
    for x, d in before.items():
        if x in after:
            total = edges + d + after[x]
            if total < lengths.get(x, total + 1):
                lengths[x] = total


def _ends(lengths: dict[int, int], u: int, v: int) -> dict[int, int]:
    """u and v lie on every walk, so they get the shortest one."""
    if lengths:
        lengths[u] = lengths[v] = min(lengths.values())
    return lengths


def _weakly_toll_lengths(nbrs: list[list[int]], u: int, v: int) -> dict[int, int]:
    nu, nv = set(nbrs[u]), set(nbrs[v])
    if v in nu:
        # v must be the first hub and u the last, so the walk is u, v
        return {u: 1, v: 1}
    lengths: dict[int, int] = {}
    for a in nbrs[u]:
        for b in nbrs[v]:
            banned = (nu - {a}) | (nv - {b})
            if a in banned or b in banned:
                continue
            from_a = _distances(nbrs, banned, (a,))
            if b in from_a:
                from_b = from_a if a == b else _distances(nbrs, banned, (b,))
                _join(lengths, 2, from_a, from_b)
    return _ends(lengths, u, v)


def _hub_searches(nbrs: list[list[int]], u: int) -> list[tuple[set[int], dict]]:
    """For each first hub a of a semi weakly toll walk from u: the vertices
    the walk may not visit after u, N(u) - a, and the distances from a
    without them.  They read N(u) alone, so they serve every target."""
    nu = set(nbrs[u])
    searches = []
    for a in nbrs[u]:
        banned = nu - {a}
        searches.append((banned, _distances(nbrs, banned, (a,))))
    return searches


def _semi_weakly_toll_rows(nbrs: list[list[int]], pairs) -> Iterator[dict[int, int]]:
    """The hub searches once per run of pairs sharing a source, then one
    search back from the target per hub that reaches it; only the current
    source's searches are held."""
    source = None
    for u, v in pairs:
        if u == v:
            yield {u: 0}
            continue
        if u != source:
            source = u
            hubs = _hub_searches(nbrs, u)
        lengths: dict[int, int] = {}
        for banned, from_hub in hubs:
            if v in from_hub:
                _join(lengths, 1, from_hub, _distances(nbrs, banned, (v,)))
        yield _ends(lengths, u, v)


def _toll_lengths(nbrs: list[list[int]], u: int, v: int) -> dict[int, int]:
    nu, nv = set(nbrs[u]), set(nbrs[v])
    if v in nu:
        # a longer walk would place v at a position other than 1 while v is
        # adjacent to the start, violating the positional condition
        return {u: 1, v: 1}
    common = nu & nv
    lengths = dict.fromkeys(common, 2)
    banned = common | {u, v}
    only_u, only_v = nu - nv, nv - nu
    from_u = _distances(nbrs, banned, only_u, only_v)
    _join(lengths, 2, from_u, _distances(nbrs, banned, only_v, only_u))
    return _ends(lengths, u, v)


def witness_lengths(
    graph: Graph, pairs: Iterable[tuple[int, int]], kind: IntervalKind
) -> Iterator[dict[int, int]]:
    """For each ``(u, v)`` in ``pairs``, the fewest edges of a qualifying
    walk through each vertex such a walk visits, of any length (u and v get
    the shortest one).  Its keys are the exact interval, which
    ``oracle_interval`` returns for one pair.  The graph and each distinct
    endpoint are checked, and the neighbour lists built, once for all
    pairs.  Semi weakly toll pairs that follow one another with the same
    source share its hub searches, so grouping the pairs by source makes
    one set of hub searches per source."""
    kind = IntervalKind(kind)
    if kind not in ORACLE_KINDS:
        raise ValueError(f"no walk oracle for interval kind {kind.value!r}")
    require_connected(graph, "walk oracle")
    pairs = list(pairs)
    checked: set[int] = set()
    for u, v in pairs:
        for x in (u, v):
            # 1.0 and True equal 1 and hash alike, but only the int is a vertex
            if type(x) is not int or x not in checked:
                graph._check_vertex(x)
                checked.add(x)
    nbrs = _neighbour_lists(graph)
    if kind is IntervalKind.SEMI_WEAKLY_TOLL:
        return _semi_weakly_toll_rows(nbrs, pairs)
    lengths = _weakly_toll_lengths if kind is IntervalKind.WEAKLY_TOLL else _toll_lengths
    return ({u: 0} if u == v else lengths(nbrs, u, v) for u, v in pairs)


def oracle_interval(graph: Graph, u: int, v: int, kind: IntervalKind) -> VertexSet:
    """Vertices visited by some qualifying walk from u to v: the exact
    interval, read off ``witness_lengths``."""
    (lengths,) = witness_lengths(graph, [(u, v)], kind)
    return VertexSet(graph.n, sum(1 << x for x in lengths))
