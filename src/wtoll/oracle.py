"""Brute-force reference implementations of the walk intervals.

Everything here works directly from the walk definitions and is kept
deliberately independent of the closed-form engines in ``intervals``: the
adjacency structure is rebuilt as plain neighbour sets and the walk
conditions are restated from scratch.  These oracles exist to catch any
mistake in the derived characterisations, so they favour obviousness over
speed.

A weakly toll walk may revisit its hubs, so its definition bounds no walk
length, and raw vertex sequences cannot be enumerated exhaustively.
``witness_lengths`` and ``oracle_interval`` instead search a finite state
space breadth-first, with no length cap, so their intervals are exact by
construction.  The state is sound because the walk constraints become
per-vertex checks once the hub vertices are fixed: for a weakly toll walk,
after the first step every appended vertex adjacent to u must equal the
first hub, and all vertices adjacent to v seen anywhere must agree on a
single vertex, which must also immediately precede the final v.  A state is
(vertex, first hub, last hub) for weakly toll walks, at most
n * deg(u) * (deg(v) + 1) of them; (vertex, first hub) for semi weakly toll
walks, at most n * deg(u); and (vertex, stage) for tolled walks, at most 2n.
Each search is linear in its states and their transitions, so graphs of a
few dozen vertices are cheap.  ``enumerated_interval`` re-derives the same
sets by literal depth-first sequence enumeration up to a walk budget (no
memoisation) and the tests keep the two in agreement on tiny graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .convexity import least_covering_set, least_hull_set
from .graphs import Graph, VertexSet, require_connected, require_non_trivial
from .intervals import IntervalKind, PairIntervals

ORACLE_KINDS = (IntervalKind.WEAKLY_TOLL, IntervalKind.SEMI_WEAKLY_TOLL, IntervalKind.TOLL)


def _neighbour_sets(graph: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(graph.n)]
    for a, b in graph.edges():
        adj[a].add(b)
        adj[b].add(a)
    return adj


# -- verbatim walk validity --------------------------------------------


def _weakly_toll_walk(adj: list[set[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in adj[walk[i]] for i in range(k)):
        return False
    if any(walk[i] in adj[u] and walk[i] != walk[1] for i in range(1, k + 1)):
        return False
    if any(v in adj[walk[i]] and walk[i] != walk[k - 1] for i in range(k)):
        return False
    return True


def _semi_weakly_toll_walk(adj: list[set[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in adj[walk[i]] for i in range(k)):
        return False
    return not any(walk[i] in adj[u] and walk[i] != walk[1] for i in range(1, k + 1))


def _tolled_walk(adj: list[set[int]], walk: list[int], u: int, v: int) -> bool:
    if not walk or walk[0] != u or walk[-1] != v:
        return False
    k = len(walk) - 1
    if k == 0:
        return True
    if any(walk[i + 1] not in adj[walk[i]] for i in range(k)):
        return False
    if any((walk[i] in adj[u]) != (i == 1) for i in range(1, k + 1)):
        return False
    return not any((walk[i] in adj[v]) != (i == k - 1) for i in range(k))


def is_weakly_toll_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Check the three defining conditions of a weakly toll walk as stated."""
    return _weakly_toll_walk(_neighbour_sets(graph), walk, u, v)


def is_semi_weakly_toll_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Like the weakly toll conditions but restricted to the source side."""
    return _semi_weakly_toll_walk(_neighbour_sets(graph), walk, u, v)


def is_tolled_walk(graph: Graph, walk: list[int], u: int, v: int) -> bool:
    """Positional form: w_i is adjacent to u iff i == 1, and to v iff i == k-1."""
    return _tolled_walk(_neighbour_sets(graph), walk, u, v)


_CHECKERS = {
    IntervalKind.WEAKLY_TOLL: _weakly_toll_walk,
    IntervalKind.SEMI_WEAKLY_TOLL: _semi_weakly_toll_walk,
    IntervalKind.TOLL: _tolled_walk,
}


# -- memoised walk-state search -----------------------------------------


def _state_lengths(starts, transitions, finished, u: int, v: int) -> dict[int, int]:
    """Shared scaffolding: min edges to reach each state (forward) and to
    complete a walk from it (backward), by breadth-first search run to
    exhaustion over the finite state space.  Returns, for every vertex some
    state of which splits a valid walk, the fewest edges of such a walk; u
    and v get the shortest valid walk.  BFS distances are exact, so the
    vertices of qualifying walks within a budget B are those whose length is
    at most B."""
    fwd: dict = {}
    preds: dict = {}
    queue = deque()
    for state in starts:
        if state not in fwd:
            fwd[state] = 1
            queue.append(state)
    while queue:
        state = queue.popleft()
        d = fwd[state]
        for nxt in transitions(state):
            preds.setdefault(nxt, []).append(state)
            if nxt not in fwd:
                fwd[nxt] = d + 1
                queue.append(nxt)

    # every finished state of one kind needs the same number of extra edges,
    # so a plain multi-source BFS gives exact distances
    bwd = dict(finished(fwd))
    queue = deque(bwd)
    while queue:
        state = queue.popleft()
        d = bwd[state]
        for prev in preds.get(state, ()):
            if prev not in bwd:
                bwd[prev] = d + 1
                queue.append(prev)

    lengths: dict[int, int] = {}
    for state, back in bwd.items():
        edges = fwd[state] + back
        if edges < lengths.get(state[0], edges + 1):
            lengths[state[0]] = edges
    if lengths:
        lengths[u] = lengths[v] = min(lengths.values())
    return lengths


def _weakly_toll_lengths(adj: list[set[int]], u: int, v: int) -> dict[int, int]:
    nu, nv = adj[u], adj[v]
    b0 = u if u in nv else -1

    def step(cur: int, a: int, b: int):
        for w in adj[cur]:
            if w in nu and w != a:
                continue
            if w in nv:
                if b == -1:
                    yield (w, a, w)
                elif b == w:
                    yield (w, a, b)
            else:
                yield (w, a, b)

    starts = []
    for a in sorted(nu):
        if a in nv and b0 not in (-1, a):
            continue
        starts.append((a, a, (a if a in nv else b0)))

    def transitions(state):
        return step(*state)

    def finished(fwd):
        return [(state, 0) for state in fwd if state[0] == v]

    return _state_lengths(starts, transitions, finished, u, v)


def _semi_weakly_toll_lengths(adj: list[set[int]], u: int, v: int) -> dict[int, int]:
    nu = adj[u]

    def transitions(state):
        cur, a = state
        for w in adj[cur]:
            if w in nu and w != a:
                continue
            yield (w, a)

    starts = [(a, a) for a in sorted(nu)]

    def finished(fwd):
        return [(state, 0) for state in fwd if state[0] == v]

    return _state_lengths(starts, transitions, finished, u, v)


def _toll_lengths(adj: list[set[int]], u: int, v: int) -> dict[int, int]:
    nu, nv = adj[u], adj[v]
    if v in nu:
        # a longer walk would place v at a position other than 1 while v is
        # adjacent to the start, violating the positional condition
        return {u: 1, v: 1}
    MID, LAST = 0, 1

    def transitions(state):
        cur, stage = state
        if stage == LAST:
            return
        for w in adj[cur]:
            if w in nu or w == u:
                continue
            yield (w, LAST if w in nv else MID)

    starts = [(a, LAST if a in nv else MID) for a in sorted(nu)]

    def finished(fwd):
        # one more edge hops from the penultimate vertex onto v
        return [(state, 1) for state in fwd if state[1] == LAST]

    return _state_lengths(starts, transitions, finished, u, v)


_BUILDERS = {
    IntervalKind.WEAKLY_TOLL: _weakly_toll_lengths,
    IntervalKind.SEMI_WEAKLY_TOLL: _semi_weakly_toll_lengths,
    IntervalKind.TOLL: _toll_lengths,
}


def witness_lengths(
    graph: Graph, pairs: Iterable[tuple[int, int]], kind: IntervalKind
) -> Iterator[dict[int, int]]:
    """For each ``(u, v)`` in ``pairs``, the fewest edges of a qualifying
    walk through each vertex such a walk visits, of any length (u and v get
    the shortest one).  ``oracle_interval`` at a budget B is the set of
    vertices whose length is at most B.  The graph is checked and its
    neighbour sets built once for all pairs."""
    kind = IntervalKind(kind)
    if kind not in _BUILDERS:
        raise ValueError(f"no walk oracle for interval kind {kind.value!r}")
    require_connected(graph, "walk oracle")
    pairs = list(pairs)
    for u, v in pairs:
        graph._check_vertex(u)
        graph._check_vertex(v)
    adj = _neighbour_sets(graph)
    build = _BUILDERS[kind]
    return ({u: 0} if u == v else build(adj, u, v) for u, v in pairs)


def _check_budget(budget: int) -> int:
    if budget < 1:
        raise ValueError("walk budget must allow at least one edge")
    return budget


def oracle_interval(
    graph: Graph, u: int, v: int, kind: IntervalKind, budget: int | None = None
) -> VertexSet:
    """Vertices visited by some qualifying walk: the exact interval, or,
    given ``budget``, only the walks of at most ``budget`` edges."""
    limit = float("inf") if budget is None else _check_budget(budget)
    (lengths,) = witness_lengths(graph, [(u, v)], kind)
    return VertexSet(graph.n, sum(1 << x for x, edges in lengths.items() if edges <= limit))


#: Largest graph ``enumerated_interval`` accepts.  Its cost grows like
#: degree**budget: the worst 5-vertex graph takes seconds per kind at 2n + 2,
#: and a 6-vertex graph had not finished its three kinds after minutes.
ENUMERATION_MAX_N = 5


def enumerated_interval(
    graph: Graph, u: int, v: int, kind: IntervalKind, budget: int | None = None
) -> VertexSet:
    """Unmemoised ground truth: depth-first over raw vertex sequences of at
    most ``budget`` edges (2n + 2 by default, which is also the largest
    budget accepted; graphs above ``ENUMERATION_MAX_N`` vertices are
    refused).

    Every extension keeps the walk-edge constraint and drops dead prefixes.
    For all three kinds the u-side condition is a separate test of each
    position i >= 1, given w_1: a vertex adjacent to u must be w_1 for
    weakly and semi weakly toll walks, and must sit at position 1 for
    tolled walks.  So a prefix that fails it at some position fails it in
    every extension, and skipping the prefix loses no valid walk.  Full
    sequences ending at v are still validated with the verbatim condition
    checkers.
    """
    kind = IntervalKind(kind)
    checker = _CHECKERS[kind]
    require_connected(graph, "walk enumeration")
    graph._check_vertex(u)
    graph._check_vertex(v)
    max_len = 2 * graph.n + 2 if budget is None else _check_budget(budget)
    if graph.n > ENUMERATION_MAX_N or max_len > 2 * graph.n + 2:
        raise ValueError(
            f"walk enumeration is limited to {ENUMERATION_MAX_N} vertices and 2n + 2 "
            f"edges; requested n={graph.n}, budget {max_len}"
        )
    if u == v:
        return VertexSet(graph.n, 1 << u)
    adj = _neighbour_sets(graph)
    toll = kind is IntervalKind.TOLL
    mask = 0
    walk = [u]

    def extend() -> None:
        nonlocal mask
        if walk[-1] == v and checker(adj, walk, u, v):
            for x in walk:
                mask |= 1 << x
        if len(walk) > max_len:
            return
        for w in sorted(adj[walk[-1]]):
            if len(walk) > 1 and w in adj[u] and (toll or w != walk[1]):
                continue
            walk.append(w)
            extend()
            walk.pop()

    extend()
    return VertexSet(graph.n, mask)


# -- exact minima by subset search --------------------------------------
#
# The subset searches are shared with ``convexity``; the pair table they
# search over is filled here from ``oracle_interval`` alone.


def _pair_table(graph: Graph) -> PairIntervals:
    wt = IntervalKind.WEAKLY_TOLL
    return PairIntervals(graph.n, wt, lambda u, v: oracle_interval(graph, u, v, wt).mask)


def oracle_wtn(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll number with the lexicographically least witness."""
    require_connected(graph, "weakly toll number")
    require_non_trivial(graph, "weakly toll number")
    return least_covering_set(_pair_table(graph))


def oracle_wth(graph: Graph) -> tuple[int, VertexSet]:
    """Exact weakly toll hull number with the lexicographically least witness."""
    require_connected(graph, "weakly toll hull number")
    require_non_trivial(graph, "weakly toll hull number")
    return least_hull_set(_pair_table(graph))
