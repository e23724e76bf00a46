"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are always 0..n-1.  Adjacency is one bitmask per vertex, which
keeps neighbourhood and component queries cheap at the sizes this toolkit
targets (factors up to ~10 vertices, products and random graphs up to a few
hundred).  Graphs never change after construction, so each keeps what it
derives (connectivity, pair-interval tables), computed lazily and
idempotently, and graphs stay safe to share across threads.

Every neighbourhood, component and distance layer is swept by one kernel,
``neighbourhood(adj, mask)``, the OR of the members' adjacency masks.  It
has two walks: masks at most 16 bits wide or with at most 4 members go
lowest bit first, and wider, denser ones go a byte at a time through a table of
each byte's set bits, which on dense masks of a few hundred vertices is 2-3
times cheaper.

Masks reach a graph by one of two doors.  ``Graph(adj)`` takes masks from
outside and checks them in full: in range, loop-free and symmetric, the
last by looking up the reverse of every edge.  ``Graph._built(adj)`` skips
those checks and is private to the builders whose masks are valid by
construction: ``from_edge_list`` (which checks each edge and sets both
directions, and through which the parsers and generators go),
``random_connected_graph`` (which sets both directions of every edge it
adds), ``delete_vertices`` (an induced subgraph of a valid graph) and the
product builders ``products._pair_product`` and
``products.generalized_corona`` (which place valid factors' masks and a
symmetric join).  ``tests/test_graphs.py`` pins that list.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined on connected graphs."""


class TrivialGraphError(ValueError):
    """Raised by operations that need at least two vertices."""


class CompleteGraphError(ValueError):
    """Raised by operations that are only defined on non-complete graphs."""


class Graph6FormatError(ValueError):
    """Raised for malformed graph6 input."""


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: The set bit positions of each byte value, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def neighbourhood(adj: Sequence[int], mask: int) -> int:
    """The OR of the adjacency masks of the members of ``mask``.

    A mask at most 16 bits wide or with at most 4 members is walked lowest
    bit first, one ``mask & -mask`` and one ``bit_length`` per member.  A
    wider, denser mask is read as little-endian bytes, and each nonzero
    byte ORs in the rows at its ``_BYTE_BITS`` positions, which costs one
    step per byte and one index per member.  Below the gate the per-byte
    steps cost more than the per-member ones they save.
    """
    near = 0
    if mask < 0x10000 or mask.bit_count() <= 4:
        while mask:
            low = mask & -mask
            near |= adj[low.bit_length() - 1]
            mask ^= low
        return near
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                near |= adj[base + i]
        base += 8
    return near


def component_boundaries(adj: Sequence[int], kept: int) -> list[tuple[int, int]]:
    """Components of the subgraph induced on the ``kept`` bitmask, ordered
    by smallest member, each with its boundary: the vertices outside
    ``kept`` adjacent to it.

    Each component grows from its frontier only, and its boundary is the
    OR of its members' adjacency that this growth reads anyway.
    """
    found = []
    outside = ~kept
    todo = kept
    while todo:
        comp = frontier = todo & -todo
        todo ^= comp
        reach = 0
        while frontier:
            grown = neighbourhood(adj, frontier)
            reach |= grown
            frontier = grown & todo
            todo ^= frontier
            comp |= frontier
        found.append((comp, reach & outside))
    return found


def component_masks(adj: Sequence[int], kept: int) -> list[int]:
    """Component masks of the subgraph induced on the ``kept`` bitmask,
    ordered by smallest member."""
    return [comp for comp, _ in component_boundaries(adj, kept)]


def _is_vertex(v, n: int) -> bool:
    # True and 1.0 equal 1 and hash alike, but only an int is a vertex
    return type(v) is int and 0 <= v < n


def _check_vertex(v, n: int) -> None:
    if not _is_vertex(v, n):
        raise ValueError(f"vertex {v} out of range 0..{n - 1}")


class VertexSet:
    """An immutable subset of the vertices 0..n-1, backed by a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} not within 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def from_iterable(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in vertices:
            _check_vertex(v, n)
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return _is_vertex(v, self.n) and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to different vertex ranges")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.mask & (1 << self.n) - 1)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}} of {self.n})"


class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Construct through :meth:`from_edge_list`, the generators below, or the
    graph6 / edge-list parsers.  Self-loops are rejected, duplicate edges
    collapse, and adjacency is stored symmetrically.  Derived facts are kept
    in ``_derived``, keyed by name or interval kind; equality ignores them.
    """

    __slots__ = ("n", "_adj", "_derived")

    def __init__(self, adj: Sequence[int]):
        n = len(adj)
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"adjacency of {v} mentions vertices >= {n}")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, mask in enumerate(adj):
            for w in _bits(mask):
                if adj[w] >> v & 1 == 0:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        self._store(adj)

    @classmethod
    def _built(cls, adj: Sequence[int]) -> "Graph":
        """A graph on masks that are in range, loop-free and symmetric by
        construction, checking only that there is a vertex.  Only the
        builders the module docstring lists may call it: a mask from
        anywhere else goes through ``Graph(adj)`` or ``from_edge_list``."""
        graph = cls.__new__(cls)
        graph._store(adj)
        return graph

    def _store(self, adj: Sequence[int]) -> None:
        if len(adj) < 1:
            raise ValueError("a graph needs at least one vertex")
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise ValueError(f"self-loop ({u}, {u}) not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._built(adj)

    # -- basic queries -------------------------------------------------

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbour bitmasks, indexed by vertex (shared, do not mutate)."""
        return self._adj

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.n, self._adj[v])

    def closed_neighborhood(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.n, self._adj[v] | 1 << v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def _check_vertex(self, v: int) -> None:
        _check_vertex(v, self.n)

    # -- structure -----------------------------------------------------

    def connected_components(self) -> list[VertexSet]:
        """Components as vertex sets, ordered by smallest member."""
        return [VertexSet(self.n, comp) for comp in component_masks(self._adj, (1 << self.n) - 1)]

    def is_connected(self) -> bool:
        if "connected" not in self._derived:
            self._derived["connected"] = len(component_boundaries(self._adj, (1 << self.n) - 1)) == 1
        return self._derived["connected"]

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def delete_vertices(self, removed: VertexSet | Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the remaining vertices.

        Returns ``(subgraph, kept)`` where ``kept[new_id] == old_id``; the
        inverse map is ``{old: new for new, old in enumerate(kept)}``.
        """
        if not isinstance(removed, VertexSet):
            removed = VertexSet.from_iterable(self.n, removed)
        elif removed.n != self.n:
            raise ValueError("vertex set belongs to a different graph size")
        kept = tuple(v for v in range(self.n) if v not in removed)
        if not kept:
            raise ValueError("cannot delete every vertex")
        index = {old: new for new, old in enumerate(kept)}
        adj = [0] * len(kept)
        for new, old in enumerate(kept):
            for w in _bits(self._adj[old] & ~removed.mask):
                adj[new] |= 1 << index[w]
        return Graph._built(adj), kept

    # -- equality is structural ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- precondition guards ----------------------------------------------


def require_connected(graph: Graph, what: str = "operation") -> None:
    if not graph.is_connected():
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def require_subset(graph: Graph, subset: VertexSet) -> None:
    if subset.n != graph.n:
        raise ValueError("subset belongs to a different vertex range")


def require_non_trivial(graph: Graph, what: str = "operation") -> None:
    if graph.n < 2:
        raise TrivialGraphError(f"{what} requires at least two vertices")


def require_non_complete(graph: Graph, what: str = "operation") -> None:
    if graph.is_complete():
        raise CompleteGraphError(f"{what} requires a non-complete graph")


# -- generators --------------------------------------------------------


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edge_list(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edge_list(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star_graph(k: int) -> Graph:
    """Star with centre 0 and leaves 1..k (so ``star_graph(3)`` is K_{1,3})."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)])


def two_clique_bridge(k: int) -> Graph:
    """Two k-cliques whose first vertices are joined through a middle vertex.

    Vertices: clique A is 0..k-1, clique B is k..2k-1, the middle vertex is
    2k, and the only inter-clique edges are 0--2k and k--2k.
    """
    if k < 1:
        raise ValueError("clique size must be positive")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges += [(0, 2 * k), (k, 2 * k)]
    return Graph.from_edge_list(2 * k + 1, edges)


def random_tree(k: int, seed: int) -> Graph:
    """Uniform-attachment random tree on k vertices, deterministic per seed."""
    if k < 1:
        raise ValueError("tree needs at least one vertex")
    rng = random.Random(seed)
    return Graph.from_edge_list(k, [(rng.randrange(i), i) for i in range(1, k)])


def random_connected_graph(k: int, p: float, seed: int) -> Graph:
    """G(k, p) sample augmented with random inter-component edges until connected."""
    if k < 1:
        raise ValueError("graph needs at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    comps = component_masks(adj, (1 << k) - 1)
    while len(comps) > 1:
        a, b = rng.sample(range(len(comps)), 2)
        u = rng.choice(list(_bits(comps[a])))
        v = rng.choice(list(_bits(comps[b])))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        # merging the later component into the earlier keeps the list
        # ordered by smallest member, as a fresh sweep would give it
        low, high = sorted((a, b))
        comps[low] |= comps.pop(high)
    return Graph._built(adj)


# -- graph6 (nauty's formats.txt, n <= 258047) ---------------------------
#
# A record is N(n) followed by the upper triangle of the adjacency matrix,
# column by column, six bits per byte, each byte offset by 63.  N(n) is the
# byte n + 63 for n <= 62; for 63 <= n <= 258047 it is byte 126 followed by
# n as 18 bits in three such bytes, so n = 63 gives "~??~".  The 36-bit form
# for larger n (two bytes 126) is refused.

_G6_HEADER = ">>graph6<<"
_G6_MAX_N = 258047


def encode_graph6(graph: Graph) -> str:
    """Standard graph6 string (no header, no newline)."""
    n = graph.n
    if n > _G6_MAX_N:
        raise Graph6FormatError(f"graph6 covers at most {_G6_MAX_N} vertices, got {n}")
    adj = graph.adjacency_masks()
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        chars = [chr(63 + n)]
    else:
        chars = ["~"] + [chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)]
    for off in range(0, len(bits), 6):
        group = 0
        for b in bits[off : off + 6]:
            group = group << 1 | b
        chars.append(chr(63 + group))
    return "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 record (optionally with the format header)."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER) :]
    if not data:
        raise Graph6FormatError("empty graph6 record")
    if data[0] == "~":
        if data[1:2] == "~":
            raise Graph6FormatError(f"graph6 beyond {_G6_MAX_N} vertices is not supported")
        size = [ord(ch) - 63 for ch in data[1:4]]
        if len(size) < 3 or not all(0 <= group < 64 for group in size):
            raise Graph6FormatError(f"truncated or malformed graph6 size {data[:4]!r}")
        n = size[0] << 12 | size[1] << 6 | size[2]
        if n < 63:
            raise Graph6FormatError(f"long-form graph6 size {n} is below 63")
        body = data[4:]
    else:
        n = ord(data[0]) - 63
        if not 1 <= n <= 62:
            raise Graph6FormatError(f"unsupported vertex count byte {data[0]!r}")
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6FormatError(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = []
    for ch in body:
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise Graph6FormatError(f"byte {ch!r} outside graph6 alphabet")
        bits.extend(group >> shift & 1 for shift in range(5, -1, -1))
    count = n * (n - 1) // 2
    if any(bits[count:]):
        raise Graph6FormatError("nonzero padding bits")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph.from_edge_list(n, edges)


# -- plain edge-list text ("n m" header then one "u v" line per edge) ----


def encode_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count}"]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


def require_storable(n: int) -> None:
    """Refuse a vertex count beyond the range of both text formats, before
    anything of that size is allocated."""
    if n > _G6_MAX_N:
        raise ValueError(f"{n} vertices: edge lists, like graph6, hold at most {_G6_MAX_N}")


def _int_pair(row: list[str], what: str) -> tuple[int, int]:
    """The two integers of one edge-list line, or an error naming the line.
    A token is ASCII decimal digits with an optional leading ``-``, so a
    negative vertex is refused as out of range; ``int()`` alone would also
    take ``1_0``, ``+1`` and non-ASCII digits."""
    digits = [tok.removeprefix("-") for tok in row]
    try:
        if len(row) == 2 and all(d.isascii() and d.isdigit() for d in digits):
            return int(row[0]), int(row[1])
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"malformed {what} line {' '.join(row)!r}: expected two integers")


def parse_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("edge-list text must start with a 'n m' line")
    n, m = _int_pair(rows[0], "header")
    if n < 0 or m < 0:
        raise ValueError(f"malformed header line {' '.join(rows[0])!r}: negative count")
    require_storable(n)
    if len(rows) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(rows) - 1} lines follow")
    return Graph.from_edge_list(n, [_int_pair(row, "edge") for row in rows[1:]])
