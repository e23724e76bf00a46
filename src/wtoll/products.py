"""Graph products: lexicographic, Cartesian, strong, corona, generalized corona.

Product vertices carry labels pointing back at factor coordinates.  Pair
products order their vertices row-major over (g, h); coronas list the base
vertices first and then each attached copy in turn, so outputs are stable
and diffable.  None of the constructions assumes commutativity: the second
factor plays a distinguished role in the lexicographic and corona products.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .graphs import Graph, VertexSet


class ProductKind(str, Enum):
    LEXICOGRAPHIC = "lexicographic"
    CARTESIAN = "cartesian"
    STRONG = "strong"
    CORONA = "corona"
    GENERALIZED_CORONA = "generalized-corona"


PAIR_KINDS = frozenset({ProductKind.LEXICOGRAPHIC, ProductKind.CARTESIAN, ProductKind.STRONG})
CORONA_KINDS = frozenset({ProductKind.CORONA, ProductKind.GENERALIZED_CORONA})


class ProductGraph:
    """A constructed product together with its coordinate labelling.

    ``labels[x]`` is ``(g, h)`` for the pair products, and either
    ``("base", i)`` or ``("copy", i, h)`` for the coronas;
    :meth:`label_string` gives their printable form.  The coordinate
    lookups compute positions from the numbering the module describes.
    """

    __slots__ = ("graph", "kind", "factors", "labels")

    def __init__(self, graph: Graph, kind: ProductKind, factors: tuple[Graph, ...], labels: tuple):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("ProductGraph is immutable")

    # -- coordinate lookups ---------------------------------------------

    def pair_index(self, g: int, h: int) -> int:
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"{self.kind.value} product has no (g, h) coordinates")
        self.factors[0]._check_vertex(g)
        self.factors[1]._check_vertex(h)
        return g * self.factors[1].n + h

    def base_index(self, i: int) -> int:
        if self.kind not in CORONA_KINDS:
            raise ValueError(f"{self.kind.value} product has no base vertices")
        self.factors[0]._check_vertex(i)
        return i

    def copy_index(self, i: int, h: int) -> int:
        if self.kind not in CORONA_KINDS:
            raise ValueError(f"{self.kind.value} product has no attached copies")
        self._copy_factor(i)._check_vertex(h)
        if self.kind is ProductKind.CORONA:
            before = i * self.factors[1].n
        else:
            before = sum(copy.n for copy in self.factors[1 : 1 + i])
        return self.factors[0].n + before + h

    def project_first(self, x: int) -> int:
        """Projection onto the first factor (pair products only)."""
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"{self.kind.value} product has no pair projections")
        return self.labels[x][0]

    def project_second(self, x: int) -> int:
        """Projection onto the second factor (pair products only)."""
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"{self.kind.value} product has no pair projections")
        return self.labels[x][1]

    # -- layers -----------------------------------------------------------

    def second_factor_layer(self, g: int) -> VertexSet:
        """The copy of the second factor sitting above the first-factor vertex g."""
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"{self.kind.value} product has no layers")
        m = self.factors[1].n
        return VertexSet.from_iterable(self.graph.n, (self.pair_index(g, h) for h in range(m)))

    def first_factor_layer(self, h: int) -> VertexSet:
        """The copy of the first factor at height h of the second factor."""
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"{self.kind.value} product has no layers")
        return VertexSet.from_iterable(
            self.graph.n, (self.pair_index(g, h) for g in range(self.factors[0].n))
        )

    def copy_set(self, i: int) -> VertexSet:
        """All vertices of the copy attached to base vertex i."""
        if self.kind not in CORONA_KINDS:
            raise ValueError(f"{self.kind.value} product has no attached copies")
        return VertexSet.from_iterable(
            self.graph.n, (self.copy_index(i, h) for h in range(self._copy_factor(i).n))
        )

    def _copy_factor(self, i: int) -> Graph:
        """The graph attached to base vertex i, after checking i."""
        self.factors[0]._check_vertex(i)
        return self.factors[1] if self.kind is ProductKind.CORONA else self.factors[1 + i]

    def label_string(self, x: int) -> str:
        label = self.labels[x]
        if self.kind in PAIR_KINDS:
            return f"({label[0]},{label[1]})"
        if label[0] == "base":
            return f"g_{label[1]}"
        return f"h_{label[2]}^{label[1]}"

    def __repr__(self) -> str:
        return f"ProductGraph({self.kind.value}, n={self.graph.n})"


def _pair_product(g: Graph, h: Graph, kind: ProductKind, across) -> ProductGraph:
    """Vertex (a, b) is a * |V(H)| + b.  It sees N_H(b) in its own layer and
    the mask ``across(b)`` in the layer of each G-neighbour of a; the
    products differ only in ``across``."""
    m = h.n
    own = h.adjacency_masks()
    reach = [across(b) for b in range(m)]
    adj = []
    for a, near in enumerate(g.adjacency_masks()):
        # one bit at the start of each G-neighbour's layer: multiplying an
        # m-bit mask by it copies the mask into every such layer
        layers = sum(1 << c * m for c in range(g.n) if near >> c & 1)
        adj.extend(own[b] << a * m | reach[b] * layers for b in range(m))
    labels = tuple((a, b) for a in range(g.n) for b in range(m))
    return ProductGraph(Graph(adj), kind, (g, h), labels)


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """(g1,h1) ~ (g2,h2) iff g1g2 is an edge, or g1 = g2 and h1h2 is an edge:
    across(b) is all of V(H)."""
    full = (1 << h.n) - 1
    return _pair_product(g, h, ProductKind.LEXICOGRAPHIC, lambda b: full)


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    """(g1,h1) ~ (g2,h2) iff exactly one coordinate moves along an edge:
    across(b) is {b}."""
    return _pair_product(g, h, ProductKind.CARTESIAN, lambda b: 1 << b)


def strong(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian edges plus the diagonal steps where both coordinates move:
    across(b) is N_H[b]."""
    own = h.adjacency_masks()
    return _pair_product(g, h, ProductKind.STRONG, lambda b: own[b] | 1 << b)


def generalized_corona(g: Graph, copies: Sequence[Graph]) -> ProductGraph:
    """One copy per base vertex, each fully joined to its base vertex."""
    if len(copies) != g.n:
        raise ValueError(f"need exactly {g.n} attached graphs, got {len(copies)}")
    labels: list = [("base", i) for i in range(g.n)]
    adj = list(g.adjacency_masks())
    for i, copy in enumerate(copies):
        start = len(adj)
        labels.extend(("copy", i, h) for h in range(copy.n))
        adj[i] |= (1 << copy.n) - 1 << start
        adj.extend(mask << start | 1 << i for mask in copy.adjacency_masks())
    graph = Graph(adj)
    identical = all(copy is copies[0] or copy == copies[0] for copy in copies)
    if identical:
        return ProductGraph(graph, ProductKind.CORONA, (g, copies[0]), tuple(labels))
    return ProductGraph(graph, ProductKind.GENERALIZED_CORONA, (g, *copies), tuple(labels))


def corona(g: Graph, h: Graph) -> ProductGraph:
    """Corona product: |V(G)| copies of H, copy i joined to base vertex i."""
    return generalized_corona(g, [h] * g.n)


_CONSTRUCTORS = {
    ProductKind.LEXICOGRAPHIC: lexicographic,
    ProductKind.CARTESIAN: cartesian,
    ProductKind.STRONG: strong,
    ProductKind.CORONA: corona,
}


def build(kind: ProductKind, g: Graph, h: Graph | Sequence[Graph]) -> ProductGraph:
    kind = ProductKind(kind)
    if kind is ProductKind.GENERALIZED_CORONA:
        if isinstance(h, Graph):
            raise ValueError("generalized corona needs one attached graph per base vertex")
        return generalized_corona(g, list(h))
    if not isinstance(h, Graph):
        raise ValueError(f"{kind.value} product takes a single second factor")
    return _CONSTRUCTORS[kind](g, h)


def to_dot(item: ProductGraph | Graph, name: str = "G") -> str:
    """Undirected DOT text with coordinate labels where available."""
    graph = item.graph if isinstance(item, ProductGraph) else item
    lines = [f"graph {name} {{"]
    for v in range(graph.n):
        label = item.label_string(v) if isinstance(item, ProductGraph) else v
        lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
