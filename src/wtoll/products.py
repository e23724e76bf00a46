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

from .graphs import Graph


class ProductKind(str, Enum):
    LEXICOGRAPHIC = "lexicographic"
    CARTESIAN = "cartesian"
    STRONG = "strong"
    CORONA = "corona"
    GENERALIZED_CORONA = "generalized-corona"


class ProductGraph:
    """A constructed product together with its coordinate labelling.

    ``labels[x]`` names vertex x by its coordinates: ``(g, h)`` for the pair
    products, and either ``("base", i)`` or ``("copy", i, h)`` for the
    coronas.  :meth:`index` looks a label up and :meth:`label_string` gives
    its printable form; layers, copies and projections are read off
    ``labels``.
    """

    __slots__ = ("graph", "kind", "factors", "labels")

    def __init__(self, graph: Graph, kind: ProductKind, factors: tuple[Graph, ...], labels: tuple):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("ProductGraph is immutable")

    def index(self, *label: int | str) -> int:
        """The vertex labelled ``label``: ``index(g, h)``, ``index("base", i)``
        or ``index("copy", i, h)``."""
        # True and 1.0 equal 1, but only an int is a coordinate
        if all(type(c) in (int, str) for c in label) and label in self.labels:
            return self.labels.index(label)
        raise ValueError(f"{self.kind.value} product has no vertex labelled {label!r}")

    def label_string(self, x: int) -> str:
        match self.labels[x]:
            case ("base", i):
                return f"g_{i}"
            case ("copy", i, h):
                return f"h_{h}^{i}"
            case (g, h):
                return f"({g},{h})"

    def __repr__(self) -> str:
        return f"ProductGraph({self.kind.value}, n={self.graph.n})"


def _pair_product(g: Graph, h: Graph, kind: ProductKind, across) -> ProductGraph:
    """Vertex (a, b) is a * |V(H)| + b.  It sees N_H(b) in its own layer and
    the mask ``across(b)`` in the layer of each G-neighbour of a; the
    products differ only in ``across``.

    ``across`` must be a symmetric relation on V(H): b' is in ``across(b)``
    iff b is in ``across(b')``.  With that and valid factors the masks are
    symmetric, loop-free and in range by construction, so the graph is
    built without the symmetry walk of ``Graph(adj)``, and an asymmetric
    ``across`` would go unnoticed."""
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
    return ProductGraph(Graph._built(adj), kind, (g, h), labels)


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
    """One copy per base vertex, each fully joined to its base vertex.  The
    base and copy masks come from valid graphs and the join sets both
    directions, so the graph is built without re-checking them."""
    if len(copies) != g.n:
        raise ValueError(f"need exactly {g.n} attached graphs, got {len(copies)}")
    labels: list = [("base", i) for i in range(g.n)]
    adj = list(g.adjacency_masks())
    for i, copy in enumerate(copies):
        start = len(adj)
        labels.extend(("copy", i, h) for h in range(copy.n))
        adj[i] |= (1 << copy.n) - 1 << start
        adj.extend(mask << start | 1 << i for mask in copy.adjacency_masks())
    graph = Graph._built(adj)
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
