import pytest

from wtoll.graphs import (
    Graph,
    VertexSet,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    two_clique_bridge,
)
from wtoll.oracle import witness_lengths


def small_named_graphs() -> list[tuple[str, Graph]]:
    """A fixed zoo of small connected graphs used across test modules."""
    claw = Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])
    paw = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    diamond = Graph.from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    bull = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)])
    return [
        ("P2", path_graph(2)),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("P5", path_graph(5)),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("claw", claw),
        ("paw", paw),
        ("diamond", diamond),
        ("bull", bull),
        ("star4", star_graph(4)),
        ("bridge3", two_clique_bridge(3)),
    ]


def seeded_random_graphs(count: int, sizes=(5, 6, 7, 8), base_seed: int = 7100) -> list[Graph]:
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = (0.25, 0.4, 0.6)[i % 3]
        out.append(random_connected_graph(n, p, base_seed + i))
    return out


def walks_within(graph: Graph, u: int, v: int, kind, budget: int) -> VertexSet:
    """Vertices visited by a qualifying walk from u to v of at most
    ``budget`` edges: the oracle's shortest witness lengths, cut at it."""
    (lengths,) = witness_lengths(graph, [(u, v)], kind)
    return VertexSet(graph.n, sum(1 << x for x, edges in lengths.items() if edges <= budget))


def rechecked(graph: Graph) -> Graph:
    """The graph rebuilt from its masks by the fully checked ``Graph(adj)``,
    which raises if a builder emitted an out-of-range, looped or asymmetric
    mask."""
    return Graph(list(graph.adjacency_masks()))


@pytest.fixture(scope="session")
def graph_zoo():
    return small_named_graphs()
