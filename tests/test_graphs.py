import ast
import hashlib
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import wtoll
from conftest import rechecked
from wtoll.graphs import (
    Graph,
    Graph6FormatError,
    VertexSet,
    _bits,
    complete_graph,
    component_boundaries,
    component_masks,
    cycle_graph,
    encode_edge_list,
    encode_graph6,
    neighbourhood,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    two_clique_bridge,
)
from wtoll.intervals import IntervalKind, interval, weakly_toll_interval
from wtoll.oracle import witness_lengths
from wtoll.verify import connected_graphs


def test_from_edge_list_basic():
    k2 = Graph.from_edge_list(2, [(0, 1)])
    assert k2.edge_count == 1 and k2.adjacent(0, 1)
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert p4 == path_graph(4)
    claw = Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])
    assert claw.degree(1) == 3
    assert sorted(claw.neighbors(1)) == [0, 2, 3]


def test_from_edge_list_collapses_duplicates():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 0)], [(2, 2)]])
def test_from_edge_list_rejects_bad_edges(edges):
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, edges)


def test_neighborhoods():
    p4 = path_graph(4)
    assert sorted(p4.neighbors(0)) == [1]
    assert sorted(p4.closed_neighborhood(0)) == [0, 1]
    for v in range(4):
        assert (p4.closed_neighborhood(v) - p4.neighbors(v)) == VertexSet.from_iterable(4, [v])
    with pytest.raises(ValueError):
        p4.neighbors(4)


def test_bools_are_not_vertices():
    # True, False and 1.0 equal 1, 0 and 1 and hash alike, but name no vertex
    star = star_graph(3)
    calls = [
        lambda: star.adjacent(False, True),
        lambda: star.adjacent(0, True),
        lambda: weakly_toll_interval(star, True, 2),
        lambda: interval(star, 2, False, IntervalKind.TOLL),
        lambda: witness_lengths(star, [(True, 1)], IntervalKind.TOLL),
        # the int 1 checked first does not let True through
        lambda: witness_lengths(star, [(1, 2), (True, 2)], IntervalKind.WEAKLY_TOLL),
        lambda: VertexSet.from_iterable(4, [True]),
        lambda: VertexSet.from_iterable(4, [0, 1.0]),
        lambda: star.delete_vertices([False]),
        lambda: Graph.from_edge_list(4, [(0, True)]),
        lambda: Graph.from_edge_list(4, [(0, 1.0)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="vertex (True|False|1.0) out of range 0..3"):
            call()
    assert True not in VertexSet(4, 2) and 1.0 not in VertexSet(4, 2) and 1 in VertexSet(4, 2)
    assert star.adjacent(0, 1) and not star.adjacent(1, 2)
    assert sorted(weakly_toll_interval(star, 1, 2)) == [0, 1, 2, 3]
    assert next(witness_lengths(star, [(1, 2)], IntervalKind.TOLL)) == {0: 2, 1: 2, 2: 2}


def test_connectivity_and_completeness():
    assert path_graph(4).is_connected() and not path_graph(4).is_complete()
    assert complete_graph(4).is_connected() and complete_graph(4).is_complete()
    assert complete_graph(1).is_complete()
    two_pieces = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assert not two_pieces.is_connected()
    comps = two_pieces.connected_components()
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3]]


def test_adjacency_masks_are_checked():
    for adj, message in (
        ([2, 1 | 4], "adjacency of 1 mentions vertices >= 2"),
        ([-1, 0], "adjacency of 0 mentions vertices >= 2"),
        ([2, 3], "self-loop at vertex 1"),
        ([2, 0], "asymmetric adjacency between 0 and 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(adj)


def test_a_graph_needs_a_vertex():
    for make in (lambda: Graph([]), lambda: Graph.from_edge_list(0, [])):
        with pytest.raises(ValueError, match="^a graph needs at least one vertex$"):
            make()


def test_builders_emit_masks_the_public_check_accepts():
    rng = random.Random(1500)
    for k in range(1, 13):
        for p in (0.0, 0.15, 0.4, 0.7, 1.0):
            for seed in range(3):
                g = random_connected_graph(k, p, seed)
                assert rechecked(g) == g
                removed = [v for v in range(k) if rng.random() < 0.4][: k - 1]
                sub, _ = g.delete_vertices(removed)
                assert rechecked(sub) == sub
                edges = g.edges()
                mixed = [(v, u) for u, v in edges] + edges[::2]
                rng.shuffle(mixed)
                again = Graph.from_edge_list(k, mixed)
                assert again == g and rechecked(again) == again
    for g in connected_graphs(5):
        decoded = parse_graph6(encode_graph6(g))
        assert decoded == g and rechecked(decoded) == decoded


def _attribute_uses(names: set[str]) -> set[tuple[str, str, str]]:
    """(name, module file, innermost enclosing function) of every attribute,
    bare name or string constant of the package that reads one of ``names``."""
    uses = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            name = None
        if isinstance(name, str) and name in names:
            uses.add((name, module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(wtoll.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return uses


def test_unchecked_constructor_stays_in_the_builders():
    # ``Graph._built`` skips the checks of ``Graph(adj)``; only builders whose
    # masks are valid by construction reach it, so masks from outside (cli,
    # parsers, verify) keep going through ``from_edge_list``'s edge checks or
    # the full check, and the attribute setter is shared by the two doors only
    assert _attribute_uses({"_built", "_store"}) == {
        ("_built", "graphs.py", "from_edge_list"),
        ("_built", "graphs.py", "random_connected_graph"),
        ("_built", "graphs.py", "delete_vertices"),
        ("_built", "products.py", "_pair_product"),
        ("_built", "products.py", "generalized_corona"),
        ("_store", "graphs.py", "__init__"),
        ("_store", "graphs.py", "_built"),
    }


def test_component_boundaries():
    # the path 0-1-2-3-4-5-6 without 2 and 5: components {0, 1}, {3, 4}, {6}
    adj = path_graph(7).adjacency_masks()
    kept = 0b1011011
    assert component_boundaries(adj, kept) == [(0b11, 0b100), (0b11000, 0b100100), (0b1000000, 0b100000)]
    assert component_masks(adj, kept) == [0b11, 0b11000, 0b1000000]
    assert component_boundaries(adj, 0) == []
    assert component_boundaries(adj, 0b1111111) == [(0b1111111, 0)]


def test_neighbourhood_is_the_or_of_its_members_rows():
    # both walks, on either side of the gate at 16 bits and 4 members, on
    # masks whose top member sits on each side of a byte edge
    rng = random.Random(2000)
    for width in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 401):
        rows = [rng.getrandbits(width + 3) for _ in range(width)]
        for count in sorted({min(c, width) for c in (0, 1, 4, 5, 6, width // 2, width)}):
            # the top vertex is a member, so the mask is exactly `width` bits wide
            members = [width - 1] + rng.sample(range(width - 1), count - 1) if count else []
            mask = sum(1 << x for x in members)
            expected = 0
            for x in _bits(mask):
                expected |= rows[x]
            for adj in (tuple(rows), rows):
                assert neighbourhood(adj, mask) == expected, (width, count, type(adj))


def test_delete_vertices():
    claw = star_graph(3)
    sub, kept = claw.delete_vertices([0])
    assert kept == (1, 2, 3) and sub.edge_count == 0
    c5 = cycle_graph(5)
    same, kept = c5.delete_vertices([])
    assert same == c5 and kept == tuple(range(5))
    sub, kept = c5.delete_vertices([0, 2])
    assert kept == (1, 3, 4)
    assert [sorted(c) for c in sub.connected_components()] == [[0], [1, 2]]


def test_generator_edge_counts():
    for k in range(1, 8):
        assert path_graph(k).edge_count == k - 1
        assert complete_graph(k).edge_count == k * (k - 1) // 2
    for k in range(3, 8):
        assert cycle_graph(k).edge_count == k
    assert star_graph(3) == Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


def test_two_clique_bridge():
    g = two_clique_bridge(3)
    assert g.n == 7 and g.edge_count == 8
    assert g.adjacent(0, 6) and g.adjacent(3, 6)
    assert not g.adjacent(0, 3)
    assert g.is_connected()


def test_random_tree_is_a_tree():
    for seed in range(10):
        k = 3 + seed
        tree = random_tree(k, seed)
        assert tree.is_connected() and tree.edge_count == k - 1


def test_random_connected_graph_deterministic():
    a = random_connected_graph(8, 0.3, 11)
    b = random_connected_graph(8, 0.3, 11)
    assert a == b and a.is_connected()
    assert random_connected_graph(8, 0.0, 5).is_connected()


def test_random_connected_graph_pinned():
    # 738 (k, p, seed) triples, edgeless samples included; the benchmark and
    # other tests draw their graphs from this generator, so its output is pinned
    text = "".join(
        encode_edge_list(random_connected_graph(k, p, seed))
        for k in [*range(1, 41), 120]
        for p in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0)
        for seed in (1, 2, 3)
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3cd3821b1d5f957a69f8e6975c9409aa353dad1ba11435b72fbd81e28f6818f4"


# -- graph6 --------------------------------------------------------------

# reference strings derived by hand from the format description and
# cross-checked against an independent encoder before this codec existed
REFERENCE_G6 = [
    ("Dhc", cycle_graph(5)),
    ("Ch", path_graph(4)),
    ("C~", complete_graph(4)),
    ("D~{", complete_graph(5)),
    ("Cs", star_graph(3)),
]


@pytest.mark.parametrize("text,expected", REFERENCE_G6)
def test_graph6_reference_strings(text, expected):
    assert parse_graph6(text) == expected
    assert encode_graph6(expected) == text


def test_graph6_round_trip(graph_zoo):
    for _, g in graph_zoo:
        assert parse_graph6(encode_graph6(g)) == g
    for seed in range(20):
        g = random_connected_graph(4 + seed % 9, 0.4, seed)
        assert parse_graph6(encode_graph6(g)) == g
    big = random_connected_graph(62, 0.1, 3)  # the short-form size limit
    assert parse_graph6(encode_graph6(big)) == big


def test_graph6_header_and_whitespace():
    assert parse_graph6(">>graph6<<Dhc\n") == cycle_graph(5)


@pytest.mark.parametrize("bad", ["", "D", "Dhcc", "Dh", chr(62) + "hc"])
def test_graph6_malformed(bad):
    with pytest.raises(Graph6FormatError):
        parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    good = encode_graph6(path_graph(3))
    group = ord(good[-1]) - 63
    bad = good[:-1] + chr(63 + (group | 1))
    assert bad != good
    with pytest.raises(Graph6FormatError):
        parse_graph6(bad)


def test_graph6_long_form():
    # nauty's N(n) for 63 <= n <= 258047: byte 126, then n as three 6-bit bytes
    assert encode_graph6(path_graph(63)).startswith("~??~")
    for n in (63, 64, 100):
        g = random_connected_graph(n, 0.1, n)
        assert encode_graph6(g)[0] == "~"
        assert parse_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize("bad", ["~", "~??", "~~??????", "~???", "~??}", "~??~?"])
def test_graph6_malformed_long_form(bad):
    with pytest.raises(Graph6FormatError):
        parse_graph6(bad)


def test_graph6_size_limit():
    with pytest.raises(Graph6FormatError, match="at most 258047"):
        # the size is checked first, so a stand-in with a vertex count will do
        encode_graph6(SimpleNamespace(n=258048))


# -- edge-list text --------------------------------------------------------


def test_edge_list_round_trip(graph_zoo):
    for _, g in graph_zoo:
        assert parse_edge_list(encode_edge_list(g)) == g


def test_edge_list_text_format():
    assert encode_edge_list(path_graph(3)) == "3 2\n0 1\n1 2\n"
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
    # a token that is not an integer is refused with its line, not by int()
    for text, line in [("3 1\n0 x\n", "edge line '0 x'"), ("3 1\n0 1.5\n", "edge line '0 1.5'"),
                       ("3 x\n", "header line '3 x'"), ("3 1\n0 1 2\n", "edge line '0 1 2'")]:
        with pytest.raises(ValueError, match=f"^malformed {line}: expected two integers$"):
            parse_edge_list(text)
    # only ASCII decimal tokens with at most one leading '-'; int() takes the first four
    for token in ("1_0", "+1", "\u0661", "1\u0660", "--1", "-"):
        line = re.escape(f"edge line '0 {token}'")
        with pytest.raises(ValueError, match=f"^malformed {line}: expected two integers$"):
            parse_edge_list(f"3 1\n0 {token}\n")
    with pytest.raises(ValueError, match="^malformed header line '\u0663 0': expected two integers$"):
        parse_edge_list("\u0663 0\n")
    with pytest.raises(ValueError, match="^malformed header line '1+ 0': expected two integers$"):
        parse_edge_list("1" * 5000 + " 0\n")  # beyond int()'s digit limit
    # a leading '-' is read, so a negative vertex is refused as out of range
    with pytest.raises(ValueError, match="^vertex -1 out of range 0..2$"):
        parse_edge_list("3 1\n0 -1\n")
    assert parse_edge_list("3 2\n00 01\n1 2\n") == path_graph(3)


def test_edge_list_header_shares_the_graph6_range():
    # refused on the header alone, before an adjacency list is allocated
    with pytest.raises(ValueError, match="^258048 vertices: edge lists, like graph6, hold at most 258047$"):
        parse_edge_list("258048 0\n")


# -- vertex sets ------------------------------------------------------------


def test_vertex_set_operations():
    a = VertexSet.from_iterable(5, [0, 2])
    b = VertexSet.from_iterable(5, [2, 3])
    assert sorted(a | b) == [0, 2, 3]
    assert sorted(a & b) == [2]
    assert sorted(a - b) == [0]
    assert sorted(a.complement()) == [1, 3, 4]
    assert a <= VertexSet.full(5) and len(a) == 2 and 2 in a and 4 not in a
    assert VertexSet.from_iterable(5, []).isdisjoint(a)
    with pytest.raises(ValueError):
        VertexSet.from_iterable(3, [3])
    with pytest.raises(ValueError):
        a | VertexSet.full(4)
