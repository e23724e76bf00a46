"""Corpus-driven verification: every closed-form rule against the engines,
and every engine against the walk oracle.

A check is a generator ``rows(spec, rng)`` yielding one row per instance,
``(instance, predicted, observed, ok)`` plus an optional note; ``ok`` is a
bool, or a :class:`Skip` naming the hypothesis the instance fails.  One
runner turns rows into :class:`Verdict` records: it times each row from
resuming the generator (so the corpus build counts in the first row that
needs it), maps ``ok`` to a status and logs each check's start and finish
to the ``wtoll.verify`` logger at INFO.

The product checks are one table, ``_PRODUCT_CHECKS``, of suite, check id
and rows: ``_interval_rows`` or ``_number_rows``, one per observed side,
given a draw and, by name, the count field, the ``closed_forms`` rule and
the ``products`` builder.  Names are looked up when a check runs, so a
tracer that rebinds module attributes sees every call.

Identical specs (seeds included) produce byte-identical reports, and
mismatches never abort a run.  Timings stay out of the reports; they are on
the in-memory verdicts and in the printed summary.
"""

from __future__ import annotations

import functools
import json
import logging
import random
import time
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import closed_forms, convexity, intervals, products
from .convexity import hull, is_convex, wth, wtn
from .graphs import (
    Graph,
    VertexSet,
    _bits,
    encode_graph6,
    path_graph,
    random_connected_graph,
    two_clique_bridge,
)
from .intervals import IntervalKind, pair_intervals, weakly_toll_interval
from .oracle import witness_lengths
from .products import corona, generalized_corona

log = logging.getLogger("wtoll.verify")


class InfeasibleCorpusError(ValueError):
    """Raised instead of silently truncating an oversized corpus request."""


EXHAUSTIVE_LIMIT = 6  # canonical enumeration beyond this is refused


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes, seeds and counts driving the verification corpus."""

    seed: int = 20240817
    exhaustive_max_n: int = 6
    random_graph_count: int = 300
    random_graph_sizes: tuple[int, ...] = (7, 8)
    edge_probabilities: tuple[float, ...] = (0.25, 0.4, 0.6)
    budget_extra: int = 2
    factor_min_n: int = 3
    factor_max_n: int = 5
    lex_interval_instances: int = 200
    corona_interval_instances: int = 200
    lex_pair_count: int = 30
    corona_pair_count: int = 30
    generalized_corona_instances: int = 10
    cartesian_pair_count: int = 20
    strong_pair_count: int = 20
    convexity_chain_max_n: int = 5
    hull_axiom_instances: int = 1000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # every int field but the seed is a count or a size
            if f.name != "seed" and type(f.default) is int and value < 0:
                raise InfeasibleCorpusError(f"{f.name} must be non-negative; requested {value}")
        if self.exhaustive_max_n > EXHAUSTIVE_LIMIT:
            raise InfeasibleCorpusError(
                f"exhaustive enumeration capped at n={EXHAUSTIVE_LIMIT}; "
                f"requested {self.exhaustive_max_n}"
            )
        if self.convexity_chain_max_n > EXHAUSTIVE_LIMIT:
            raise InfeasibleCorpusError(
                f"convexity_chain_max_n enumerates every connected graph, capped at "
                f"n={EXHAUSTIVE_LIMIT}; requested {self.convexity_chain_max_n}"
            )
        if not self.random_graph_sizes or min(self.random_graph_sizes) < 2:
            raise InfeasibleCorpusError("random_graph_sizes needs one or more sizes, each at least 2")
        if max(self.random_graph_sizes) > 10:
            raise InfeasibleCorpusError("oracle cross-checks are limited to 10-vertex graphs")
        if not self.edge_probabilities or not all(0 <= p <= 1 for p in self.edge_probabilities):
            raise InfeasibleCorpusError("edge_probabilities needs one or more values, each in [0, 1]")
        if self.factor_max_n > 7:
            raise InfeasibleCorpusError("factor sampling is limited to 7-vertex graphs")
        if self.factor_max_n < 3:
            # every connected graph on one or two vertices is complete
            raise InfeasibleCorpusError("factor sampling needs factor_max_n >= 3")
        if not 1 <= self.factor_min_n <= self.factor_max_n:
            raise InfeasibleCorpusError("factor_min_n must lie in 1..factor_max_n")

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusSpec":
        """Flat ``key = value`` text; '#' starts a comment; tuples are
        comma-separated.  Each value takes the type of its field's default."""
        values = {}
        defaults = {f.name: f.default for f in fields(cls)}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {raw!r}")
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            default = defaults[key]
            try:
                if isinstance(default, tuple):
                    values[key] = tuple(type(default[0])(tok) for tok in text.split(","))
                else:
                    values[key] = type(default)(text)
            except ValueError:
                raise ValueError(f"bad value for config key {key!r}: {text!r}") from None
        return cls(**values)


@dataclass
class Verdict:
    """One check on one instance: what was predicted, what was observed."""

    check: str
    instance: dict
    predicted: object
    observed: object
    status: str  # "match" | "mismatch" | "skipped"
    reason: str = ""
    note: str = ""
    runtime: float = field(default=0.0, compare=False)

    def to_json(self) -> str:
        payload = {"check": self.check, "instance": self.instance, "predicted": self.predicted,
                   "observed": self.observed, "status": self.status, "reason": self.reason,
                   "note": self.note}
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class Skip:
    """Stands in a row's ``ok`` place when the instance fails a hypothesis."""

    reason: str


def _rng(spec: CorpusSpec, check_id: str) -> random.Random:
    return random.Random(spec.seed * 0x9E3779B1 + zlib.crc32(check_id.encode()))


# -- the runner and the registry ----------------------------------------------

CHECKS: dict = {}  # check id -> callable spec -> list[Verdict]
SUITES: dict[str, list[str]] = {"all": []}


def _run(check_id: str, rows, spec: CorpusSpec) -> list[Verdict]:
    log.info("check %s: start", check_id)
    verdicts = []
    began = start = time.perf_counter()
    for instance, predicted, observed, ok, *note in rows(spec, _rng(spec, check_id)):
        now = time.perf_counter()
        skip = isinstance(ok, Skip)
        status = "skipped" if skip else "match" if ok else "mismatch"
        reason = ok.reason if skip else ""
        verdict = Verdict(check_id, instance, predicted, observed, status, reason, *note)
        verdict.runtime = now - start
        verdicts.append(verdict)
        start = now
    elapsed = time.perf_counter() - began
    log.info("check %s: finish, %d verdicts in %.2fs", check_id, len(verdicts), elapsed)
    return verdicts


def _check(suite: str, check_id: str):
    """Register a rows generator under ``check_id`` in ``suite`` and "all"."""

    def register(rows):
        def run(spec: CorpusSpec) -> list[Verdict]:
            return _run(check_id, rows, spec)

        CHECKS[check_id] = run
        SUITES["all"].append(check_id)
        SUITES.setdefault(suite, []).append(check_id)
        return rows

    return register


def _compare(instance: dict, prediction, observe, note: str = "") -> tuple:
    """Row comparing a closed-form prediction with ``observe()``, which is
    called only when the prediction applies."""
    if not prediction.applicable:
        return instance, None, None, Skip(prediction.reason), note
    observed = observe()
    if prediction.target == "interval":
        predicted = prediction.vertex_set
        return instance, sorted(predicted), sorted(observed), predicted == observed, note
    if prediction.target == "wtn-upper-bound":
        return instance, f"<= {prediction.value}", observed, observed <= prediction.value, note
    return instance, prediction.value, observed, observed == prediction.value, note


# -- exhaustive connected graphs, one per isomorphism class ----------------


def _canonical_edges(adj: list[int]) -> tuple[tuple[int, int], ...]:
    """The lexicographically least sorted edge list over all relabellings.

    For a fixed edge count that list is least exactly when the upper
    triangle of the adjacency matrix, read row by row, is greatest as a bit
    string.  Labels are handed out in order, and the unlabelled vertices
    form an ordered partition into cells holding consecutive labels.  Label
    a goes to a vertex x of the first cell; its row, x's adjacency to the
    labels after a, is greatest with x's neighbours first in every cell, so
    each cell is split that way.  Only the vertices with the greatest row
    are tried, and a branch whose rows fall behind the best complete
    labelling is dropped.  The answer is that of trying all n!
    relabellings, which the tests keep as the reference.
    """
    best_rows, best_order = None, ()

    def search(cells: list[int], rows: tuple[int, ...], order: tuple[int, ...]) -> None:
        nonlocal best_rows, best_order
        if best_rows is not None and rows < best_rows[: len(rows)]:
            return
        if not cells:
            best_rows, best_order = rows, order
            return
        options = []
        for x in _bits(cells[0]):
            rest = cells[0] & ~(1 << x)
            tail = [rest, *cells[1:]] if rest else cells[1:]
            row = 0
            for cell in tail:
                size, near = cell.bit_count(), (adj[x] & cell).bit_count()
                row = row << size | ((1 << near) - 1) << (size - near)
            options.append((row, x, tail))
        top = max(row for row, _, _ in options)
        for row, x, tail in options:
            if row == top:
                split = [part for cell in tail for part in (cell & adj[x], cell & ~adj[x]) if part]
                search(split, rows + (row,), order + (x,))

    search([(1 << len(adj)) - 1], (), ())
    label = {x: i for i, x in enumerate(best_order)}
    edges = ((label[u], label[v]) for u in range(len(adj)) for v in _bits(adj[u]) if u < v)
    return tuple(sorted((min(edge), max(edge)) for edge in edges))


def _vertex_labels(adj: list[int]) -> list[tuple]:
    """Each vertex's degree and sorted neighbour degrees, an isomorphism
    invariant: an isomorphism maps every vertex to one with the same label."""
    degree = [mask.bit_count() for mask in adj]
    return [(degree[v], tuple(sorted(degree[w] for w in _bits(adj[v])))) for v in range(len(adj))]


def _isomorphic(adj_a: list[int], labels_a: list, adj_b: list[int], labels_b: list) -> bool:
    """Whether a label-preserving bijection maps the edges of a onto those
    of b; vertices of a are placed in order, each only on a free vertex of b
    with its label whose adjacency to the placed ones agrees."""
    n = len(adj_a)
    image = [0] * n

    def place(x: int, placed: int, used: int) -> bool:
        if x == n:
            return True
        want = 0
        for p in _bits(adj_a[x] & placed):
            want |= 1 << image[p]
        for y in range(n):
            if not used >> y & 1 and labels_b[y] == labels_a[x] and adj_b[y] & used == want:
                image[x] = y
                if place(x + 1, placed | 1 << x, used | 1 << y):
                    return True
        return False

    return place(0, 0, 0)


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Grown by attaching a new vertex to every nonempty subset of each smaller
    graph (every connected graph has a removable non-cut vertex, so nothing
    is missed).  Candidates are bucketed by edge count and vertex labels and
    tested for isomorphism against the classes already kept in their
    bucket; each new class is stored under its canonical form, the
    lexicographically least relabelled edge list.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > EXHAUSTIVE_LIMIT:
        raise InfeasibleCorpusError(
            f"exhaustive enumeration capped at n={EXHAUSTIVE_LIMIT}; requested {n}"
        )
    return [Graph.from_edge_list(n, edges) for edges in _class_edges(n)]


@functools.cache
def _class_edges(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The canonical edge lists behind ``connected_graphs(n)``, in order."""
    if n == 1:
        return [()]
    seen = []
    kept: dict[tuple, list[tuple[list[int], list]]] = {}
    for smaller in connected_graphs(n - 1):
        for bits in range(1, 1 << (n - 1)):
            adj = [*smaller.adjacency_masks(), bits]
            for v in _bits(bits):
                adj[v] |= 1 << (n - 1)
            labels = _vertex_labels(adj)
            key = (smaller.edge_count + bits.bit_count(), *sorted(labels))
            bucket = kept.setdefault(key, [])
            if any(_isomorphic(adj, labels, *other) for other in bucket):
                continue
            bucket.append((adj, labels))
            seen.append(_canonical_edges(adj))
    return sorted(seen, key=lambda e: (len(e), e))


@functools.cache
def interval_corpus(spec: CorpusSpec) -> list[tuple[dict, Graph]]:
    """The criterion corpus: exhaustive small graphs plus seeded random ones."""
    items: list[tuple[dict, Graph]] = []
    for n in range(2, spec.exhaustive_max_n + 1):
        for g in connected_graphs(n):
            items.append(({"graph6": encode_graph6(g), "source": "exhaustive"}, g))
    sizes = spec.random_graph_sizes
    probs = spec.edge_probabilities
    for i in range(spec.random_graph_count):
        n = sizes[i % len(sizes)]
        p = probs[i % len(probs)]
        seed = spec.seed * 1_000_003 + i
        g = random_connected_graph(n, p, seed)
        items.append(({"graph6": encode_graph6(g), "source": "random", "seed": seed}, g))
    return items


def _sample_factor(rng: random.Random, spec: CorpusSpec, allow_complete: bool = False) -> Graph:
    while True:
        n = rng.randint(spec.factor_min_n, spec.factor_max_n)
        p = rng.choice((0.3, 0.45, 0.6))
        g = random_connected_graph(n, p, rng.randrange(1 << 30))
        if allow_complete or not g.is_complete():
            return g


def _sample_non_adjacent_pair(rng: random.Random, g: Graph) -> tuple[int, int]:
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adjacent(u, v)]
    return rng.choice(pairs)


def _factors(g: Graph, h: Graph) -> dict:
    return {"g": encode_graph6(g), "h": encode_graph6(h)}


# -- engine vs oracle --------------------------------------------------------


def _oracle_rows(check_id: str, kind: IntervalKind):
    """Engine against the exact oracle, each graph checked once for all its
    pairs.  The engine is read through its unchecked body, looked up when
    the check runs.  One pass over each pair's witness lengths gives the
    oracle interval at 2n + budget_extra, which the engine must equal, and
    at 2n, which must agree with it (the claim's "stabilised").  The longest
    minimal witness, relative to 2n, is logged at the end."""

    ordered = kind not in intervals.SYMMETRIC_KINDS

    def rows(spec, rng):
        claim = "engine equals stabilised oracle on every pair"
        longest, at_n = 0, 1
        for descriptor, g in interval_corpus(spec):
            pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u < v or ordered and u != v]
            n, adj, body = g.n, g.adjacency_masks(), intervals._BODIES[kind]
            budget, limit = 2 * n + spec.budget_extra, 2 * n
            failure = None
            for (u, v), lengths in zip(pairs, witness_lengths(g, pairs, kind)):
                oracle = at_2n = edges = 0
                for x, length in lengths.items():
                    if length <= budget:
                        oracle |= 1 << x
                    if length <= limit:
                        at_2n |= 1 << x
                    if length > edges:
                        edges = length
                if edges * at_n > longest * n:
                    longest, at_n = edges, n
                engine = body(adj, n, u, v)
                if engine != oracle or at_2n != oracle:
                    failure = {"pair": [u, v], "engine": list(_bits(engine)),
                               "oracle": list(_bits(oracle)), "oracle_at_2n": list(_bits(at_2n))}
                    break
            yield {**descriptor, "pairs": len(pairs)}, claim, failure or "agreed", not failure
        log.info(
            "check %s: longest minimal witness %d edges at n=%d (%.2f \u00d7 2n)",
            check_id, longest, at_n, longest / (2 * at_n),
        )

    return rows


for _check_id, _kind in (
    ("wt-interval-oracle", IntervalKind.WEAKLY_TOLL),
    ("swt-interval-oracle", IntervalKind.SEMI_WEAKLY_TOLL),
    ("toll-interval-oracle", IntervalKind.TOLL),
):
    _check("intervals", _check_id)(_oracle_rows(_check_id, _kind))


# -- structural lemma checks on the corpus ----------------------------------


def _extension_failures(g: Graph):
    adj = g.adjacency_masks()
    table = pair_intervals(g, IntervalKind.WEAKLY_TOLL)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v):
                continue
            wt = table[u, v]
            interior = wt & ~(1 << u | 1 << v)
            shell = adj[u] | adj[v] | 1 << u | 1 << v
            for x in range(g.n):
                if not (shell | wt) >> x & 1 and adj[x] & interior:
                    yield {"pair": [u, v], "vertex": x, "interval": list(_bits(wt))}


@_check("structure", "neighbor-extension")
def _neighbor_extension(spec, rng):
    claim = "interval absorbs outside vertices touching its interior"
    for descriptor, g in interval_corpus(spec):
        failure = next(_extension_failures(g), None)
        yield descriptor, claim, failure or "holds", not failure


def _predicate_rows(predicate: str, claim: str):
    """Corpus rows for a ``convexity`` predicate, looked up by name."""

    def rows(spec, rng):
        holds_on = getattr(convexity, predicate)
        for descriptor, g in interval_corpus(spec):
            if g.is_complete():
                yield descriptor, claim, None, Skip("complete graph: no non-adjacent pairs")
                continue
            holds = holds_on(g)
            yield descriptor, claim, "holds" if holds else "violated", holds

    return rows


for _check_id, _predicate, _claim in (
    ("max-interval-decomposition", "check_max_interval_decomposition",
     "outside of a maximum interval splits into the two missed neighbourhoods"),
    ("wtn-exceeds-two-criterion", "check_wtn_exceeds_two_criterion",
     "wtn > 2 iff every maximum pair misses a neighbour"),
):
    _check("structure", _check_id)(_predicate_rows(_predicate, _claim))


# -- closed forms vs product engine ------------------------------------------


def _interval_rows(count: str, rule: str, builder: str, draw):
    """The rule against the product's weakly toll interval between the two
    ends, ProductGraph labels, that ``draw(rng, g, h, counter)`` gives with
    the rule's coordinates, the instance fields and a note."""

    def rows(spec, rng):
        predict, build = getattr(closed_forms, rule), getattr(products, builder)
        for counter in range(getattr(spec, count)):
            g, h = _sample_factor(rng, spec), _sample_factor(rng, spec)
            coords, ends, extra, note = draw(rng, g, h, counter)
            product = build(g, h)
            a, b = (product.index(*end) for end in ends)
            observe = lambda: weakly_toll_interval(product.graph, a, b)
            yield _compare({**_factors(g, h), **extra}, predict(g, h, *coords), observe, note)

    return rows


def _number_rows(count: str, rule: str, builder: str, number: str, draw):
    """The rule against ``number`` (wtn or wth) of the product;
    ``draw(rng, spec, counter)`` gives the two factors and the instance
    fields."""

    def rows(spec, rng):
        predict, build = getattr(closed_forms, rule), getattr(products, builder)
        observe = getattr(convexity, number)
        for counter in range(getattr(spec, count)):
            g, h, extra = draw(rng, spec, counter)
            product_number = lambda: observe(build(g, h).graph)[0]
            yield _compare({**_factors(g, h), **extra}, predict(g, h), product_number)

    return rows


def _same_layer(rng, g, h, counter):
    gv, (h1, h2) = rng.randrange(g.n), _sample_non_adjacent_pair(rng, h)
    return (gv, h1, h2), ((gv, h1), (gv, h2)), {"layer": gv, "pair": [h1, h2]}, ""


def _cross_layer(rng, g, h, counter):
    (g1, g2), (h1, h2) = _sample_non_adjacent_pair(rng, g), _sample_non_adjacent_pair(rng, h)
    if rng.random() < 0.5:
        h1, h2 = h2, h1
    return (g1, h1, g2, h2), ((g1, h1), (g2, h2)), {"ends": [[g1, h1], [g2, h2]]}, ""


def _same_copy(rng, g, h, counter):
    i, (h1, h2) = rng.randrange(g.n), _sample_non_adjacent_pair(rng, h)
    return (i, h1, h2), (("copy", i, h1), ("copy", i, h2)), {"copy": i, "pair": [h1, h2]}, ""


def _cross_copies(rng, g, h, counter):
    (i, j), k, l = rng.sample(range(g.n), 2), rng.randrange(h.n), rng.randrange(h.n)
    return (i, k, j, l), (("copy", i, k), ("copy", j, l)), {"ends": [[i, k], [j, l]]}, ""


def _base_pair(rng, g, h, counter):
    i, j = rng.sample(range(g.n), 2)
    note = "adjacent-base-pair" if g.adjacent(i, j) else ""
    return (i, j), (("base", i), ("base", j)), {"bases": [i, j]}, note


def _mixed_pair(rng, g, h, counter):
    i, j = [rng.randrange(g.n)] * 2 if counter % 5 == 0 else rng.sample(range(g.n), 2)
    k = rng.randrange(h.n)
    note = "same-base" if i == j else "adjacent-base-pair" if g.adjacent(i, j) else ""
    return (i, j, k), (("base", i), ("copy", j, k)), {"base": i, "copy": [j, k]}, note


def _pinned(rng, spec, counter):
    """Counters 0 and 1 pin the second factor to P3, then to two joined triangles."""
    g = _sample_factor(rng, spec)
    if counter < 2:
        return g, path_graph(3) if counter == 0 else two_clique_bridge(3), {}
    return g, _sample_factor(rng, spec), {}


def _pinned_wtn(rng, spec, counter):
    g, h, _ = _pinned(rng, spec, counter)
    return g, h, {"wtn_h": wtn(h)[0]}


def _some_complete(rng, spec, counter):
    # the claim also covers complete factors, so allow them sometimes
    g = _sample_factor(rng, spec, allow_complete=counter % 4 == 0)
    return g, _sample_factor(rng, spec, allow_complete=counter % 4 == 1), {}


def _two_factors(rng, spec, counter):
    return _sample_factor(rng, spec), _sample_factor(rng, spec), {}


def _corona_base_restriction(spec, rng):
    """The base-pair interval restricted to base vertices equals the factor
    interval (membership transfers both ways for non-adjacent base pairs)."""
    for _ in range(spec.corona_interval_instances):
        g, h = _sample_factor(rng, spec), _sample_factor(rng, spec)
        i, j = _sample_non_adjacent_pair(rng, g)
        product = corona(g, h)
        inside = sorted(weakly_toll_interval(g, i, j))
        a, b = product.index("base", i), product.index("base", j)
        product_side = weakly_toll_interval(product.graph, a, b)
        restricted = sorted(x for x in range(g.n) if product.index("base", x) in product_side)
        yield {**_factors(g, h), "bases": [i, j]}, inside, restricted, restricted == inside


def _generalized_corona(spec, rng):
    pool = [
        lambda: path_graph(rng.randint(3, 4)),
        lambda: two_clique_bridge(2),
        lambda: Graph.from_edge_list(2, [(0, 1)]),
        lambda: Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)]),
        lambda: _sample_factor(rng, spec),
    ]
    for counter in range(spec.generalized_corona_instances):
        g = _sample_factor(rng, spec)
        if counter == 0:
            # pin one instance on the upper-bound branch: the only
            # non-complete attached graph needs more than two vertices
            copies = [two_clique_bridge(3)] + [
                Graph.from_edge_list(2, [(0, 1)]) for _ in range(g.n - 1)
            ]
        else:
            copies = [pool[rng.randrange(len(pool))]() for _ in range(g.n)]
            if all(c.is_complete() for c in copies):
                copies[0] = path_graph(3)
        prediction = closed_forms.generalized_corona_wtn(g, copies)
        instance = {"g": encode_graph6(g), "copies": [encode_graph6(c) for c in copies]}
        yield _compare(instance, prediction, lambda: wtn(generalized_corona(g, copies).graph)[0])


# suite, check id, rows; the rule and builder names are looked up per run
_PRODUCT_CHECKS = (
    ("lexicographic", "lex-same-layer-interval", _interval_rows(
        "lex_interval_instances", "lex_interval_same_layer", "lexicographic", _same_layer)),
    ("lexicographic", "lex-cross-layer-interval", _interval_rows(
        "lex_interval_instances", "lex_interval_cross_layer", "lexicographic", _cross_layer)),
    ("lexicographic", "lex-wtn-dichotomy",
     _number_rows("lex_pair_count", "lex_wtn", "lexicographic", "wtn", _pinned_wtn)),
    ("lexicographic", "lex-hull-number",
     _number_rows("lex_pair_count", "lex_wth", "lexicographic", "wth", _pinned)),
    ("corona", "corona-same-copy-interval", _interval_rows(
        "corona_interval_instances", "corona_interval_same_copy", "corona", _same_copy)),
    ("corona", "corona-cross-copy-interval", _interval_rows(
        "corona_interval_instances", "corona_interval_cross_copies", "corona", _cross_copies)),
    ("corona", "corona-base-pair-interval", _interval_rows(
        "corona_interval_instances", "corona_interval_base_pair", "corona", _base_pair)),
    ("corona", "corona-mixed-pair-interval", _interval_rows(
        "corona_interval_instances", "corona_interval_mixed", "corona", _mixed_pair)),
    ("corona", "corona-base-restriction", _corona_base_restriction),
    ("corona", "corona-wtn-dichotomy",
     _number_rows("corona_pair_count", "corona_wtn", "corona", "wtn", _pinned_wtn)),
    ("corona", "corona-hull-number",
     _number_rows("corona_pair_count", "corona_wth", "corona", "wth", _pinned)),
    ("corona", "generalized-corona-wtn", _generalized_corona),
    ("cartesian-strong", "cartesian-wtn",
     _number_rows("cartesian_pair_count", "cartesian_wtn", "cartesian", "wtn", _some_complete)),
    ("cartesian-strong", "strong-wtn-bound",
     _number_rows("strong_pair_count", "strong_wtn_bound", "strong", "wtn", _two_factors)),
)
for _suite, _check_id, _rows in _PRODUCT_CHECKS:
    _check(_suite, _check_id)(_rows)


# -- convexity properties ----------------------------------------------------

_CHAIN = (
    IntervalKind.WEAKLY_TOLL,
    IntervalKind.TOLL,
    IntervalKind.MONOPHONIC,
    IntervalKind.GEODESIC,
)


def _chain_failures(g: Graph):
    # kinds on the outside, so each kind's pair table is built once per graph
    subsets = [VertexSet(g.n, bits) for bits in range(1 << g.n)]
    flags = [[is_convex(g, subset, kind) for subset in subsets] for kind in _CHAIN]
    for bits, subset in enumerate(subsets):
        for pos in range(len(_CHAIN) - 1):
            if flags[pos][bits] and not flags[pos + 1][bits]:
                yield {
                    "subset": sorted(subset),
                    "convex_under": _CHAIN[pos].value,
                    "not_convex_under": _CHAIN[pos + 1].value,
                }


@_check("convexity", "convexity-chain")
def _convexity_chain(spec, rng):
    claim = "weakly-toll => toll => monophonic => geodesic convexity"
    for n in range(2, spec.convexity_chain_max_n + 1):
        for g in connected_graphs(n):
            failure = next(_chain_failures(g), None)
            instance = {"graph6": encode_graph6(g), "subsets": 1 << g.n}
            yield instance, claim, failure or "holds", not failure


@_check("convexity", "hull-closure-axioms")
def _hull_axioms(spec, rng):
    kinds = list(IntervalKind)
    for counter in range(spec.hull_axiom_instances):
        n = rng.randint(4, 8)
        g = random_connected_graph(n, rng.choice((0.3, 0.5)), rng.randrange(1 << 30))
        kind = kinds[counter % len(kinds)]
        small = VertexSet.from_iterable(n, rng.sample(range(n), rng.randint(1, n - 1)))
        extra = VertexSet.from_iterable(n, rng.sample(range(n), rng.randint(1, n - 1)))
        big = small | extra
        closed = hull(g, small, kind)
        axioms = {
            "extensive": small <= closed,
            "idempotent": hull(g, closed, kind) == closed,
            "monotone": closed <= hull(g, big, kind),
        }
        ok = all(axioms.values())
        instance = {
            "graph6": encode_graph6(g),
            "kind": kind.value,
            "seed_set": sorted(small),
            "superset": sorted(big),
        }
        yield instance, "extensive, idempotent, monotone", "holds" if ok else axioms, ok


@_check("convexity", "wth-le-wtn")
def _wth_le_wtn(spec, rng):
    for descriptor, g in interval_corpus(spec):
        interval_number = wtn(g)[0]
        hull_number = wth(g)[0]
        predicted = f"wth <= wtn = {interval_number}"
        yield descriptor, predicted, hull_number, hull_number <= interval_number


def run_check(check_id: str, spec: CorpusSpec | None = None) -> list[Verdict]:
    if check_id not in CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    return CHECKS[check_id](spec or CorpusSpec())


def run_suite(name: str, spec: CorpusSpec | None = None) -> list[Verdict]:
    """Run a named suite, or a single check by its id."""
    spec = spec or CorpusSpec()
    if name in SUITES:
        names = SUITES[name]
    elif name in CHECKS:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [verdict for check_id in names for verdict in CHECKS[check_id](spec)]


# -- summaries and report files ----------------------------------------------


_COUNTS = ("total", "matches", "mismatches", "skipped")
_COUNTED_AS = {"match": "matches", "mismatch": "mismatches", "skipped": "skipped"}
_ROW = "{:34} {:>6} {:>6} {:>9} {:>8}"


@dataclass
class Summary:
    total: int
    matches: int
    mismatches: int
    skipped: int
    by_check: dict[str, dict]  # check id -> its count for each name in _COUNTS
    mismatch_verdicts: list[Verdict]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def table(self) -> str:
        lines = [_ROW.format("check", "total", "match", "mismatch", "skipped")]
        lines += [_ROW.format(check_id, *row.values()) for check_id, row in self.by_check.items()]
        totals = (getattr(self, count) for count in _COUNTS)
        lines.append(_ROW.format("TOTAL", *totals) + f"   [{self.elapsed:.1f}s]")
        return "\n".join(lines)


def summarize(verdicts: list[Verdict]) -> Summary:
    by_check: dict[str, dict] = {}
    for verdict in verdicts:
        row = by_check.setdefault(verdict.check, dict.fromkeys(_COUNTS, 0))
        row["total"] += 1
        row[_COUNTED_AS[verdict.status]] += 1
    return Summary(
        **{count: sum(row[count] for row in by_check.values()) for count in _COUNTS},
        by_check=by_check,
        mismatch_verdicts=[v for v in verdicts if v.status == "mismatch"],
        elapsed=sum(v.runtime for v in verdicts),
    )


def write_jsonl(verdicts: list[Verdict], path: str | Path) -> None:
    Path(path).write_text("".join(v.to_json() + "\n" for v in verdicts))


def write_csv(summary: Summary, path: str | Path) -> None:
    lines = [",".join(("check", *_COUNTS))]
    for check_id, row in summary.by_check.items():
        lines.append(",".join(map(str, (check_id, *row.values()))))
    Path(path).write_text("\n".join(lines) + "\n")
