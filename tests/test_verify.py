import hashlib
import itertools
import json
import logging
import re
from fractions import Fraction

import pytest

from conftest import seeded_random_graphs, walks_within
from wtoll.graphs import complete_graph, cycle_graph, encode_graph6, path_graph, two_clique_bridge
from wtoll.intervals import IntervalKind
from wtoll import intervals, verify
from wtoll.oracle import witness_lengths
from wtoll.verify import (
    CHECKS,
    SUITES,
    CorpusSpec,
    InfeasibleCorpusError,
    _canonical_edges,
    connected_graphs,
    interval_corpus,
    run_check,
    run_suite,
    summarize,
    write_csv,
    write_jsonl,
)

# a deliberately small spec so the harness itself can be tested quickly
TINY = CorpusSpec(
    seed=99,
    exhaustive_max_n=4,
    random_graph_count=6,
    random_graph_sizes=(5,),
    lex_interval_instances=6,
    corona_interval_instances=6,
    lex_pair_count=3,
    corona_pair_count=3,
    generalized_corona_instances=3,
    cartesian_pair_count=3,
    strong_pair_count=3,
    convexity_chain_max_n=4,
    hull_axiom_instances=10,
    factor_min_n=3,
    factor_max_n=4,
)

ALL_CHECKS = [
    "wt-interval-oracle",
    "swt-interval-oracle",
    "toll-interval-oracle",
    "neighbor-extension",
    "max-interval-decomposition",
    "wtn-exceeds-two-criterion",
    "lex-same-layer-interval",
    "lex-cross-layer-interval",
    "lex-wtn-dichotomy",
    "lex-hull-number",
    "corona-same-copy-interval",
    "corona-cross-copy-interval",
    "corona-base-pair-interval",
    "corona-mixed-pair-interval",
    "corona-base-restriction",
    "corona-wtn-dichotomy",
    "corona-hull-number",
    "generalized-corona-wtn",
    "cartesian-wtn",
    "strong-wtn-bound",
    "convexity-chain",
    "hull-closure-axioms",
    "wth-le-wtn",
]


def test_connected_graph_counts():
    # connected graphs per isomorphism class: 1, 1, 2, 6, 21, 112
    assert [len(connected_graphs(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]
    assert len(connected_graphs(6)) == 112
    assert all(g.is_connected() for g in connected_graphs(5))


def _brute_canonical_edges(n, edges):
    """The definition: the least sorted edge list over all n! relabellings."""
    return min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )


def _reference_connected(n):
    """Every candidate through the brute-force canonical form, de-duplicated
    and sorted by edge count, then edge list."""
    if n == 1:
        return [()]
    seen = set()
    for smaller in _reference_connected(n - 1):
        for bits in range(1, 1 << (n - 1)):
            edges = set(smaller) | {(v, n - 1) for v in range(n - 1) if bits >> v & 1}
            seen.add(_brute_canonical_edges(n, edges))
    return sorted(seen, key=lambda e: (len(e), e))


def test_connected_graphs_equal_brute_force_reference():
    for n in range(1, 6):
        assert [tuple(g.edges()) for g in connected_graphs(n)] == _reference_connected(n)
    listing = "\n".join(encode_graph6(g) for g in connected_graphs(6))
    digest = hashlib.sha256(listing.encode()).hexdigest()
    assert digest == "b58589a39cf4662f74ed6bb7318a3915fcaa58b17b6780c194198475f08f00d9"


def test_canonical_edges_equal_brute_force():
    graphs = []
    for n in range(1, 6):  # every labelled graph, connected or not
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            graphs.append((n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    symmetric = [complete_graph(6), cycle_graph(6), cycle_graph(7)]
    for g in symmetric + seeded_random_graphs(12, sizes=(6, 6, 7), base_seed=5150):
        graphs.append((g.n, g.edges()))
    for n, edges in graphs:
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert _canonical_edges(adj) == _brute_canonical_edges(n, edges), (n, edges)


def test_connected_graphs_refuses_large_n():
    with pytest.raises(InfeasibleCorpusError):
        connected_graphs(9)


def test_corpus_spec_guards():
    with pytest.raises(InfeasibleCorpusError):
        CorpusSpec(exhaustive_max_n=8)
    with pytest.raises(InfeasibleCorpusError):
        CorpusSpec(random_graph_sizes=(12,))
    # every connected factor on at most two vertices is complete, so
    # sampling a non-complete one would never end
    with pytest.raises(InfeasibleCorpusError):
        CorpusSpec(factor_min_n=2, factor_max_n=2)
    with pytest.raises(InfeasibleCorpusError):
        CorpusSpec(factor_min_n=5, factor_max_n=4)
    with pytest.raises(InfeasibleCorpusError):
        CorpusSpec(factor_min_n=0)
    # refused when built, not seconds into a run
    with pytest.raises(InfeasibleCorpusError, match="^convexity_chain_max_n .* capped at n=6; requested 7$"):
        CorpusSpec(convexity_chain_max_n=7)
    for sizes in ((0,), (1, 5), ()):
        with pytest.raises(InfeasibleCorpusError, match="^random_graph_sizes "):
            CorpusSpec(random_graph_sizes=sizes)
    for probabilities in ((1.5,), (0.3, -0.1), ()):
        with pytest.raises(InfeasibleCorpusError, match="^edge_probabilities "):
            CorpusSpec(edge_probabilities=probabilities)
    CorpusSpec(convexity_chain_max_n=6, random_graph_sizes=(2, 10), edge_probabilities=(0.0, 1.0))
    # no count or size may be negative; zero stays accepted
    negatives = {"random_graph_count": -3, "lex_pair_count": -2, "hull_axiom_instances": -1,
                 "exhaustive_max_n": -4, "budget_extra": -1, "factor_min_n": -1}
    for name, value in negatives.items():
        with pytest.raises(InfeasibleCorpusError, match=f"^{name} must be non-negative; requested {value}$"):
            CorpusSpec(**{name: value})
    CorpusSpec(random_graph_count=0, lex_pair_count=0, hull_axiom_instances=0, budget_extra=0)


def test_interval_corpus_composition():
    corpus = interval_corpus(TINY)
    exhaustive = [g for d, g in corpus if d["source"] == "exhaustive"]
    randoms = [d for d, _ in corpus if d["source"] == "random"]
    assert len(exhaustive) == 1 + 2 + 6
    assert len(randoms) == 6
    assert all("seed" in d for d in randoms)


def test_run_check_unknown():
    with pytest.raises(ValueError):
        run_check("no-such-check", TINY)
    with pytest.raises(ValueError):
        run_suite("no-such-suite", TINY)


def test_every_check_passes_on_tiny_spec():
    for check_id in CHECKS:
        verdicts = run_check(check_id, TINY)
        assert verdicts, check_id
        bad = [v for v in verdicts if v.status == "mismatch"]
        assert not bad, (check_id, bad[:1])


def test_determinism_and_jsonl_round_trip(tmp_path):
    first = run_suite("structure", TINY)
    second = run_suite("structure", TINY)
    assert [v.to_json() for v in first] == [v.to_json() for v in second]

    target = tmp_path / "report.jsonl"
    write_jsonl(first, target)
    write_jsonl(second, tmp_path / "again.jsonl")
    assert target.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    lines = target.read_text().splitlines()
    assert len(lines) == len(first)
    parsed = json.loads(lines[0])
    assert parsed["check"] == first[0].check
    assert "runtime" not in parsed  # timings stay out of the reproducible report


def test_summary_and_csv(tmp_path):
    verdicts = run_suite("cartesian-strong", TINY)
    summary = summarize(verdicts)
    assert summary.total == len(verdicts)
    assert summary.ok
    assert summary.matches + summary.mismatches + summary.skipped == summary.total
    write_csv(summary, tmp_path / "summary.csv")
    text = (tmp_path / "summary.csv").read_text()
    assert text.startswith("check,total,matches,mismatches,skipped")
    assert "cartesian-wtn" in text

    empty = summarize([])
    assert empty.total == 0 and empty.ok


TINY_TABLE = """\
check                               total  match  mismatch  skipped
wt-interval-oracle                     15     15         0        0
swt-interval-oracle                    15     15         0        0
toll-interval-oracle                   15     15         0        0
neighbor-extension                     15     15         0        0
max-interval-decomposition             15     12         0        3
wtn-exceeds-two-criterion              15     12         0        3
lex-same-layer-interval                 6      6         0        0
lex-cross-layer-interval                6      6         0        0
lex-wtn-dichotomy                       3      3         0        0
lex-hull-number                         3      2         1        0
corona-same-copy-interval               6      6         0        0
corona-cross-copy-interval              6      6         0        0
corona-base-pair-interval               6      6         0        0
corona-mixed-pair-interval              6      6         0        0
corona-base-restriction                 6      6         0        0
corona-wtn-dichotomy                    3      3         0        0
corona-hull-number                      3      3         0        0
generalized-corona-wtn                  3      3         0        0
cartesian-wtn                           3      3         0        0
strong-wtn-bound                        3      3         0        0
convexity-chain                         9      9         0        0
hull-closure-axioms                    10     10         0        0
wth-le-wtn                             15     15         0        0
TOTAL                                 187    180         1        6   [\u2026s]"""

TINY_CSV = """\
check,total,matches,mismatches,skipped
wt-interval-oracle,15,15,0,0
swt-interval-oracle,15,15,0,0
toll-interval-oracle,15,15,0,0
neighbor-extension,15,15,0,0
max-interval-decomposition,15,12,0,3
wtn-exceeds-two-criterion,15,12,0,3
lex-same-layer-interval,6,6,0,0
lex-cross-layer-interval,6,6,0,0
lex-wtn-dichotomy,3,3,0,0
lex-hull-number,3,2,1,0
corona-same-copy-interval,6,6,0,0
corona-cross-copy-interval,6,6,0,0
corona-base-pair-interval,6,6,0,0
corona-mixed-pair-interval,6,6,0,0
corona-base-restriction,6,6,0,0
corona-wtn-dichotomy,3,3,0,0
corona-hull-number,3,3,0,0
generalized-corona-wtn,3,3,0,0
cartesian-wtn,3,3,0,0
strong-wtn-bound,3,3,0,0
convexity-chain,9,9,0,0
hull-closure-axioms,10,10,0,0
wth-le-wtn,15,15,0,0
"""


def test_summary_table_and_csv_bytes_are_pinned(tmp_path):
    verdicts = run_suite("all", TINY)
    forced = next(v for v in verdicts if v.check == "lex-hull-number")
    forced.status = "mismatch"
    summary = summarize(verdicts)
    assert summary.mismatch_verdicts == [forced]
    assert re.sub(r"\[\d+\.\ds\]$", "[\u2026s]", summary.table()) == TINY_TABLE
    write_csv(summary, tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == TINY_CSV.encode()


def test_mismatch_detection_signal():
    # forge a mismatch to make sure summaries flag it
    verdicts = run_check("cartesian-wtn", TINY)
    verdicts[0].status = "mismatch"
    summary = summarize(verdicts)
    assert not summary.ok and summary.mismatch_verdicts


def test_suites_cover_all_checks():
    assert sorted(SUITES["all"]) == sorted(CHECKS)
    covered = set()
    for name, ids in SUITES.items():
        if name != "all":
            covered.update(ids)
    assert covered == set(CHECKS)


def test_suite_order_is_pinned():
    assert SUITES["all"] == ALL_CHECKS


def test_tiny_report_bytes_are_pinned(tmp_path):
    verdicts = run_suite("all", TINY)
    write_jsonl(verdicts, tmp_path / "report.jsonl")
    digest = hashlib.sha256((tmp_path / "report.jsonl").read_bytes()).hexdigest()
    assert len(verdicts) == 187
    assert digest == "3ce823487cb0f925ec0f0855f36f2e387836fafb7d6fc25ad8a42b5cd9d45548"


def test_runner_logs_start_and_finish(caplog):
    caplog.set_level(logging.INFO, logger="wtoll.verify")
    verdicts = run_check("cartesian-wtn", TINY)
    messages = [r.getMessage() for r in caplog.records if r.name == "wtoll.verify"]
    assert messages[0] == "check cartesian-wtn: start"
    assert messages[-1].startswith(f"check cartesian-wtn: finish, {len(verdicts)} verdicts")
    assert len(messages) == 2


def test_single_check_as_suite():
    verdicts = run_suite("corona-wtn-dichotomy", TINY)
    assert all(v.check == "corona-wtn-dichotomy" for v in verdicts)


def test_spec_from_file(tmp_path):
    config = tmp_path / "corpus.cfg"
    config.write_text(
        "# comment\n"
        "seed = 5\n"
        "random_graph_count = 4\n"
        "random_graph_sizes = 5, 6\n"
        "edge_probabilities = 0.3, 0.5\n"
    )
    spec = CorpusSpec.from_file(config)
    assert spec.seed == 5
    assert spec.random_graph_sizes == (5, 6)
    assert spec.edge_probabilities == (0.3, 0.5)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 3\n")
    with pytest.raises(ValueError):
        CorpusSpec.from_file(bad)
    for text in ("lex_pair_count = 2.5\n", "edge_probabilities = 0.3, x\n"):
        bad.write_text(text)
        key = text.split()[0]
        with pytest.raises(ValueError, match=key):
            CorpusSpec.from_file(bad)


def test_adjacent_base_pairs_are_flagged():
    verdicts = run_check("corona-mixed-pair-interval", CorpusSpec(
        seed=7,
        corona_interval_instances=40,
        factor_min_n=3,
        factor_max_n=4,
        random_graph_count=0,
        exhaustive_max_n=2,
    ))
    notes = {v.note for v in verdicts}
    assert "adjacent-base-pair" in notes and "same-base" in notes
    assert all(v.status == "match" for v in verdicts)


@pytest.mark.parametrize("check_id", ["lex-wtn-dichotomy", "lex-hull-number",
                                      "corona-wtn-dichotomy", "corona-hull-number"])
def test_pair_counts_bound_the_verdicts(check_id):
    # the two pinned second factors take the first two counters
    field = "lex_pair_count" if check_id.startswith("lex") else "corona_pair_count"
    pins = [encode_graph6(path_graph(3)), encode_graph6(two_clique_bridge(3))]
    for count in (0, 1, 2):
        verdicts = run_check(check_id, CorpusSpec(**{field: count}))
        assert [v.instance["h"] for v in verdicts] == pins[:count]


def test_default_report_bytes_are_pinned(tmp_path):
    verdicts = run_suite("all", CorpusSpec())
    write_jsonl(verdicts, tmp_path / "report.jsonl")
    digest = hashlib.sha256((tmp_path / "report.jsonl").read_bytes()).hexdigest()
    summary = summarize(verdicts)
    assert (summary.total, summary.mismatches, summary.skipped) == (5694, 0, 10)
    assert digest == "34e66ae595c9a61fd2343a8474dd7d4a85eb48a17a978bf1c7b5fac16d818a8d"


def test_oracle_checks_log_the_witness_margin(caplog):
    caplog.set_level(logging.INFO, logger="wtoll.verify")
    margin = re.compile(
        r"check (\S+): longest minimal witness (\d+) edges at n=(\d+) \((\d\.\d\d) \u00d7 2n\)"
    )
    logged = {}
    for check_id in ("wt-interval-oracle", "swt-interval-oracle", "toll-interval-oracle"):
        run_check(check_id, TINY)
        lines = [r.getMessage() for r in caplog.records if "longest" in r.getMessage()]
        match = margin.fullmatch(lines[-1])
        assert match and match[1] == check_id, lines
        edges, n = int(match[2]), int(match[3])
        assert match[4] == f"{edges / (2 * n):.2f}"
        logged[check_id] = Fraction(edges, 2 * n)
    assert len([r for r in caplog.records if "longest" in r.getMessage()]) == 3

    # the weakly toll margin again, from budgets that grow until each vertex
    # joins the oracle interval
    longest = Fraction(0)
    for _, g in interval_corpus(TINY):
        for u, v in itertools.combinations(range(g.n), 2):
            first_in = {}
            for budget in range(1, 2 * g.n + TINY.budget_extra + 1):
                for x in walks_within(g, u, v, IntervalKind.WEAKLY_TOLL, budget):
                    first_in.setdefault(x, budget)
            longest = max(longest, Fraction(max(first_in.values()), 2 * g.n))
    assert logged["wt-interval-oracle"] == longest


def test_witness_margin_is_relative_to_2n(caplog):
    # an 8-vertex graph here has a 6-edge minimal witness (6/16 of 2n), but a
    # 4-vertex path's 4 edges are the larger share of its 2n
    spec = CorpusSpec(exhaustive_max_n=4, random_graph_count=6, random_graph_sizes=(8,),
                      edge_probabilities=(0.6,))
    kind = IntervalKind.WEAKLY_TOLL
    eights = [g for _, g in interval_corpus(spec) if g.n == 8]
    assert max(
        max(lengths.values())
        for g in eights
        for lengths in witness_lengths(g, itertools.combinations(range(8), 2), kind)
    ) == 6
    caplog.set_level(logging.INFO, logger="wtoll.verify")
    run_check("wt-interval-oracle", spec)
    assert [r.getMessage() for r in caplog.records if "longest" in r.getMessage()] == [
        "check wt-interval-oracle: longest minimal witness 4 edges at n=4 (0.50 \u00d7 2n)"
    ]


def test_oracle_check_flags_witnesses_beyond_2n(monkeypatch):
    # every vertex's witness stretched to 2n + shift: the masks at 2n + 2
    # and at 2n agree for shift 0 and differ for shift 1
    spec = CorpusSpec(exhaustive_max_n=3, random_graph_count=0)
    found = verify.witness_lengths
    for shift, status in ((0, "match"), (1, "mismatch")):
        def stretched(g, pairs, kind, shift=shift):
            for lengths in found(g, pairs, kind):
                yield {x: 2 * g.n + shift for x in lengths}

        monkeypatch.setattr(verify, "witness_lengths", stretched)
        for check_id in ("wt-interval-oracle", "swt-interval-oracle", "toll-interval-oracle"):
            verdicts = run_check(check_id, spec)
            assert {v.status for v in verdicts} == {status}, check_id
    payload = verdicts[0].observed
    assert payload == {"pair": [0, 1], "engine": [0, 1], "oracle": [0, 1], "oracle_at_2n": []}
    assert all(type(x) is int for members in payload.values() for x in members)


@pytest.mark.parametrize("check_id, kind, swapped", [
    ("wt-interval-oracle", IntervalKind.WEAKLY_TOLL, "_toll"),
    ("swt-interval-oracle", IntervalKind.SEMI_WEAKLY_TOLL, "_weakly_toll"),
    ("toll-interval-oracle", IntervalKind.TOLL, "_weakly_toll"),
])
def test_oracle_checks_read_the_engine_bodies(monkeypatch, check_id, kind, swapped):
    # the checks call the engine bodies, not ``interval()``: a wrong body in
    # ``intervals._BODIES`` must show as mismatches
    monkeypatch.setitem(intervals._BODIES, kind, getattr(intervals, swapped))
    statuses = [v.status for v in run_check(check_id, TINY)]
    assert "mismatch" in statuses, check_id
