import hashlib
import json
import logging

import pytest

from wtoll.verify import (
    CHECKS,
    SUITES,
    CorpusSpec,
    InfeasibleCorpusError,
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
