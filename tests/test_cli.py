import json
import logging

import pytest

from wtoll import cli
from wtoll.cli import load_graph, main
from wtoll.graphs import Graph, cycle_graph, encode_edge_list, encode_graph6, path_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_graph_sources(tmp_path):
    assert load_graph("path:4") == path_graph(4)
    assert load_graph("g6:Dhc") == cycle_graph(5)
    g6_file = tmp_path / "c5.g6"
    g6_file.write_text(encode_graph6(cycle_graph(5)) + "\n")
    assert load_graph(str(g6_file)) == cycle_graph(5)
    el_file = tmp_path / "p4.txt"
    el_file.write_text(encode_edge_list(path_graph(4)))
    assert load_graph(str(el_file)) == path_graph(4)
    with pytest.raises(ValueError):
        load_graph("no-such-thing")
    with pytest.raises(ValueError):
        load_graph("path:")


def test_interval_command(capsys, tmp_path):
    claw = tmp_path / "claw.txt"
    claw.write_text(encode_edge_list(Graph.from_edge_list(4, [(1, 0), (1, 2), (1, 3)])))
    code, out, _ = run_cli(capsys, "interval", "--graph", str(claw), "--kind", "wt",
                           "--u", "0", "--v", "2")
    assert code == 0 and out.strip() == "0 1 2 3"
    code, out, _ = run_cli(capsys, "interval", "--graph", str(claw), "--kind", "toll",
                           "--u", "0", "--v", "2")
    assert code == 0 and out.strip() == "0 1 2"
    code, out, _ = run_cli(capsys, "interval", "--graph", str(claw), "--kind", "wt",
                           "--u", "0", "--v", "1")
    assert code == 0 and out.strip() == "0 1"


def test_interval_report(capsys):
    code, out, _ = run_cli(capsys, "interval", "--graph", "two-clique-bridge:3",
                           "--u", "1", "--v", "4", "--report")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1 3 4 6"
    assert "outside: 2 5" in lines
    assert "missed_near_u: 2" in lines
    assert "missed_near_v: 5" in lines


def test_interval_on_product_prints_labels(capsys):
    code, out, _ = run_cli(capsys, "interval", "--product", "lex", "--g", "path:3",
                           "--h", "path:3", "--kind", "wt", "--u", "0", "--v", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[0] == "0"
    assert any("\t(0,0)" in line for line in lines[1:])


def test_invariant_command(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--graph", "tree:9:4", "--what", "wtn")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "invariant", "--graph", "complete:5")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "invariant", "--graph", "two-clique-bridge:3",
                           "--witness")
    lines = out.strip().splitlines()
    assert lines[0] == "4" and lines[1] == "1 2 4 5"
    code, out, _ = run_cli(capsys, "invariant", "--graph", "tree:9:4",
                           "--what", "wth")
    assert code == 0 and out.strip() == "2"
    # every vertex of a clique is forced, so the exact search is immediate
    code, out, _ = run_cli(capsys, "invariant", "--graph", "complete:30", "--what", "wtn")
    assert code == 0 and out.strip() == "30"


def test_hull_command(capsys):
    code, out, _ = run_cli(capsys, "hull", "--graph", "two-clique-bridge:3",
                           "--set", "1,4")
    assert code == 0 and out.strip() == "0 1 3 4 6"


def test_hull_names_a_bad_set_token(capsys):
    for value, token in (("", "''"), ("0,,1", "''"), ("0,x", "'x'"), ("1.5", "'1.5'")):
        code, _, err = run_cli(capsys, "hull", "--graph", "path:3", "--set", value)
        assert code == 1
        assert f"bad vertex id {token} in --set {value!r}" in err, err
        assert "comma-separated vertex ids" in err and "invalid literal" not in err


def test_product_command(capsys, tmp_path):
    out_file = tmp_path / "lex.g6"
    code, _, _ = run_cli(capsys, "product", "--kind", "lex", "--g", "path:3",
                         "--h", "path:3", "--out", str(out_file))
    assert code == 0
    assert load_graph(str(out_file)).n == 9

    # 64 vertices need graph6's long form
    big_file = tmp_path / "lex64.g6"
    code, _, _ = run_cli(capsys, "product", "--kind", "lex", "--g", "path:8",
                         "--h", "path:8", "--out", str(big_file))
    assert code == 0 and big_file.read_text().startswith("~?@?")
    code, out, _ = run_cli(capsys, "export", "--graph", str(big_file), "--dot", "-")
    assert code == 0 and out.count(" -- ") == 7 * 64 + 8 * 7  # |E(G)||H|^2 + |G||E(H)|

    el_file = tmp_path / "corona.txt"
    dot_file = tmp_path / "corona.dot"
    code, _, _ = run_cli(capsys, "product", "--kind", "corona", "--g", "path:3",
                         "--h", "path:3", "--out", str(el_file), "--dot", str(dot_file))
    assert code == 0
    assert load_graph(str(el_file)).n == 12
    dot = dot_file.read_text()
    assert 'label="g_0"' in dot and 'label="h_2^2"' in dot

    code, out, _ = run_cli(capsys, "product", "--kind", "gcorona", "--g", "path:2",
                           "--h", "complete:1", "--h", "path:3")
    assert code == 0 and out.startswith("6 ")


def test_export_command(capsys):
    code, out, _ = run_cli(capsys, "export", "--product", "lex", "--g", "path:2",
                           "--h", "path:2", "--dot", "-")
    assert code == 0 and 'label="(1,1)"' in out
    code, out, _ = run_cli(capsys, "export", "--graph", "path:3", "--dot", "-")
    assert code == 0 and out.startswith("graph G {")


def test_cli_error_paths(capsys):
    code, _, err = run_cli(capsys, "interval", "--graph", "g6:Dhc", "--u", "0", "--v", "9")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "invariant", "--graph", "complete:1")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "interval", "--u", "0", "--v", "1")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "interval", "--product", "lex", "--g", "path:3",
                           "--u", "0", "--v", "1")
    assert code == 1 and "needs --g and --h" in err


def test_malformed_edge_list_header_is_named(capsys, tmp_path):
    # a first line of two tokens, or one starting with an ASCII digit or '-',
    # is never a graph6 record, so the edge-list parser names it
    source = tmp_path / "bad.txt"
    for text, message in [
        ("3 x\n", "malformed header line '3 x': expected two integers"),
        ("3\n", "malformed header line '3': expected two integers"),
        ("-3 1\n", "header announces 1 edges but 0 lines follow"),
        ("\u0663 0\n", "malformed header line '\u0663 0': expected two integers"),
        ("\u0663\n", "unsupported vertex count byte '\u0663'"),  # not an ASCII digit: graph6
    ]:
        source.write_text(text)
        code, _, err = run_cli(capsys, "interval", "--graph", str(source), "--u", "0", "--v", "1")
        assert (code, err) == (1, f"error: {message}\n"), text


def test_generator_counts_share_the_file_formats_range(capsys, monkeypatch):
    # the guard must refuse before any builder runs: path:258048 alone
    # would allocate gigabytes of adjacency masks
    def unreachable(*args):
        raise AssertionError("generator ran")

    for name in ("path_graph", "star_graph", "two_clique_bridge", "random_connected_graph"):
        monkeypatch.setattr(cli, name, unreachable)
    for spec, n in (("path:258048", 258048), ("star:258047", 258048),
                    ("two-clique-bridge:129024", 258049), ("random:3000000:0.1:1", 3000000)):
        with pytest.raises(ValueError, match=f"^bad generator spec '{spec}': {n} vertices: "
                                             "edge lists, like graph6, hold at most 258047$"):
            load_graph(spec)
    code, out, err = run_cli(capsys, "interval", "--graph", "path:258048", "--u", "0", "--v", "1")
    assert code == 1 and out == "" and "258048 vertices" in err
    # the largest counts in range reach their generator
    for spec in ("path:258047", "star:258046", "two-clique-bridge:129023"):
        with pytest.raises(AssertionError, match="generator ran"):
            load_graph(spec)


def test_products_share_the_file_formats_range(capsys, monkeypatch):
    # the product's vertex count is refused before it is built: lex of two
    # 600-vertex paths alone would allocate 360,000 vertices
    def unreachable(*args):
        raise AssertionError("product built")

    monkeypatch.setattr(cli, "build", unreachable)
    for argv, n in ((("--product", "lex", "--g", "path:600", "--h", "path:600"), 360000),
                    (("--product", "strong", "--g", "path:600", "--h", "path:431"), 258600),
                    (("--product", "corona", "--g", "path:600", "--h", "path:430"), 258600),
                    (("--product", "gcorona", "--g", "path:2", *("--h", "path:600") * 431),
                     258602)):
        code, out, err = run_cli(capsys, "interval", *argv, "--u", "0", "--v", "1")
        assert code == 1 and out == "" and err.startswith(f"error: {n} vertices: "), argv
    # the largest counts in range reach the builder
    for argv in (("--product", "cart", "--g", "path:600", "--h", "path:430"),
                 ("--product", "corona", "--g", "path:599", "--h", "path:429"),
                 ("--product", "gcorona", "--g", "path:47", *("--h", "path:600") * 430)):
        with pytest.raises(AssertionError, match="product built"):
            main(["interval", *argv, "--u", "0", "--v", "1"])


def test_invariant_refuses_oversized_search(capsys, monkeypatch):
    from wtoll import convexity

    monkeypatch.setattr(convexity, "MAX_SEARCH_SUBSETS", 55)
    code, out, err = run_cli(capsys, "invariant", "--graph", "random:8:0.7:1280")
    assert code == 1 and out == ""
    assert err.startswith("error: exact search on 8 vertices with 0 forced")


def test_verify_command(capsys, tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "exhaustive_max_n = 3\n"
        "random_graph_count = 2\n"
        "random_graph_sizes = 5\n"
        "cartesian_pair_count = 2\n"
        "strong_pair_count = 2\n"
        "factor_min_n = 3\n"
        "factor_max_n = 4\n"
    )
    out_file = tmp_path / "verdicts.jsonl"
    csv_file = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "verify", "--suite", "cartesian-strong",
                           "--spec", str(config), "--out", str(out_file),
                           "--csv", str(csv_file))
    assert code == 0
    assert "TOTAL" in out
    lines = out_file.read_text().splitlines()
    assert lines and all(json.loads(line)["status"] == "match" for line in lines)
    assert csv_file.read_text().startswith("check,")


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "definitely-not-a-suite"])
    assert excinfo.value.code == 2


def test_log_level_from_environment(capsys, monkeypatch):
    root = logging.getLogger()
    # as in a fresh process, where basicConfig finds no handler and sets the level
    monkeypatch.setattr(root, "handlers", [])
    level = root.level
    try:
        for name in ("info", "Info", "INFO"):
            monkeypatch.setenv("WTOLL_LOG_LEVEL", name)
            root.handlers.clear()
            code, out, err = run_cli(capsys, "interval", "--graph", "path:3", "--u", "0", "--v", "2")
            assert (code, out.strip(), err) == (0, "0 1 2", "")
            assert root.level == logging.INFO
        for name in ("loud", "5", ""):
            monkeypatch.setenv("WTOLL_LOG_LEVEL", name)
            code, out, err = run_cli(capsys, "interval", "--graph", "path:3", "--u", "0", "--v", "2")
            assert code == 1 and out == ""
            assert err.startswith(f"error: WTOLL_LOG_LEVEL={name!r} is not one of DEBUG")
            assert err.count("\n") == 1
    finally:
        root.setLevel(level)
