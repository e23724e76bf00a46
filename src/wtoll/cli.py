"""Command-line front end.

Graphs come from files (graph6 or edge-list text, detected by content),
from literal ``g6:...`` strings, or from generator shorthands such as
``path:4``, ``cycle:5``, ``complete:4``, ``star:3``, ``two-clique-bridge:3``,
``tree:8:SEED`` and ``random:8:0.4:SEED``; a shorthand is refused before it
builds anything when its vertex count exceeds 258047, the range of both file
formats.  Products built in-session keep their coordinate labels, which show
up in interval output and DOT exports.  All algorithmic work lives in the
library modules; this file only parses arguments and prints.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .convexity import hull as hull_of
from .convexity import interval_report, wth, wtn
from .graphs import (
    Graph,
    VertexSet,
    complete_graph,
    cycle_graph,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_connected_graph,
    random_tree,
    require_storable,
    star_graph,
    two_clique_bridge,
)
from .intervals import IntervalKind
from .products import ProductGraph, ProductKind, build, to_dot
from .verify import CorpusSpec, run_suite, summarize, write_csv, write_jsonl

KIND_ALIASES = {
    "wt": IntervalKind.WEAKLY_TOLL,
    "swt": IntervalKind.SEMI_WEAKLY_TOLL,
    "toll": IntervalKind.TOLL,
    "mono": IntervalKind.MONOPHONIC,
    "geo": IntervalKind.GEODESIC,
}

PRODUCT_ALIASES = {
    "lex": ProductKind.LEXICOGRAPHIC,
    "cart": ProductKind.CARTESIAN,
    "strong": ProductKind.STRONG,
    "corona": ProductKind.CORONA,
    "gcorona": ProductKind.GENERALIZED_CORONA,
}

_GENERATORS = {
    "path": lambda args: path_graph(int(args[0])),
    "cycle": lambda args: cycle_graph(int(args[0])),
    "complete": lambda args: complete_graph(int(args[0])),
    "star": lambda args: star_graph(int(args[0])),
    "two-clique-bridge": lambda args: two_clique_bridge(int(args[0])),
    "tree": lambda args: random_tree(int(args[0]), int(args[1])),
    "random": lambda args: random_connected_graph(int(args[0]), float(args[1]), int(args[2])),
}

#: Vertex count of a shorthand from its first argument, where it differs.
_VERTICES = {"star": lambda k: k + 1, "two-clique-bridge": lambda k: 2 * k + 1}


def load_graph(source: str) -> Graph:
    """Resolve a --graph style argument into a Graph."""
    if source.startswith("g6:"):
        return parse_graph6(source[3:])
    head, _, rest = source.partition(":")
    if head in _GENERATORS and rest:
        args = rest.split(":")
        try:
            require_storable(_VERTICES.get(head, int)(int(args[0])))
            return _GENERATORS[head](args)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"bad generator spec {source!r}: {exc}") from None
    path = Path(source)
    if not path.exists():
        raise ValueError(f"no such file or generator spec: {source!r}")
    text = path.read_text()
    first = text.strip().splitlines()[0].split() if text.strip() else []
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        return parse_edge_list(text)
    return parse_graph6(text)


def _build_product(name: str, g_spec: str, h_specs: list[str]) -> ProductGraph:
    """The product named by its alias, from --g and --h factor specs."""
    if not g_spec or not h_specs:
        raise ValueError(f"{name} product needs --g and --h")
    kind = PRODUCT_ALIASES[name]
    g = load_graph(g_spec)
    if kind is ProductKind.GENERALIZED_CORONA:
        return build(kind, g, [load_graph(spec) for spec in h_specs])
    if len(h_specs) != 1:
        raise ValueError(f"{name} product takes exactly one --h factor")
    return build(kind, g, load_graph(h_specs[0]))


def _resolve_input(args) -> Graph | ProductGraph:
    """A plain graph via --graph, or a product built from factor specs."""
    if getattr(args, "product", None):
        return _build_product(args.product, args.g, args.h)
    if not args.graph:
        raise ValueError("provide --graph, or --product with --g/--h")
    return load_graph(args.graph)


def _the_graph(item: Graph | ProductGraph) -> Graph:
    return item.graph if isinstance(item, ProductGraph) else item


def _print_vertex_set(vs: VertexSet, item: Graph | ProductGraph, prefix: str = "") -> None:
    print(prefix + " ".join(str(v) for v in sorted(vs)))
    if isinstance(item, ProductGraph):
        for v in sorted(vs):
            print(f"{v}\t{item.label_string(v)}")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="graph file, g6:STRING, or generator spec")
    parser.add_argument(
        "--product", choices=sorted(PRODUCT_ALIASES), help="build a product as the input graph"
    )
    parser.add_argument("--g", help="first factor (with --product)")
    parser.add_argument(
        "--h",
        action="append",
        help="second factor (repeat for gcorona: one per base vertex)",
    )


def _cmd_interval(args) -> int:
    item = _resolve_input(args)
    graph = _the_graph(item)
    report = interval_report(graph, args.u, args.v, KIND_ALIASES[args.kind])
    _print_vertex_set(report.interval, item)
    if args.report:
        for name in ("outside", "missed_near_u", "missed_near_v"):
            print(f"{name}: {' '.join(str(v) for v in sorted(getattr(report, name))) or '-'}")
    return 0


def _cmd_invariant(args) -> int:
    item = _resolve_input(args)
    graph = _the_graph(item)
    value, witness = wtn(graph) if args.what == "wtn" else wth(graph)
    print(value)
    if args.witness:
        _print_vertex_set(witness, item)
    return 0


def _cmd_hull(args) -> int:
    item = _resolve_input(args)
    graph = _the_graph(item)
    seed = VertexSet.from_iterable(graph.n, (int(tok) for tok in args.set.split(",")))
    result = hull_of(graph, seed, KIND_ALIASES[args.kind])
    _print_vertex_set(result, item)
    return 0


def _write_graph_file(item: Graph | ProductGraph, path: str, fmt: str | None) -> None:
    graph = _the_graph(item)
    if fmt is None:
        fmt = "g6" if path.endswith(".g6") else "edgelist"
    if fmt == "g6":
        Path(path).write_text(encode_graph6(graph) + "\n")
    else:
        Path(path).write_text(encode_edge_list(graph))


def _cmd_product(args) -> int:
    product = _build_product(args.kind, args.g, args.h)
    if args.out:
        _write_graph_file(product, args.out, args.format)
    if args.dot:
        Path(args.dot).write_text(to_dot(product))
    if not args.out and not args.dot:
        sys.stdout.write(encode_edge_list(product.graph))
        for v in range(product.graph.n):
            print(f"# {v}\t{product.label_string(v)}")
    return 0


def _cmd_export(args) -> int:
    item = _resolve_input(args)
    text = to_dot(item)
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        Path(args.dot).write_text(text)
    return 0


def _cmd_verify(args) -> int:
    spec = CorpusSpec.from_file(args.spec) if args.spec else CorpusSpec()
    verdicts = run_suite(args.suite, spec)
    summary = summarize(verdicts)
    if args.out:
        write_jsonl(verdicts, args.out)
    if args.csv:
        write_csv(summary, args.csv)
    print(summary.table())
    for verdict in summary.mismatch_verdicts[:10]:
        print(f"MISMATCH {verdict.check}: {verdict.instance} "
              f"predicted={verdict.predicted} observed={verdict.observed}")
    return 0 if summary.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtoll",
        description="walk-based graph convexity: intervals, hulls, products, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interval", help="print a walk interval between two vertices")
    _add_input_flags(p)
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="wt")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--report", action="store_true", help="also print what the interval misses")
    p.set_defaults(fn=_cmd_interval)

    p = sub.add_parser("invariant", help="print wtn or wth")
    _add_input_flags(p)
    p.add_argument("--what", choices=("wtn", "wth"), default="wtn")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("hull", help="print the hull of a seed set")
    _add_input_flags(p)
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="wt")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.set_defaults(fn=_cmd_hull)

    p = sub.add_parser("product", help="construct a product graph and write it out")
    p.add_argument("--kind", choices=sorted(PRODUCT_ALIASES), required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", action="append", required=True)
    p.add_argument("--out", help="output file (.g6 for graph6, else edge list)")
    p.add_argument("--format", choices=("g6", "edgelist"))
    p.add_argument("--dot", help="also write a DOT rendering")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("export", help="write a DOT rendering of a graph or product")
    _add_input_flags(p)
    p.add_argument("--dot", required=True, help="target file, or - for stdout")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("verify", help="run verification suites and report verdicts")
    p.add_argument("--suite", default="all")
    p.add_argument("--spec", help="corpus config file (key = value lines)")
    p.add_argument("--out", help="JSON-lines verdict report")
    p.add_argument("--csv", help="CSV summary")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    name = os.environ.get("WTOLL_LOG_LEVEL", "WARNING")
    level = logging.getLevelName(name.upper())  # the number, for a known name
    if not isinstance(level, int):
        print(f"error: WTOLL_LOG_LEVEL={name!r} is not one of DEBUG, INFO, WARNING, ERROR, CRITICAL",
              file=sys.stderr)
        return 1
    logging.basicConfig(level=level)
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        from .verify import CHECKS, SUITES

        if args.suite not in SUITES and args.suite not in CHECKS:
            parser.error(
                f"unknown suite {args.suite!r}; choose from "
                f"{', '.join(sorted(SUITES))} or a check id"
            )
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
