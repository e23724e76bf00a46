"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the root of the repository lists the same names.
"""

WORKLOADS = ("verify-default", "product-invariants", "exact-search", "large-graph-queries")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "item_geomean_ms": "ms",
}

#: IntervalKind value -> the short name used in metric names (and by the CLI).
KIND_ALIASES = {
    "weakly-toll": "wt",
    "semi-weakly-toll": "swt",
    "toll": "toll",
    "monophonic": "mono",
    "geodesic": "geo",
}

#: The 23 checks of ``wtoll verify --suite all`` at the time the benchmark
#: was defined, in suite order.
CHECK_IDS = (
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
)

#: Self-time share metric -> the span layers whose self time it sums.
LAYER_SHARES = {
    "share.graphs": ("graphs",),
    "share.products": ("products",),
    "share.intervals": ("intervals",),
    "share.oracle": ("oracle",),
    "share.convexity": ("convexity",),
    "share.closed_forms": ("closed_forms",),
    "share.verify": ("verify", "verify.check", "verify.corpus"),
    "share.verify.connected_graphs": ("verify.connected_graphs",),
    "share.cli": ("cli",),
}


def _per_layer() -> dict[str, str]:
    out = {}
    out["verify.connected_graphs_s"] = "s"
    out["verify.interval_corpus_s"] = "s"
    for check_id in CHECK_IDS:
        out[f"verify.check.{check_id}.s"] = "s"
    out["verify.harness_self_s"] = "s"
    for name in ("verdicts", "mismatches", "skipped"):
        out[f"verify.{name}"] = "count"
    for alias in ("wt", "swt", "toll"):
        out[f"oracle.{alias}.calls"] = "count"
        out[f"oracle.{alias}.s"] = "s"
        out[f"oracle.{alias}.us_per_call"] = "us"
    for alias in KIND_ALIASES.values():
        out[f"intervals.{alias}.calls"] = "count"
        out[f"intervals.{alias}.s"] = "s"
        out[f"intervals.{alias}.us_per_call"] = "us"
    out["intervals.distinct_ratio"] = "ratio"
    out["intervals.interval_closure.calls"] = "count"
    out["intervals.interval_closure.s"] = "s"
    out["intervals.interval_closure.pairs"] = "count"
    for op in ("wtn", "wth"):
        out[f"convexity.{op}.calls"] = "count"
        out[f"convexity.{op}.s"] = "s"
        out[f"convexity.{op}.self_s"] = "s"
    out["convexity.hull.calls"] = "count"
    out["convexity.hull.s"] = "s"
    out["convexity.hull.iterations"] = "count"
    for op in ("is_convex", "maximum_interval_pairs"):
        out[f"convexity.{op}.calls"] = "count"
        out[f"convexity.{op}.s"] = "s"
    out["products.build.calls"] = "count"
    out["products.build.s"] = "s"
    out["products.build.vertices_built"] = "count"
    out["products.build.distinct_ratio"] = "ratio"
    out["closed_forms.calls"] = "count"
    out["closed_forms.self_s"] = "s"
    out["closed_forms.applicable_ratio"] = "ratio"
    for op in ("generate", "graph6"):
        out[f"graphs.{op}.calls"] = "count"
        out[f"graphs.{op}.s"] = "s"
    out["cli.self_s"] = "s"
    for share in LAYER_SHARES:
        out[share] = "ratio"
    out["share.intervals.interval_closure"] = "ratio"
    out["share.bench"] = "ratio"
    out["trace.spans"] = "count"
    out["trace.overhead_s"] = "s"
    out["items.samples"] = "count"
    out["items.p50_ms"] = "ms"
    out["items.p90_ms"] = "ms"
    out["items.p99_ms"] = "ms"
    out["hulls.samples"] = "count"
    out["hulls.p50_ms"] = "ms"
    return out


#: Per-layer metric name -> unit, in the order they are reported.
PER_LAYER = _per_layer()
