"""Spans around the public functions of each wtoll layer, recorded from outside.

A :class:`Tracer` wraps the functions listed in :func:`targets` and rebinds
every reference to them that the ``wtoll`` package holds: module globals,
including names brought in with ``from .x import y``, and values of
module-level dicts such as ``verify.CHECKS`` or ``intervals._DISPATCH``.
Patching only the defining module would miss ``convexity.interval``,
``verify.oracle_interval``, ``closed_forms.wtn`` and others.

A call is a layer boundary only when the innermost open span belongs to
another layer; a call made inside the same layer (``corona`` calling
``generalized_corona``, ``interval`` dispatching to an engine, the engines
run by ``interval_closure``) records no span, so builds and engine calls
are not counted twice.  Spans are kept in memory as
``[name, layer, start, end, parent, item]`` and written out after the run.
"""

from __future__ import annotations

import json
import sys
import time

from metrics import CHECK_IDS, KIND_ALIASES, LAYER_SHARES

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.enabled = True
        self.distinct: dict[str, set] = {}
        self.work: dict[str, float] = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer, name, key=None, after=None):
        """``name`` is a string or a function of the call's arguments;
        ``key`` gives the call's identity for a distinct ratio; ``after``
        adds work counts from the arguments and the result."""
        spans, stack, tracer = self.spans, self.stack, self

        def traced(*args, **kwargs):
            if not tracer.enabled or (stack and spans[stack[-1]][1] == layer):
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if key is not None:
                tracer.distinct.setdefault(label, set()).add(key(*args, **kwargs))
            span = [label, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(span)
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if after is not None:
                for counter, amount in after(result, *args, **kwargs):
                    tracer.work[counter] = tracer.work.get(counter, 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind each reference the package holds."""
        wrapped = {id(fn): self.wrap(fn, *spec) for fn, spec in targets()}
        modules = [m for n, m in sys.modules.items() if n == "wtoll" or n.startswith("wtoll.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)]
        # nothing in the package may still reach an unwrapped target
        originals = set(wrapped)
        for module in modules:
            for value in vars(module).values():
                inner = value.values() if type(value) is dict else (value,)
                if any(id(v) in originals for v in inner):
                    raise RuntimeError(f"unwrapped reference left in {module.__name__}")

    # -- results ------------------------------------------------------------

    def metrics(self, first: int, run_s: float, scale) -> dict[str, float]:
        """Per-layer metrics; ``scale(start, end)`` gives a span's duration.
        Shares count only spans from index ``first`` on (the timed batch)
        and are fractions of ``run_s``."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        durations = [scale(span[2], span[3]) for span in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, _, parent, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        root_s = 0.0
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            dur = durations[i]
            own = dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            if i >= first:
                layer_self[layer] = layer_self.get(layer, 0.0) + own
                if parent < 0:
                    root_s += dur

        out: dict[str, float] = {}

        def put(prefix: str, names: list[str], per_call: bool = True):
            n = sum(calls.get(x, 0) for x in names)
            s = sum(total.get(x, 0.0) for x in names)
            out[f"{prefix}.calls"] = n
            out[f"{prefix}.s"] = s
            if per_call:
                out[f"{prefix}.us_per_call"] = s / n * 1e6 if n else 0.0

        for alias in KIND_ALIASES.values():
            put(f"intervals.{alias}", [f"intervals.{alias}"])
        engine_calls = sum(calls.get(f"intervals.{a}", 0) for a in KIND_ALIASES.values())
        distinct = sum(len(self.distinct.get(f"intervals.{a}", ())) for a in KIND_ALIASES.values())
        out["intervals.distinct_ratio"] = distinct / engine_calls if engine_calls else 0.0
        put("intervals.interval_closure", ["intervals.interval_closure"], per_call=False)
        out["intervals.interval_closure.pairs"] = self.work.get("closure_pairs", 0)

        for alias in ("wt", "swt", "toll"):
            put(f"oracle.{alias}", [f"oracle.{alias}"])

        for op in ("wtn", "wth"):
            put(f"convexity.{op}", [f"convexity.{op}"], per_call=False)
            out[f"convexity.{op}.self_s"] = self_s.get(f"convexity.{op}", 0.0)
        put("convexity.hull", ["convexity.hull"], per_call=False)
        hulls = calls.get("convexity.hull", 0)
        closures_in_hull = sum(
            1
            for name, _, _, _, parent, _ in self.spans
            if name == "intervals.interval_closure"
            and parent >= 0
            and self.spans[parent][0] == "convexity.hull"
        )
        out["convexity.hull.iterations"] = closures_in_hull / hulls if hulls else 0.0
        for op in ("is_convex", "maximum_interval_pairs"):
            put(f"convexity.{op}", [f"convexity.{op}"], per_call=False)

        put("products.build", ["products.build"], per_call=False)
        out["products.build.vertices_built"] = self.work.get("vertices_built", 0)
        builds = calls.get("products.build", 0)
        out["products.build.distinct_ratio"] = (
            len(self.distinct.get("products.build", ())) / builds if builds else 0.0
        )

        predictions = calls.get("closed_forms", 0)
        out["closed_forms.calls"] = predictions
        out["closed_forms.self_s"] = self_s.get("closed_forms", 0.0)
        out["closed_forms.applicable_ratio"] = (
            self.work.get("applicable", 0) / predictions if predictions else 0.0
        )

        put("graphs.generate", ["graphs.generate"], per_call=False)
        put("graphs.graph6", ["graphs.graph6"], per_call=False)

        out["verify.connected_graphs_s"] = total.get("verify.connected_graphs", 0.0)
        out["verify.interval_corpus_s"] = total.get("verify.interval_corpus", 0.0)
        for check_id in CHECK_IDS:
            out[f"verify.check.{check_id}.s"] = total.get(f"verify.check.{check_id}", 0.0)
        out["verify.harness_self_s"] = sum(
            own for name, own in self_s.items()
            if name.startswith("verify.") and name != "verify.connected_graphs"
        )
        out["cli.self_s"] = self_s.get("cli.main", 0.0)

        for share, layers in LAYER_SHARES.items():
            out[share] = sum(layer_self.get(x, 0.0) for x in layers) / run_s
        closure_s = sum(
            dur
            for span, dur in zip(self.spans[first:], durations[first:])
            if span[0] == "intervals.interval_closure"
        )
        out["share.intervals.interval_closure"] = closure_s / run_s
        out["share.bench"] = max(run_s - root_s, 0.0) / run_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def targets():
    """``(function, (layer, name[, key[, after]]))`` for every traced function."""
    from wtoll import cli, closed_forms, convexity, graphs, intervals, oracle, products, verify

    kind_alias = {kind: KIND_ALIASES[kind.value] for kind in intervals.IntervalKind}

    def by_kind(prefix):
        return lambda graph, u, v, kind, *rest, **kw: prefix + kind_alias[intervals.IntervalKind(kind)]

    def pair_key(kind):
        return lambda graph, u, v, *rest, **kw: (graph, u, v, kind)

    def interval_key(graph, u, v, kind):
        return (graph, u, v, intervals.IntervalKind(kind))

    def closure_pairs(result, graph, subset, kind):
        m = len(subset)
        pairs = m * (m - 1) // 2
        if intervals.IntervalKind(kind) not in intervals.SYMMETRIC_KINDS:
            pairs *= 2
        yield "closure_pairs", pairs

    def built(result, *args, **kwargs):
        yield "vertices_built", result.graph.n

    def factors(h):
        return h if isinstance(h, graphs.Graph) else tuple(h)

    def product_key(kind):
        return lambda g, h: (kind, g, factors(h))

    def build_key(kind, g, h):
        return (products.ProductKind(kind).value, g, factors(h))

    def applicable(result, *args, **kwargs):
        yield "applicable", int(result.applicable)

    out = []
    engines = {
        intervals.weakly_toll_interval: intervals.IntervalKind.WEAKLY_TOLL,
        intervals.semi_weakly_toll_interval: intervals.IntervalKind.SEMI_WEAKLY_TOLL,
        intervals.toll_interval: intervals.IntervalKind.TOLL,
        intervals.monophonic_interval: intervals.IntervalKind.MONOPHONIC,
        intervals.geodesic_interval: intervals.IntervalKind.GEODESIC,
    }
    for fn, kind in engines.items():
        out.append((fn, ("intervals", f"intervals.{kind_alias[kind]}", pair_key(kind))))
    out.append((intervals.interval, ("intervals", by_kind("intervals."), interval_key)))
    out.append(
        (intervals.interval_closure, ("intervals", "intervals.interval_closure", None, closure_pairs))
    )
    out.append((oracle.oracle_interval, ("oracle", by_kind("oracle."))))
    for op in ("wtn", "wth", "hull", "is_convex", "maximum_interval_pairs"):
        out.append((getattr(convexity, op), ("convexity", f"convexity.{op}")))
    for fn, kind in (
        (products.lexicographic, "lexicographic"),
        (products.cartesian, "cartesian"),
        (products.strong, "strong"),
        (products.corona, "corona"),
        (products.generalized_corona, "generalized-corona"),
    ):
        out.append((fn, ("products", "products.build", product_key(kind), built)))
    out.append((products.build, ("products", "products.build", build_key, built)))
    for fn in (
        closed_forms.lex_interval_same_layer,
        closed_forms.lex_interval_cross_layer,
        closed_forms.lex_wtn,
        closed_forms.lex_wth,
        closed_forms.corona_interval_same_copy,
        closed_forms.corona_interval_cross_copies,
        closed_forms.corona_interval_base_pair,
        closed_forms.corona_interval_mixed,
        closed_forms.corona_wtn,
        closed_forms.corona_wth,
        closed_forms.generalized_corona_wtn,
        closed_forms.cartesian_wtn,
        closed_forms.strong_wtn_bound,
    ):
        out.append((fn, ("closed_forms", "closed_forms", None, applicable)))
    for fn in (
        graphs.path_graph,
        graphs.cycle_graph,
        graphs.complete_graph,
        graphs.star_graph,
        graphs.two_clique_bridge,
        graphs.random_tree,
        graphs.random_connected_graph,
    ):
        out.append((fn, ("graphs", "graphs.generate")))
    for fn in (graphs.encode_graph6, graphs.parse_graph6):
        out.append((fn, ("graphs", "graphs.graph6")))
    for fn in (verify.run_suite, verify.run_check, verify.summarize, verify.write_jsonl, verify.write_csv):
        out.append((fn, ("verify", f"verify.{fn.__name__}")))
    for check_id, fn in verify.CHECKS.items():
        out.append((fn, ("verify.check", f"verify.check.{check_id}")))
    out.append((verify.interval_corpus, ("verify.corpus", "verify.interval_corpus")))
    out.append((verify.connected_graphs, ("verify.connected_graphs", "verify.connected_graphs")))
    out.append((cli.main, ("cli", "cli.main")))
    return out
