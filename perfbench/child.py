"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Prints one JSON object as its last line of output:
``ready`` (monotonic clock when the inputs were ready) with the factor
that scales the set-up time to the reference speed (see ``speed.py``), and
in the run and trace modes the batch's time, peak RSS, per-item times, the
gates' outcome and an output digest; every time is scaled.  The trace mode
also wraps every layer's public functions (see ``spans.py``), reports
per-layer metrics and writes the spans to
``perfbench/out/spans-NAME.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

from speed import Speedometer

_clock = time.perf_counter


class Items:
    """Start and end of each item, grouped by sample class."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans: dict[str, list] = {"item": [], "hull": []}
        self.errors: list[str] = []

    def time(self, item_id, fn, *args, sample: str = "item"):
        """Call ``fn(*args)`` as one item; an exception is recorded and
        gives ``None``, and its span is ``None`` so that the items of
        every child stay aligned."""
        if self.tracer is not None:
            self.tracer.item = item_id
        start = _clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed item is counted, not fatal
            self.errors.append(f"{item_id}: {type(exc).__name__}: {exc}")
            self.spans[sample].append(None)
            return None
        self.spans[sample].append((start, _clock()))
        return result

    def samples(self, speed: Speedometer) -> dict[str, list]:
        """Each item's time, scaled to the reference speed."""
        return {
            sample: [None if s is None else speed.scale(*s) for s in spans]
            for sample, spans in self.spans.items()
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()
    speed = Speedometer()
    speed.start()
    born = _clock()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import wtoll  # noqa: F401  (set-up time includes the import)
    import wtoll.cli
    import wtoll.closed_forms
    import wtoll.verify

    out = root / "perfbench" / "out"
    workdir = out / f"child-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir, out, speed, born)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path, out: Path, speed: Speedometer, born: float) -> dict:
    import workloads

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    inputs = make_inputs(args.seed, workdir)
    ready, ready_pc = time.monotonic(), _clock()

    def setup_factor() -> float:
        # the parent times the set-up from spawning the child; the
        # interpreter's start, before the speedometer's, is scaled alike
        return speed.scale(born, ready_pc) / (ready_pc - born)

    if args.mode == "setup":
        speed.stop()
        return {"ready": ready, "setup_factor": setup_factor()}

    items = Items(tracer)
    first_span = len(tracer.spans) if tracer else 0
    start = _clock()
    outputs = run(inputs, items)
    end = _clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.stop()

    if tracer is not None:
        tracer.enabled = False
    attempted, failed, problems, counts = check(inputs, outputs)
    result = {
        "ready": ready,
        "setup_factor": setup_factor(),
        "run_s": speed.scale(start, end),
        "peak_rss_mb": peak_rss_mb,
        "samples": items.samples(speed),
        "attempted": attempted,
        "failed": failed + len(items.errors),
        "problems": items.errors + problems,
        "counts": counts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(first_span, result["run_s"], speed.scale)
        tracer.write(out / f"spans-{args.workload}.jsonl")
    return result


if __name__ == "__main__":
    raise SystemExit(main())
