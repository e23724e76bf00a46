"""The wtoll benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition of the workload
runs in a fresh child interpreter (``child.py``), one child at a time, so
the program's module caches start cold as they do for each ``wtoll``
command.  Children are started while the next one should end within
``--seconds``, and at least MIN_REPS of them; each runs the same inputs,
made from ``--seed``.  Before each of the first SETUP_REPS of them, a
child only imports the program and builds the inputs, to measure set-up
time at several moments of the run.

Every child times the same items in the same order, and scales each time
to a fixed reference speed of the machine, measured all through the child
(``speed.py``): the machine is shared and its speed swings by nearly half
for seconds to minutes.  An item's time is its median over the run's
untraced children.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` untraced and traced children alternate and it reports
the per-layer metrics, from the traced children, and the tracing overhead.
The line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line is
printed, and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

SETUP_REPS = 5
MIN_REPS = 2
#: Wall-clock budget for all children of one run, well inside the 180 s a
#: run may take.
RUN_BUDGET_S = 160
HERE = Path(__file__).resolve().parent


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def per_item(children: list[dict], sample: str) -> list[float]:
    """Per item, its median time over the children; an item that failed
    in every child is left out."""
    per_child = [r["samples"][sample] for r in children]
    if len({len(s) for s in per_child}) > 1:
        raise ValueError(f"children timed different numbers of {sample} items")
    medians = []
    for times in zip(*per_child):
        done = [t for t in times if t is not None]
        if done:
            medians.append(statistics.median(done))
    return medians


class Children:
    """Starts child interpreters one at a time and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.errors: list[str] = []

    def run(self, mode: str, rep: int) -> dict | None:
        argv = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode,
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=self.env,
                timeout=max(self.deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} child {rep} ran out of time")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit code {proc.returncode}")
            result = json.loads(lines[-1])
        except ValueError as exc:
            self.errors.append(f"{mode} child {rep} failed ({exc}): {proc.stderr[-2000:]}")
            return None
        result["setup_s"] = (result["ready"] - spawned) * result["setup_factor"]
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "wtoll" / "__init__.py").is_file():
        print("error: run from the root of a wtoll checkout (src/wtoll not found)", file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed)
    setups, plain, traced = [], [], []
    start = time.monotonic()
    rep, last = 0, 0.0
    # at least MIN_REPS children (an untraced and a traced one when tracing);
    # another one only when it should still end within --seconds
    while len(plain) + len(traced) < MIN_REPS or (
        time.monotonic() - start + last <= args.seconds
        and time.monotonic() + last < children.deadline
    ):
        if len(setups) < SETUP_REPS:
            setups.append(children.run("setup", len(setups)))
        mode = "trace" if args.trace and rep % 2 else "run"
        began = time.monotonic()
        result = children.run(mode, rep)
        last = time.monotonic() - began
        (traced if mode == "trace" else plain).append(result)
        rep += 1
        if result is None:
            break
    while len(setups) < SETUP_REPS:
        setups.append(children.run("setup", len(setups)))

    done = [r for r in setups + plain + traced if r is not None]
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    problems = list(children.errors)
    for r in plain + traced:
        problems += r.get("problems", [])
    digests = {r["counts"]["digest"] for r in plain + traced}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the output digest: {sorted(digests)}")
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    try:
        items, hulls = per_item(plain, "item"), per_item(plain, "hull")
    except ValueError as exc:
        problems.append(str(exc))
        items, hulls = [], []
    correct = bool(plain) and not problems and failed == 0 and len(done) == rep + SETUP_REPS

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {len(setups)} set-up children")
    print(f"items: {len(items)}; hulls: {len(hulls)}, each the median of "
          f"{len(plain)}; "
          f"output digest {sorted(digests)[0] if digests else None}")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    metrics: dict[str, float] = {}
    if plain:
        run_s = statistics.median(r["run_s"] for r in plain)
        if not args.trace:
            metrics = {
                "setup_s": statistics.median(r["setup_s"] for r in setups + plain if r),
                "run_s": run_s,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "item_geomean_ms": math.exp(statistics.fmean(map(math.log, items))) * 1e3
                if items else 0.0,
            }
        elif traced:
            metrics = {
                name: statistics.median(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            for name in ("verdicts", "mismatches", "skipped"):
                metrics[f"verify.{name}"] = traced[0]["counts"].get(name, 0)
            traced_s = statistics.median(r["run_s"] for r in traced)
            metrics["trace.overhead_s"] = traced_s - run_s
            # a percentile is reported only with at least ten samples beyond it
            metrics["items.samples"] = len(items)
            metrics["items.p50_ms"] = percentile(items, 50) * 1e3 if items else 0.0
            metrics["items.p90_ms"] = percentile(items, 90) * 1e3 if len(items) >= 100 else 0.0
            metrics["items.p99_ms"] = percentile(items, 99) * 1e3 if len(items) >= 1000 else 0.0
            metrics["hulls.samples"] = len(hulls)
            metrics["hulls.p50_ms"] = percentile(hulls, 50) * 1e3 if hulls else 0.0
            print(f"run_s traced {traced_s:.3f} s, untraced {run_s:.3f} s")
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        correct = False
        missing = sorted(set(units) - set(metrics))
        print(f"problem: metrics missing: {missing[:10]}")
        metrics = {name: metrics.get(name, 0.0) for name in units}
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
