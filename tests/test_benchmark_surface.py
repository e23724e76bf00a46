"""The part of the package that the benchmark in ``perfbench/`` relies on.

The benchmark wraps functions by name and pins every corpus field, so a
rename or a new unpinned field would only show up when it runs.  Both of
its modules used here import nothing but ``wtoll`` and the standard library.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from wtoll import verify

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    found = spans.targets()
    assert all(callable(fn) for fn, _ in found)
    assert len({id(fn) for fn, _ in found}) == len(found) == 72


def test_tracer_rebinds_every_package_reference():
    # install() raises when a module global or module-level dict still holds
    # an unwrapped traced function; it patches the package, so it runs in a
    # fresh interpreter
    path = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    code = "import wtoll.cli, spans; spans.Tracer().install()"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_corpus_spec_fields_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    fields = {f.name for f in dataclasses.fields(verify.CorpusSpec)} - {"seed"}
    assert fields <= set(workloads.CORPUS_FIELDS)
