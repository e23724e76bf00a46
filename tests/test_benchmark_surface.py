"""The part of the package that the benchmark in ``perfbench/`` relies on.

The benchmark wraps functions by name and pins every corpus field, so a
rename or a new unpinned field would only show up when it runs.  Both of
its modules used here import nothing but ``wtoll`` and the standard library.
"""

import dataclasses
from pathlib import Path

from wtoll import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    found = spans.targets()
    assert all(callable(fn) for fn, _ in found)
    assert len({id(fn) for fn, _ in found}) == len(found) == 72


def test_corpus_spec_fields_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    fields = {f.name for f in dataclasses.fields(verify.CorpusSpec)} - {"seed"}
    assert fields <= set(workloads.CORPUS_FIELDS)
