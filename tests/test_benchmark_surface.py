"""The part of the package that the benchmark in ``perfbench/`` relies on.

The benchmark wraps functions by name and pins every corpus field, so a
rename or a new unpinned field would only show up when it runs.  Both of
its modules used here import nothing but ``wtoll`` and the standard library.
"""

import dataclasses
import os
import subprocess
import sys
import types
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


def _held(value):
    """What ``value`` holds that a call may reach: closure cells, defaults
    and cached functions of package code, and the items of containers."""
    if isinstance(value, (types.FunctionType, type)) or hasattr(value, "cache_info"):
        if not value.__module__.startswith("wtoll"):
            return []
        if isinstance(value, type):
            return list(vars(value).values())
        if not isinstance(value, types.FunctionType):
            return [value.__wrapped__]
        cells = [cell.cell_contents for cell in value.__closure__ or ()]
        return [*cells, *(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values()]
    if isinstance(value, (classmethod, staticmethod)):
        return [value.__func__]
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (tuple, list, set, frozenset)):
        return list(value)
    return []


def test_no_traced_function_hides_from_the_tracer(monkeypatch):
    # Tracer.install rebinds module globals and the values of module-level
    # dicts only; a traced function reached any other way (a closure cell,
    # a default, a module-level tuple or list) would run untraced
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    traced = {id(fn) for fn, _ in spans.targets()}
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "wtoll"}
    stack = []
    for name, module in modules.items():
        for attr, value in vars(module).items():
            inner = value.items() if type(value) is dict else [(None, value)]
            stack += [(f"{name}.{attr}" + ("" if key is None else f"[{key!r}]"), v) for key, v in inner]
    seen, hidden = set(), []
    while stack:
        path, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        for held in _held(value):
            if id(held) in traced:
                hidden.append(f"{path} holds {held.__module__}.{held.__qualname__}")
            stack.append((f"{path} > {getattr(held, '__qualname__', type(held).__name__)}", held))
    assert not hidden, hidden
    assert len(seen) > 200  # the walk covered the package


def test_predictions_name_their_rule():
    # perfbench/workloads.py quotes ``prediction.rule`` when a closed form fails
    from wtoll import closed_forms
    from wtoll.graphs import path_graph

    assert closed_forms.lex_wtn(path_graph(3), path_graph(3)).rule == "lex-wtn-dichotomy"


def test_corpus_spec_fields_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    fields = {f.name for f in dataclasses.fields(verify.CorpusSpec)} - {"seed"}
    assert fields <= set(workloads.CORPUS_FIELDS)
