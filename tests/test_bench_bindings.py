"""The benchmark's tracer binds hfda's public functions by name.

``perfbench/tracer.py`` wraps the functions listed in its ``SPANS`` under
every name that binds them in a loaded ``hfda`` module, and counts model
calls through ``get_model``.  A renamed or removed public function would
only surface when the benchmark runs; these checks catch it in the test
suite.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _bindings() -> dict:
    """Every attribute of every loaded hfda module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "hfda" and not name.startswith("hfda."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, f"{attr}.{member}")] = inner
    return out


def test_every_span_target_resolves(tracer):
    importlib.import_module("hfda")
    for targets in tracer.SPANS.values():
        for target in targets:
            _, _, original = tracer.resolve(target)
            assert callable(original), target
    _, _, get_model = tracer.resolve("hfda.dynamics:get_model")
    assert callable(get_model)


def test_install_wraps_every_target_and_uninstall_restores_all(tracer):
    importlib.import_module("hfda")
    before = _bindings()
    originals = [tracer.resolve(t) for targets in tracer.SPANS.values() for t in targets]
    installed = tracer.Tracer().install()
    try:
        during = _bindings()
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
            assert not any(value is original for value in during.values()), attr
    finally:
        installed.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
