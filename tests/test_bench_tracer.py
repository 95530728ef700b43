"""The benchmark's tracer (bench/tracing.py) still finds every name it wraps.

The tracer replaces program functions and methods by name, so renaming or
moving one breaks `bench/run.py --trace 1` and `bench/selfcheck.py`. This
installs it and removes it again, without running a pipeline.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("tracing")
    for name in ("tracing", "endpoints"):  # bench modules, not the program's
        sys.modules.pop(name, None)


def wrapped(tracing) -> list:
    """What each name the tracer wraps is bound to now."""
    classes = tracing._classes()
    names = [(owner, attr) for _, owner, attr, _ in tracing.TARGETS]
    names += [("RunStore", attr) for attr in (*tracing.WRITERS, "read_records")]
    return [
        classes[owner].__dict__[attr] if owner in classes
        else getattr(importlib.import_module(owner), attr)
        for owner, attr in names
    ]


def test_tracer_wraps_every_name_and_restores_it(tracing):
    before = wrapped(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = wrapped(tracing)
    finally:
        tracer.remove()
    assert all(now is not then for now, then in zip(during, before, strict=True))
    assert all(now is then for now, then in zip(wrapped(tracing), before, strict=True))
