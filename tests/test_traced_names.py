"""The benchmark's tracer finds every function it traces on the package."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import halting_cascade
import halting_cascade.cli  # noqa: F401 -- the package does not import it; the benchmark does

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("name", _traced())
def test_traced_name_resolves(name):
    # looked up as the tracer looks it up: the module on the package, then the name
    module_name, attr = name.split(".")
    assert callable(getattr(getattr(halting_cascade, module_name), attr))
