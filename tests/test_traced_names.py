"""The benchmark's tracer finds every function it traces on the package, and
the functions it wraps see every call."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import halting_cascade
import halting_cascade.cli  # noqa: F401 -- the package does not import it; the benchmark does
from halting_cascade import cascade
from halting_cascade.cascade import IHCParams
from halting_cascade.graph import generate_ba

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


# The tracer patches ``cascade.run_cascade`` by name, so its span and its
# ``cascade.steps`` count see every run only while ``replicate`` looks the
# engine up by its module-level name at call time.


def _counting_engine(monkeypatch) -> list:
    results = []
    original = cascade.run_cascade

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cascade, "run_cascade", counting)
    return results


@pytest.mark.parametrize("seeds", [None, (0, 3)], ids=["drawn-seeds", "fixed-seeds"])
def test_run_batch_runs_each_replication_through_the_module_name(monkeypatch, seeds):
    seen = _counting_engine(monkeypatch)
    network = generate_ba(30, 3, 2, seed=1)
    results = cascade.run_batch(network, IHCParams(0.3, 0.2, 0.5), 70, 4, seeds)
    assert len(seen) == 70
    assert seen == results


def test_replicate_on_a_network_factory_runs_every_cell_through_the_module_name(monkeypatch):
    seen = _counting_engine(monkeypatch)
    params = [IHCParams(0.3, 0.2, 0.5), IHCParams(0.6, 0.1, 0.2), IHCParams(0.9, 0.0, 0.0)]
    runs = cascade.replicate(
        3, [(0,), (1,), (2,)], 70, lambda rng: generate_ba(30, 3, 2, rng), params
    )
    results = [result for _, _, outcomes in runs for result, _ in outcomes]
    assert len(seen) == 70 * 3
    assert seen == results
