"""Spans and counts around calls into halting_cascade's public functions.

The tracer wraps each traced function where the package's modules refer to
it, so calls made from inside the package (``cli`` calling ``generate_er``,
``generate_er`` constructing a ``Network``) are recorded as nested spans.
Nothing in the package is edited; the originals are restored on exit.
Spans stay in memory and are reduced to per-function statistics at the end.
Span times are CPU seconds of the benchmark process, like every timing the
benchmark reports.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import process_time
from typing import Callable, NamedTuple

import numpy as np

TRACED = (
    "graph.Network",
    "graph.generate_er",
    "graph.generate_ba",
    "graph.generate_star",
    "graph.load_edge_list",
    "skills.sample_skill_world",
    "skills.bind_params",
    "cascade.run_cascade",
    "cascade.run_batch",
    "oracle.oracle_success_probability",
    "oracle.simulate_oracle",
    "metrics.summarize",
    "cli.main",
)
LAYERS = ("graph", "skills", "cascade", "oracle", "metrics", "cli")
SWEEP = "sweep"  # root span the benchmark opens around one timed sweep call
COUNTS = (
    "graph.arcs_built",
    "graph.edges_parsed",
    "skills.agents_sampled",
    "cascade.steps",
    "cascade.applicants",
)
# share of calls that ended in a hire, by the function whose results count
SUCCESS_SHARES = {
    "cascade.success_share": "cascade.run_cascade",
    "oracle.simulate_oracle.success_share": "oracle.simulate_oracle",
}


class Span(NamedTuple):
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float


def _count_network(counts: Counter, args, result) -> None:
    counts["graph.arcs_built"] += int(args[0].out_degrees.sum())


def _count_edges(counts: Counter, args, result) -> None:
    counts["graph.edges_parsed"] += result.edge_count


def _count_agents(counts: Counter, args, result) -> None:
    counts["skills.agents_sampled"] += result.n


def _count_cascade(counts: Counter, args, result) -> None:
    counts["cascade.steps"] += result.steps
    counts["cascade.applicants"] += result.applicants
    counts["cascade.run_cascade.successes"] += result.success


def _count_oracle(counts: Counter, args, result) -> None:
    counts["oracle.simulate_oracle.successes"] += result.success


_COUNTERS: dict[str, Callable] = {
    "graph.Network": _count_network,
    "graph.load_edge_list": _count_edges,
    "skills.sample_skill_world": _count_agents,
    "cascade.run_cascade": _count_cascade,
    "oracle.simulate_oracle": _count_oracle,
}


def _package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [
        mod for name, mod in sorted(sys.modules.items()) if name.startswith(prefix)
    ]


@contextmanager
def _patched(package, names, make_wrapper):
    """Replace each named function by ``make_wrapper(name, original)``.

    Every module of the package that holds the original under the same name
    gets the wrapper; ``graph.Network`` is traced through ``__init__``.
    """
    undo = []
    try:
        for name in names:
            module_name, attr = name.split(".")
            home = getattr(package, module_name)
            if attr == "Network":
                cls = home.Network
                undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = make_wrapper(name, cls.__init__)
                continue
            original = getattr(home, attr)
            wrapper = make_wrapper(name, original)
            for module in _package_modules(package):
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Collects spans and counts while ``traced(package)`` is active."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        end = process_time()
        self._stack.pop()
        self.spans[index] = Span(name, parent, start, end)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = process_time()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def traced(self, package):
        return _patched(package, TRACED, self._wrap)

    def metrics(self) -> dict[str, float]:
        """Per-function, per-layer and count metrics over all recorded spans."""
        spans = self.spans
        own = self_times(spans)
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: Counter = Counter()
        for span, own_s in zip(spans, own):
            durations[span.name].append(span.end - span.start)
            self_s[span.name] += own_s

        out: dict[str, float] = {}
        for name in TRACED:
            out.update(function_metrics(name, durations[name], self_s[name]))
        for name in COUNTS:
            out[name] = float(self.counts[name])
        for metric, name in SUCCESS_SHARES.items():
            calls = len(durations[name])
            out[metric] = self.counts[f"{name}.successes"] / calls if calls else 0.0
        out.update(layer_shares(spans, own))
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans open and close on one stack, so children are disjoint and lie
    inside their parent.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def tail(values) -> float | None:
    """The highest order statistic with at least ten samples above it.

    With n samples that is the value at sorted position n - 11, roughly the
    100 * (1 - 10/n) percentile. ``None`` below 21 samples, where that
    position would fall under the median.
    """
    if len(values) < 21:
        return None
    return sorted(values)[len(values) - 11]


def function_metrics(name: str, durations, self_s: float) -> dict[str, float]:
    """``calls``, ``self_s``, ``p50_ms`` and ``tail_ms`` for one function.

    A function that was never called reports zeros, as does the tail below 21
    samples; ``calls`` is the sample count of both timings.
    """
    upper = tail(durations)
    return {
        f"{name}.calls": float(len(durations)),
        f"{name}.self_s": self_s,
        f"{name}.p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
        f"{name}.tail_ms": upper * 1e3 if upper is not None else 0.0,
    }


def layer_shares(spans, own) -> dict[str, float]:
    """Self time per layer as a share of the time inside ``sweep`` spans.

    Spans outside any sweep (set-up, such as loading the edge list) are not
    counted, so the shares describe the timed sweeps alone.
    """
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    total = sum(s.end - s.start for s in spans if s.name == SWEEP and s.parent < 0)
    busy: Counter = Counter()
    for span, own_s, root in zip(spans, own, roots):
        if spans[root].name == SWEEP and span.name != SWEEP:
            busy[span.name.split(".")[0]] += own_s
    return {f"{layer}.share": busy[layer] / total if total else 0.0 for layer in LAYERS}


# -- single-layer replay ---------------------------------------------------------


CAPTURE_LIMIT = 1000  # bounds the memory a single-layer recording holds


class Call(NamedTuple):
    args: tuple
    kwargs: dict
    result: object


def _fresh(value):
    """Seed objects are consumed by a call; everything else is shared."""
    if isinstance(value, (np.random.SeedSequence, np.random.Generator)):
        return copy.deepcopy(value)
    return value


def fresh_arguments(call: Call) -> tuple[tuple, dict]:
    return (
        tuple(_fresh(a) for a in call.args),
        {k: _fresh(v) for k, v in call.kwargs.items()},
    )


@contextmanager
def capture(package, name: str, calls: list[Call]):
    """Record the arguments and result of up to CAPTURE_LIMIT calls to one function.

    ``graph.Network`` records its constructor arguments and the finished
    instance, so a replay calls the class itself.
    """

    def make_wrapper(_, fn):
        @functools.wraps(fn)
        def recording(*args, **kwargs):
            kept_args, kept_kwargs = fresh_arguments(Call(args, kwargs, None))
            result = fn(*args, **kwargs)
            if len(calls) < CAPTURE_LIMIT:
                if name == "graph.Network":  # args[0] is the instance being built
                    calls.append(Call(kept_args[1:], kept_kwargs, args[0]))
                else:
                    calls.append(Call(kept_args, kept_kwargs, result))
            return result

        return recording

    with _patched(package, (name,), make_wrapper):
        yield


def same(a, b) -> bool:
    """Structural equality that handles arrays, dataclasses and NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return bool(a == b)
