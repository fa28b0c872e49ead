"""Tests of the benchmark's own logic: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Span, Tracer, capture, fresh_arguments, layer_shares, same, self_times, tail  # noqa: E402
from workloads import WORKLOADS, Workload, derive_seed, parse_csv  # noqa: E402

hc = run.import_package()


def test_self_time_subtracts_the_direct_children():
    spans = [
        Span("sweep", -1, 0.0, 10.0),
        Span("cli.main", 0, 1.0, 4.0),
        Span("graph.Network", 1, 2.0, 3.0),
        Span("cascade.run_cascade", 0, 4.0, 6.0),
        Span("metrics.summarize", 0, 8.5, 9.0),
        Span("graph.load_edge_list", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5, 1.0])


def test_layer_shares_cover_only_spans_inside_sweeps():
    spans = [
        Span("sweep", -1, 0.0, 10.0),
        Span("cli.main", 0, 0.0, 10.0),
        Span("graph.generate_ba", 1, 0.0, 6.0),
        Span("cascade.run_cascade", 1, 6.0, 8.0),
        Span("graph.load_edge_list", -1, 10.0, 30.0),  # set-up, not a sweep
    ]
    shares = layer_shares(spans, self_times(spans))
    assert shares["graph.share"] == pytest.approx(0.6)
    assert shares["cascade.share"] == pytest.approx(0.2)
    assert shares["cli.share"] == pytest.approx(0.2)
    assert shares["skills.share"] == 0.0


def test_tail_is_the_order_statistic_with_ten_samples_above_it():
    assert tail(list(range(20))) is None
    assert tail(list(range(21))) == 10
    assert tail(list(range(1000))) == 989


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {**Tracer().metrics(), "trace.overhead_share": 0.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in per_layer
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Every workload prepared at seeds 1 and 2, with call 0 run on each."""
    out = {}
    for name, cls in WORKLOADS.items():
        for seed in (1, 2):
            workload = cls()
            workload.prepare(seed, tmp_path_factory.mktemp(f"{name}-{seed}"))
            assert workload.load(hc) == []
            op = run.run_op(workload, hc, 0)
            assert op.problems == []
            out[name, seed] = workload, op
    return out


def _inputs(workload) -> bytes:
    if hasattr(workload, "edge_path"):
        return workload.edge_path.read_bytes()
    return " ".join(workload.argv(0)[2:]).encode() + workload.config_paths[0].read_bytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_gives_other_inputs_with_the_same_row_counts(prepared, name):
    (one, op_one), (two, op_two) = prepared[name, 1], prepared[name, 2]
    assert _inputs(one) != _inputs(two)
    assert op_one.output != op_two.output
    assert one.check(hc, op_one.output, 0) == []
    assert two.check(hc, op_two.output, 0) == []
    rows_one, rows_two = parse_csv(op_one.output)[1], parse_csv(op_two.output)[1]
    if name == "ba-vs-er":  # one row per seed-degree bin present
        rows_one = {(r["topology"], r["p_r"]) for r in rows_one}
        rows_two = {(r["topology"], r["p_r"]) for r in rows_two}
    assert len(rows_one) == len(rows_two)


def _corrupt(text: str, column: str, value: str, row: int = 0) -> str:
    header, rows = parse_csv(text)
    rows[row][column] = value
    lines = [",".join(header)] + [",".join(r[c] for c in header) for r in rows]
    return "\n".join(lines) + "\n"


def test_failed_ops_share_counts_corrupted_outputs(prepared):
    workload, good = prepared["ihc-vs-oracle", 1]
    reps = workload.config["reps"]
    assert _corrupt(good.output, "n_runs", str(reps)) == good.output
    analytic = parse_csv(good.output)[1][0]["analytic_oracle_success"]
    bad = [
        _corrupt(good.output, "n_runs", str(reps + 1)),
        _corrupt(good.output, "success_rate", "1.5"),
        _corrupt(good.output, "analytic_oracle_success", repr(float(analytic) * (1 + 1e-12))),
        "\n".join(good.output.splitlines()[:-1]) + "\n",  # a row missing
        good.output.replace("analytic_oracle_success", "analytic"),
    ]
    ops = [run.Op(0, 1.0, good.output)] + [run.Op(0, 1.0, text) for text in bad]
    ops.append(run.Op(0, problems=["call 0 raised RuntimeError: boom"]))
    run.check_outputs(workload, hc, ops)
    assert ops[0].problems == []
    assert all(op.problems for op in ops[1:])
    assert run.failed_ops_share(ops) == pytest.approx(6 / 7)


def test_overhead_share_is_zero_when_no_untraced_call_passed(prepared):
    workload, good = prepared["cascade-batch", 1]
    failed = [run.Op(0, problems=["call 0 raised RuntimeError: boom"])]
    assert run.overhead_share(workload, [good], failed) == 0.0
    assert run.overhead_share(workload, [run.Op(0, 2.0, "")], [run.Op(0, 1.0, "")]) == 0.5


def test_a_rerun_that_differs_is_a_failed_operation(prepared):
    workload, good = prepared["cascade-batch", 1]
    rerun = run.Op(0, 1.0, _corrupt(good.output, "total_steps", "0", row=1))
    run.require_same_output(rerun, good, "rerun at the same seed")
    assert rerun.problems and run.failed_ops_share([good, rerun]) == 0.5


def test_traced_calls_give_the_same_output_and_unpatch_on_exit(prepared):
    workload, plain = prepared["cascade-batch", 1]
    originals = hc.cli.main, hc.cascade.run_cascade, hc.graph.Network.__init__
    tracer = Tracer()
    with tracer.traced(hc):
        assert hc.cascade.run_cascade is not originals[1]
        traced = run.run_op(workload, hc, 0, tracer)
    assert (hc.cli.main, hc.cascade.run_cascade, hc.graph.Network.__init__) == originals
    assert traced.output == plain.output
    metrics = tracer.metrics()
    assert metrics["cascade.run_batch.calls"] == len(workload.points)
    assert metrics["cascade.run_cascade.calls"] == workload.reps
    assert metrics["cascade.share"] > 0.5


class SmallEr(Workload):
    """One small ER network per call."""

    name = "small-er"
    reps = 1
    trace_calls = 3

    def call(self, hc, index):
        return hc.generate_er(60, 4.0, derive_seed(self.seed, index))

    def render(self, raw):
        return f"{raw.n} {raw.edge_count}"

    def check(self, hc, text, index):
        return []


@pytest.mark.parametrize("seconds", [0.01, 0.5])
def test_traced_run_replays_a_fixed_number_of_calls_whatever_the_time(capsys, tmp_path, seconds):
    workload = SmallEr()
    workload.prepare(1, tmp_path)
    args = run.parse_args(["--workload", "ba-vs-er", "--seconds", str(seconds), "--trace", "1"])
    assert run.run_traced(workload, args, hc) == 0
    meta, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert meta["meta"]["trace_calls"] == 3 and meta["meta"]["calls"] >= 3
    assert result["correct"] and result["metrics"]["graph.generate_er.calls"]["value"] == 3


def test_single_layer_replay_reproduces_recorded_results():
    calls = []
    with capture(hc, "graph.generate_er", calls):
        network = hc.generate_er(200, 8.0, np.random.SeedSequence(3))
    assert len(calls) == 1 and calls[0].result is network
    args, kwargs = fresh_arguments(calls[0])
    assert same(hc.generate_er(*args, **kwargs), network)
    assert not same(hc.generate_er(200, 8.0, np.random.SeedSequence(4)), network)
