#!/usr/bin/env python3
"""Sweep benchmark for halting_cascade; see README.md in this directory.

    python3 bench/run.py --workload ba-vs-er --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 0
    python3 bench/run.py --workload ba-vs-er --layer graph.generate_ba

One workload per process. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay, ``--layer`` times one
traced function alone on the arguments the workload passes it. The last
line of standard output is the result as JSON; the line before it holds the
run's metadata.

Timings are CPU seconds of the measuring process, expressed in reference
seconds (see refspeed.py); ``--seconds`` is wall time.
"""
from __future__ import annotations

import os

# One BLAS thread: the program does no parallel numpy work, and idle BLAS
# threads would add their spinning to the process CPU time measured here.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import refspeed  # noqa: E402
from spans import SWEEP, TRACED, Tracer, capture, fresh_arguments, same, tail  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 7
MIN_CALLS = 3
KERNEL_SHARE = 0.05  # reference-kernel CPU time run after each call, per call CPU second
LAYER_BLOCK_S = 0.05  # single-layer replays between two reference-kernel blocks
EXPECTED_SHA256 = BENCH / "expected_sha256.json"
END_TO_END = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing package, failed set-up)."""


def import_package():
    """Import halting_cascade from this checkout's ``src``, never elsewhere."""
    if not (SRC / "halting_cascade" / "__init__.py").is_file():
        raise BenchError(f"no halting_cascade package under {SRC}")
    sys.path.insert(0, str(SRC))
    hc = importlib.import_module("halting_cascade")
    importlib.import_module("halting_cascade.cli")
    if Path(hc.__file__).resolve().parent != SRC / "halting_cascade":
        raise BenchError(f"halting_cascade was imported from {hc.__file__}")
    return hc


def setup_seconds(workload: Workload) -> tuple[float, float]:
    """Median cold set-up time over fresh interpreters: reference and raw CPU."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), *workload.setup_args()],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (
        statistics.median(s["setup_s"] for s in samples),
        statistics.median(s["cpu_s"] for s in samples),
    )


@dataclass
class Op:
    """One sweep call: CPU seconds, nearby kernel CPU seconds, output, problems."""

    index: int
    seconds: float | None = None
    output: str | None = None
    problems: list[str] = field(default_factory=list)
    kernel_s: float = refspeed.REFERENCE_KERNEL_S


def run_op(workload: Workload, hc, index: int, tracer: Tracer | None = None) -> Op:
    try:
        start = process_time()
        if tracer is None:
            raw = workload.call(hc, index)
        else:
            with tracer.span(SWEEP):
                raw = workload.call(hc, index)
        seconds = process_time() - start
        return Op(index, seconds, workload.render(raw))
    except Exception as exc:  # a failing sweep call is counted, not fatal
        return Op(index, problems=[f"call {index} raised {type(exc).__name__}: {exc}"])


def run_calls(workload: Workload, hc, done, tracer: Tracer | None = None) -> list[Op]:
    """Calls 0, 1, ... until ``done(count)``, each between two kernel blocks.

    A call's speed reference is the mean of the blocks before and after it.
    """
    ops: list[Op] = []
    refspeed.kernel_seconds()  # warm-up
    before = refspeed.kernel_block(0.0)
    while not done(len(ops)):
        op = run_op(workload, hc, len(ops), tracer)
        after = refspeed.kernel_block(KERNEL_SHARE * (op.seconds or 0.0))
        op.kernel_s = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def timed_calls(workload: Workload, hc, seconds: float, min_calls: int = MIN_CALLS) -> list[Op]:
    start = perf_counter()
    return run_calls(
        workload, hc, lambda count: count >= min_calls and perf_counter() - start >= seconds
    )


def check_outputs(workload: Workload, hc, ops: list[Op]) -> None:
    for op in ops:
        if op.output is None:
            continue
        try:
            op.problems += workload.check(hc, op.output, op.index)
        except (ValueError, KeyError, TypeError) as exc:
            op.problems.append(f"call {op.index}: unparsable output ({exc!r})")


def require_same_output(op: Op, reference: Op, what: str) -> None:
    if op.output is not None and reference.output is not None and op.output != reference.output:
        op.problems.append(f"call {op.index}: {what} output differs")


def reps_per_s(workload: Workload, ops: list[Op], corrected: bool = True) -> float:
    """Replications per second over all calls that passed their checks.

    A total rather than a median of calls: the machine's speed flips between
    phases, and a total averages over them where the median of short calls
    jumps between the two. ``corrected`` selects reference over raw CPU time.
    """
    ok = [op for op in ops if not op.problems]
    if corrected:
        seconds = sum(refspeed.at_reference(op.seconds, op.kernel_s) for op in ok)
    else:
        seconds = sum(op.seconds for op in ok)
    return workload.reps * len(ok) / seconds if ok else 0.0


def failed_ops_share(ops: list[Op]) -> float:
    return sum(bool(op.problems) for op in ops) / len(ops)


def overhead_share(workload: Workload, traced: list[Op], plain: list[Op]) -> float:
    """1 - traced / untraced ``reps_per_s``; 0 when no untraced call passed."""
    untraced = reps_per_s(workload, plain)
    return 1 - reps_per_s(workload, traced) / untraced if untraced else 0.0


# -- metadata ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def draw_schedule(name: str, seed: int, digest: str | None) -> str:
    """Compare call 0's output hash at the default seed with the recorded one.

    A different hash means the program now draws its random numbers in
    another order; that is reported, not counted as a failure.
    """
    if seed != DEFAULT_SEED or digest is None:
        return "not compared"
    recorded = json.loads(EXPECTED_SHA256.read_text(encoding="utf-8")).get(name)
    if digest == recorded:
        return "unchanged"
    print(
        f"draw schedule moved: {name} output at seed {seed} has sha256 {digest},"
        f" recorded {recorded}",
        file=sys.stderr,
    )
    return "moved"


def metadata(workload: Workload, args, ops: list[Op], **extra) -> dict:
    first = ops[0].output
    digest = hashlib.sha256(first.encode()).hexdigest() if first is not None else None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps_per_call": workload.reps,
        "calls": len(ops),
        "replications": workload.reps * len(ops),
        "kernel_ms": 1e3 * statistics.fmean(op.kernel_s for op in ops),
        "trace.overhead_share": None,
        **extra,
        "output_sha256": digest,
        "draw_schedule": draw_schedule(workload.name, args.seed, digest),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    return "count"


def emit(meta: dict, attempted: int, failed: int, problems: list[str], metrics: dict) -> int:
    """Print the metadata line and the result line; ``metrics`` maps name to value."""
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"failed_ops_share {failed / attempted} ({failed}/{attempted})", file=sys.stderr)
    units = {name: END_TO_END.get(name) or unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def emit_ops(meta: dict, ops: list[Op], problems: list[str], metrics: dict) -> int:
    problems = problems + [p for op in ops for p in op.problems]
    return emit(meta, len(ops), sum(bool(op.problems) for op in ops), problems, metrics)


# -- modes -------------------------------------------------------------------


def run_untraced(workload: Workload, args, hc) -> int:
    setup_s, setup_cpu_s = setup_seconds(workload)
    problems = workload.load(hc)
    ops = timed_calls(workload, hc, args.seconds)
    rerun = run_calls(workload, hc, lambda count: count == 1)[0]
    require_same_output(rerun, ops[0], "rerun at the same seed")
    check_outputs(workload, hc, ops)
    metrics = {
        "setup_s": setup_s,
        "reps_per_s": reps_per_s(workload, ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"cpu.setup_s": setup_cpu_s, "cpu.reps_per_s": reps_per_s(workload, ops, False)}
    return emit_ops(metadata(workload, args, ops, **raw), ops + [rerun], problems, metrics)


def run_traced(workload: Workload, args, hc) -> int:
    """Untraced calls for half the time, then a traced replay of the first calls.

    The replay is always ``workload.trace_calls`` calls, so per-layer totals
    and counts describe a fixed amount of work and fall as the program gets
    faster. Times of the per-layer metrics are in reference seconds at the
    traced calls' mean kernel speed; shares and counts need no correction.
    """
    tracer = Tracer()
    with tracer.traced(hc):
        problems = workload.load(hc)
    plain = timed_calls(workload, hc, args.seconds / 2, workload.trace_calls)
    with tracer.traced(hc):
        traced = run_calls(workload, hc, lambda count: count == workload.trace_calls, tracer)
    for op, reference in zip(traced, plain):
        require_same_output(op, reference, "traced")
    check_outputs(workload, hc, plain)
    overhead = overhead_share(workload, traced, plain[: len(traced)])
    kernel_s = statistics.fmean(op.kernel_s for op in traced)
    metrics = {
        name: refspeed.at_reference(value, kernel_s) if unit_of(name) in ("s", "ms") else value
        for name, value in tracer.metrics().items()
    }
    metrics["trace.overhead_share"] = overhead
    extra = {"trace_calls": len(traced), "trace.overhead_share": overhead}
    meta = metadata(workload, args, plain, **extra)
    return emit_ops(meta, plain + traced, problems, metrics)


def run_layer(workload: Workload, args, hc) -> int:
    """Replay for ``--seconds`` the calls one traced function got in one pass.

    Replays run in blocks of about LAYER_BLOCK_S CPU seconds between kernel
    blocks, and each replay's time is corrected by its block's kernel speed.
    """
    calls: list = []
    with capture(hc, args.layer, calls):
        problems = workload.load(hc)
        ops = [run_op(workload, hc, index) for index in range(workload.cycle)]
    problems += [p for op in ops for p in op.problems]
    if problems:
        raise BenchError(f"workload failed while recording: {problems}")
    if not calls:
        raise BenchError(f"{workload.name} never calls {args.layer}")
    module, attr = args.layer.split(".")
    fn = getattr(getattr(hc, module), attr)
    times: list[float] = []
    mismatches = 0
    refspeed.kernel_seconds()  # warm-up
    before = refspeed.kernel_block(0.0)
    start = perf_counter()
    while len(times) < len(calls) or perf_counter() - start < args.seconds:
        block: list[float] = []
        while not block or sum(block) < LAYER_BLOCK_S:
            call = calls[(len(times) + len(block)) % len(calls)]
            call_args, call_kwargs = fresh_arguments(call)
            with redirect_stdout(io.StringIO()):
                t0 = process_time()
                result = fn(*call_args, **call_kwargs)
                block.append(process_time() - t0)
            mismatches += not same(result, call.result)
        after = refspeed.kernel_block(KERNEL_SHARE * sum(block))
        times += [refspeed.at_reference(t, (before + after) / 2) for t in block]
        before = after
    upper = tail(times)
    metrics = {
        f"{args.layer}.calls": float(len(times)),
        f"{args.layer}.p50_ms": statistics.median(times) * 1e3,
        f"{args.layer}.tail_ms": upper * 1e3 if upper is not None else 0.0,
        f"{args.layer}.distinct_inputs": float(len(calls)),
    }
    meta = metadata(workload, args, ops, layer=args.layer)
    problems = [f"{mismatches} replays differ from the recorded result"] if mismatches else []
    return emit(meta, len(times), mismatches, problems, metrics)


def run_all(args) -> int:
    """Every workload in its own process; prints one table of metrics."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]  # fmt: skip
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        results[name] = {"meta": meta, **result}
        rows = [("failed_ops_share", result["failed"] / result["attempted"], "ratio")]
        rows += [(m, e["value"], e["unit"]) for m, e in result["metrics"].items()]
        rows += [(m, meta[m], END_TO_END[m.split(".")[1]]) for m in meta if m.startswith("cpu.")]
        for metric, value, unit in rows:
            print(f"{name:14} {metric:42} {value:<22.6g} {unit}")
        print(
            f"{name:14} {meta['replications']} replications in {meta['calls']} calls,"
            f" sha256 {meta['output_sha256']} (draw schedule {meta['draw_schedule']})"
        )
        if not result["correct"]:
            print(f"{name}: outputs failed their checks\n{proc.stderr}", file=sys.stderr)
            status = 1
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer", choices=TRACED, help="time one traced function alone")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.layer and args.workload == "all":
        parser.error("--layer needs one workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        hc = import_package()
        workload = WORKLOADS[args.workload]()
        with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as workdir:
            workload.prepare(args.seed, Path(workdir))
            if args.layer:
                return run_layer(workload, args, hc)
            if args.trace:
                return run_traced(workload, args, hc)
            return run_untraced(workload, args, hc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
