"""The benchmark's three workloads: inputs, one timed sweep call, checks.

Each workload makes its inputs from the workload seed alone: a CLI config
file (the sweep's master seed is derived from the workload seed and the
call index) or, for ``cascade-batch``, an edge list drawn by the benchmark's
own generator. The program only ever sees those generated files.

``call`` is the timed region of one operation; ``render`` and ``check``
run outside it. ``check`` returns a list of problems, empty when the output
is correct.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

SUMMARY_FIELDS = [
    "n_runs",
    "success_rate",
    "median_chain_length",
    "mean_chain_depth",
    "mean_applicants",
]


class OpFailed(Exception):
    """A sweep call that returned an error instead of output."""


def derive_seed(seed: int, index: int) -> int:
    """Master seed of sweep call ``index`` in a run with workload ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def _probability_problems(rows, columns) -> list[str]:
    problems = []
    for number, row in enumerate(rows, start=2):
        for column in columns:
            value = float(row[column])
            if not 0.0 <= value <= 1.0:
                problems.append(f"line {number}: {column}={row[column]} outside [0, 1]")
    return problems


class Workload:
    name: str
    why: str
    reps: int  # replications per sweep call
    # sweep calls a traced run replays: a constant, so that per-layer totals
    # and counts measure a fixed amount of work whatever the machine's speed
    trace_calls: int
    cycle = 1  # sweep calls in one pass over the workload's inputs

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write this run's inputs under ``workdir``."""
        self.seed = seed

    def setup_args(self) -> list[str]:
        """Extra arguments of the set-up probe (an edge list to load)."""
        return []

    def load(self, hc) -> list[str]:
        """In-process set-up after import; returns problems found."""
        return []

    def call(self, hc, index: int):
        raise NotImplementedError

    def render(self, raw) -> str:
        raise NotImplementedError

    def check(self, hc, text: str, index: int) -> list[str]:
        raise NotImplementedError


class CliSweep(Workload):
    """One ``halting_cascade.cli.main`` call per operation.

    Call ``i`` runs config ``i`` modulo the number of configs.
    """

    command: str
    config: dict
    fields: list[str]

    def configs(self) -> list[dict]:
        return [self.config]

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.config_paths = []
        for number, config in enumerate(self.configs()):
            path = workdir / f"{self.name}-{number}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.config_paths.append(path)

    def argv(self, index: int) -> list[str]:
        path = self.config_paths[index % len(self.config_paths)]
        seed = derive_seed(self.seed, index)
        return [self.command, "--config", str(path), "--seed", str(seed)]

    def call(self, hc, index: int):
        out = io.StringIO()
        with redirect_stdout(out):
            code = hc.cli.main(self.argv(index))
        return code, out.getvalue()

    def render(self, raw) -> str:
        code, text = raw
        if code != 0:
            raise OpFailed(f"{self.command} exited with code {code}")
        return text

    def check(self, hc, text: str, index: int) -> list[str]:
        header, rows = parse_csv(text)
        if header != self.fields:
            return [f"header {header} != {self.fields}"]
        configs = self.configs()
        return self.check_rows(hc, rows, configs[index % len(configs)])

    def check_rows(self, hc, rows, config: dict) -> list[str]:
        raise NotImplementedError


class BaVsEr(CliSweep):
    name = "ba-vs-er"
    why = "graph construction: a fresh BA or ER network of 2,000 nodes per replication"
    command = "ba-vs-er"
    # one sub-critical (50 * 0.01 * 0.9 < 1) and one super-critical p_r
    config = {
        "n": 2000,
        "er_mean_degree": 50.0,
        "ba_attachment": 50,
        "ba_core": 50,
        "p_r": [0.01, 0.1],
        "reps": 1,
    }
    reps = 2 * len(config["p_r"]) * config["reps"]
    trace_calls = 14
    fields = [
        "topology",
        "n",
        "er_mean_degree",
        "ba_attachment",
        "p_r",
        "p_a",
        "p_h",
        "degree_bin_lo",
        "degree_bin_hi",
        *SUMMARY_FIELDS,
    ]

    def check_rows(self, hc, rows, config: dict) -> list[str]:
        # rows are per seed-degree bin, so their count varies; the runs of
        # each (topology, p_r) group must add up to the configured reps
        runs: dict[tuple[str, float], int] = {}
        problems = []
        for row in rows:
            key = (row["topology"], float(row["p_r"]))
            runs[key] = runs.get(key, 0) + int(row["n_runs"])
            if not int(row["degree_bin_lo"]) < int(row["degree_bin_hi"]):
                problems.append(f"empty degree bin in {row}")
        expected = {(t, p): config["reps"] for t in ("er", "ba") for p in config["p_r"]}
        if runs != expected:
            problems.append(f"n_runs per (topology, p_r) {runs} != {expected}")
        return problems + _probability_problems(rows, ("p_r", "p_a", "p_h", "success_rate"))


class IhcVsOracle(CliSweep):
    name = "ihc-vs-oracle"
    why = "skill worlds and the oracle: per-agent p_a/p_h cascades and one-hop stars"
    command = "ihc-vs-oracle"
    config = {
        "population": 2000,
        "mean_degree": 20.0,
        "reach_fraction": 0.5,
        "skill_rate": 3.0,
        "vacancy_sizes": [2, 4, 6, 8],
        "p_r": [0.2, 1.0],
        "mass_threshold": 0.98,
        # the analytic oracle value is computed once per cell; five reps per
        # cell keep it near its share of a default-size sweep (about 4%)
        "reps": 5,
    }
    # one cell of the grid per call, so that calls stay short enough for the
    # reference kernel between them to follow the machine's speed
    cells = list(itertools.product(config["vacancy_sizes"], config["p_r"]))
    reps = config["reps"]
    cycle = len(cells)
    trace_calls = 5 * cycle
    fields = [
        "system",
        "population",
        "mean_degree",
        "reach_fraction",
        "skill_rate",
        "vacancy_size",
        "p_r",
        "analytic_oracle_success",
        *SUMMARY_FIELDS,
    ]

    def configs(self) -> list[dict]:
        return [{**self.config, "vacancy_sizes": [v], "p_r": [p]} for v, p in self.cells]

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self._analytic: dict[tuple[int, float], float] = {}

    def analytic(self, hc, vacancy_size: int, p_r: float) -> float:
        """A standalone ``oracle_success_probability`` call for one cell."""
        key = (vacancy_size, p_r)
        if key not in self._analytic:
            spec = hc.OracleSpec(
                population=self.config["population"],
                reach_fraction=self.config["reach_fraction"],
                p_r=p_r,
                skill_rate=self.config["skill_rate"],
                vacancy_size=vacancy_size,
            )
            self._analytic[key] = hc.oracle_success_probability(
                spec, self.config["mass_threshold"]
            )
        return self._analytic[key]

    def check_rows(self, hc, rows, config: dict) -> list[str]:
        cells = [
            (v, p, system)
            for v in config["vacancy_sizes"]
            for p in config["p_r"]
            for system in ("ihc", "oracle")
        ]
        if len(rows) != len(cells):
            return [f"{len(rows)} rows, expected {len(cells)}"]
        problems = _probability_problems(rows, ("p_r", "analytic_oracle_success", "success_rate"))
        for row, (vacancy_size, p_r, system) in zip(rows, cells):
            got = (row["system"], int(row["vacancy_size"]), float(row["p_r"]))
            if got != (system, vacancy_size, p_r):
                problems.append(f"row {got} where {(system, vacancy_size, p_r)} belongs")
                continue
            if int(row["n_runs"]) != config["reps"]:
                problems.append(f"{got}: n_runs={row['n_runs']}")
            want = self.analytic(hc, vacancy_size, p_r)
            if float(row["analytic_oracle_success"]) != want:
                problems.append(
                    f"{got}: analytic_oracle_success={row['analytic_oracle_success']}"
                    f" but oracle_success_probability gives {want!r}"
                )
        return problems


def hub_network(n: int, mean_degree: float, seed: int) -> np.ndarray:
    """Edges of a connected graph with power-law expected degrees.

    A random recursive tree keeps every node connected; Chung-Lu pairs with
    weights (i + 10) ** -(1 / (gamma - 1)), gamma = 2.5, add the hubs. Node
    labels are shuffled, and self-loops and duplicates are removed.
    """
    rng = np.random.default_rng(seed)
    child = np.arange(1, n)
    tree = np.column_stack([child, (rng.random(n - 1) * child).astype(np.int64)])
    weight = (np.arange(n) + 10.0) ** (-1 / 1.5)
    weight /= weight.sum()
    extra = int(n * mean_degree / 2) - (n - 1)
    pairs = rng.choice(n, size=(extra, 2), p=weight)
    both = np.concatenate([tree, pairs])
    lo, hi = both.min(axis=1), both.max(axis=1)
    keys = np.unique((lo * n + hi)[lo != hi])
    label = rng.permutation(n)
    edges = np.column_stack([label[keys // n], label[keys % n]])
    return edges[rng.permutation(len(edges))]


class CascadeBatch(Workload):
    name = "cascade-batch"
    why = "the cascade engine: run_batch on one fixed hub network read from an edge list"
    nodes = 5000
    mean_degree = 20.0
    hubs = 3
    # (label, p_r, p_a, p_h, reps, start at the hubs): a saturating no-hire
    # point that is per-arc work, started at the highest-degree nodes so
    # that every replication reaches most of the network, and two points
    # with random seed agents that end within a step or two and are per-call
    # overhead; sized so the two halves take comparable time
    points = (
        ("saturating", 0.1, 0.1, 0.0, 40, True),
        ("halting", 0.5, 1.0, 1.0, 300, False),
        ("dying", 0.02, 0.1, 0.5, 300, False),
    )
    reps = sum(p[4] for p in points)
    trace_calls = 40
    fields = ["point", "p_r", "p_a", "p_h", "master_seed", *SUMMARY_FIELDS, "total_steps"]

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.edges = hub_network(self.nodes, self.mean_degree, seed)
        degree = np.bincount(self.edges.ravel(), minlength=self.nodes)
        self.hub_ids = tuple(np.argsort(-degree, kind="stable")[: self.hubs].tolist())
        self.edge_path = workdir / "hub.edges"
        lines = "".join(f"{u} {v}\n" for u, v in self.edges.tolist())
        self.edge_path.write_text(lines, encoding="utf-8")

    def setup_args(self) -> list[str]:
        return [str(self.edge_path)]

    def load(self, hc) -> list[str]:
        # the labels are exactly 0..n-1, so the loader keeps every node's id
        self.network = hc.graph.load_edge_list(str(self.edge_path))
        got = (self.network.n, self.network.edge_count)
        want = (self.nodes, len(self.edges))
        return [] if got == want else [f"loaded (n, edges) {got} != {want}"]

    def call(self, hc, index: int):
        seed = derive_seed(self.seed, index)
        out = []
        for label, p_r, p_a, p_h, reps, from_hubs in self.points:
            params = hc.cascade.IHCParams(p_r=p_r, p_a=p_a, p_h=p_h)
            seeds = self.hub_ids if from_hubs else None
            results = hc.cascade.run_batch(self.network, params, reps, seed, seeds)
            out.append((label, p_r, p_a, p_h, seed, hc.metrics.summarize(results), results))
        return out

    def render(self, raw) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.fields)
        for label, p_r, p_a, p_h, seed, summary, results in raw:
            values = [summary.as_dict()[f] for f in SUMMARY_FIELDS]
            writer.writerow([label, p_r, p_a, p_h, seed, *values, sum(r.steps for r in results)])
        return buffer.getvalue()

    def check(self, hc, text: str, index: int) -> list[str]:
        header, rows = parse_csv(text)
        if header != self.fields:
            return [f"header {header} != {self.fields}"]
        if len(rows) != len(self.points):
            return [f"{len(rows)} rows, expected {len(self.points)}"]
        problems = _probability_problems(rows, ("success_rate",))
        for row, (label, _, _, p_h, reps, _) in zip(rows, self.points):
            if row["point"] != label or int(row["n_runs"]) != reps:
                problems.append(f"row {row['point']} n_runs={row['n_runs']}, want {label} {reps}")
            if p_h == 0 and float(row["success_rate"]) != 0.0:
                problems.append(f"{label}: hires with p_h=0")
            if p_h == 0 and not math.isnan(float(row["mean_chain_depth"])):
                problems.append(f"{label}: chain depth without a hire")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (BaVsEr, IhcVsOracle, CascadeBatch)
}
