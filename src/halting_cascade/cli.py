"""Experiment driver: parameter sweeps over the cascade model and the baseline.

Every subcommand is a pure function of its configuration: the master seed
names a stream per cell, child and replication, the cells of a group share
each replication's draws of the network (on G(n, p), the seed agent's
neighbours; cascades sample the rest of the graph as they go), rows are
buffered and written in grid order, and a rerun with the same inputs
produces byte-identical output.
Configuration merges built-in defaults, an optional scale preset,
an optional JSON config file, and command-line flags, in that order.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from .cascade import IHCParams, replicate
from .graph import (
    EdgeListError,
    ErdosRenyi,
    degree_stats,
    generate_ba,
    load_edge_list,
)
from .incentives import compute_payouts
from .metrics import classify_regime, degree_bin, summarize
from .oracle import (
    MASS_THRESHOLD,
    OracleSpec,
    oracle_success_probability,
    p_lambda,
    truncated_series,
    truncation_bounds,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


# -- configuration schema ------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    default: Any
    check: Callable[[str, Any], Any]
    required: bool = False


def _int_at_least(minimum: int):
    def check(name: str, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{name} must be at least {minimum}, got {value}")
        return value

    return check


def _number(lo: float | None = None, hi: float | None = None, open_lo: bool = False):
    def check(name: str, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:  # an int past the largest float
            raise ConfigError(f"{name} must be finite, got {value}") from None
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
        if lo is not None and (v <= lo if open_lo else v < lo):
            bound = "greater than" if open_lo else "at least"
            raise ConfigError(f"{name} must be {bound} {lo}, got {v}")
        if hi is not None and v > hi:
            raise ConfigError(f"{name} must be at most {hi}, got {v}")
        return v

    return check


_prob = _number(0.0, 1.0)


def _list_of(inner: Callable[[str, Any], Any]):
    def check(name: str, value: Any) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a nonempty list")
        return [inner(f"{name}[{i}]", v) for i, v in enumerate(value)]

    return check


def _boolean(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _text(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a nonempty string")
    return value


def _budget(name: str, value: Any) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} must be a number or a fraction string like '5/2'")
    try:
        b = Fraction(value)
        float(b)  # no amount printed exceeds the budget, so this is the one to check
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{name} is not a valid amount: {value!r}") from None
    if b <= 0:
        raise ConfigError(f"{name} must be positive")
    return b


def _read_config_file(path: str, schema: dict[str, _Field], command: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys for {command}: {', '.join(unknown)}")
    return data


def _merge_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    schema = _COMMANDS[command].schema
    cfg = {key: field.default for key, field in schema.items()}
    if getattr(args, "preset", None) == "paper":  # desk is the defaults
        cfg.update(_COMMANDS[command].paper)
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config, schema, command))
    for key in schema:
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override

    merged: dict[str, Any] = {}
    for key, field in schema.items():
        value = cfg[key]
        if value is None:
            if field.required:
                raise ConfigError(f"{command}: {key} is required (flag or config file)")
            merged[key] = None
        else:
            merged[key] = field.check(key, value)
    return merged


# -- output --------------------------------------------------------------------


def _clean(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _render(rows: Sequence[dict], fmt: str) -> str:
    """Rows as CSV or JSON lines; the columns are the rows' keys in first-seen order."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    if fmt == "jsonl":
        return "".join(
            json.dumps({key: _clean(row.get(key)) for key in fields}) + "\n" for row in rows
        )
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _clean(row.get(key)) for key in fields})
    return buffer.getvalue()


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write output to {out}: {exc}") from exc


# -- subcommands ---------------------------------------------------------------


def cmd_heatmap(cfg: dict) -> list[dict]:
    """Success and chain-length grid over p_r x p_a x p_h on G(n, p).

    The whole grid is one group: each replication's seed agent and its
    neighbours are shared by every cell, and each cell's cascade samples the
    rest of the graph as it goes.
    """
    grid = list(itertools.product(cfg["p_r"], cfg["p_a"], cfg["p_h"]))
    er = ErdosRenyi(cfg["n"], cfg["mean_degree"])
    params = [IHCParams(p_r=p_r, p_a=p_a, p_h=p_h) for p_r, p_a, p_h in grid]
    paths = [(cell,) for cell in range(len(grid))]
    runs = replicate(cfg["seed"], paths, cfg["reps"], er, params)
    per_cell = zip(*[outcomes for _, _, outcomes in runs])
    rows = []
    for (p_r, p_a, p_h), cell_runs in zip(grid, per_cell):
        report = classify_regime(cfg["mean_degree"], p_r, p_a, p_h)
        rows.append(
            {
                "p_r": p_r,
                "p_a": p_a,
                "p_h": p_h,
                "n": cfg["n"],
                "mean_degree": cfg["mean_degree"],
                "diffusion_value": report.diffusion_value,
                "halting_value": report.halting_value,
                "regime": report.regime.value,
                **summarize([result for result, _ in cell_runs]).as_dict(),
            }
        )
    return rows


def cmd_ba_vs_er(cfg: dict) -> list[dict]:
    """Seed-degree-binned outcomes on preferential-attachment vs ER networks.

    The ``p_r`` cells of one topology are one group: they share each
    replication's seed node and, on BA, its network; on G(n, p) they share
    the seed's neighbours, and each cascade samples the rest as it goes.
    """
    ba_core = cfg["ba_core"] if cfg["ba_core"] is not None else cfg["ba_attachment"]
    er = ErdosRenyi(cfg["n"], cfg["er_mean_degree"])
    ba = functools.partial(generate_ba, cfg["n"], ba_core, cfg["ba_attachment"])
    params = [IHCParams(p_r=p_r, p_a=cfg["p_a"], p_h=cfg["p_h"]) for p_r in cfg["p_r"]]
    rows = []
    for topo_idx, (topology, build) in enumerate((("er", er), ("ba", ba))):
        paths = [(topo_idx, p_r_idx) for p_r_idx in range(len(params))]
        runs = replicate(cfg["seed"], paths, cfg["reps"], build, params)
        bins: list[dict[tuple[int, int], list]] = [{} for _ in params]
        for network, (seed_node,), outcomes in runs:
            key = degree_bin(len(network.out_neighbors(seed_node)))
            for cell_bins, (result, _) in zip(bins, outcomes):
                cell_bins.setdefault(key, []).append(result)
        for p_r, cell_bins in zip(cfg["p_r"], bins):
            for lo, hi in sorted(cell_bins):
                rows.append(
                    {
                        "topology": topology,
                        "n": cfg["n"],
                        "er_mean_degree": cfg["er_mean_degree"] if topology == "er" else None,
                        "ba_attachment": cfg["ba_attachment"] if topology == "ba" else None,
                        "p_r": p_r,
                        "p_a": cfg["p_a"],
                        "p_h": cfg["p_h"],
                        "degree_bin_lo": lo,
                        "degree_bin_hi": hi,
                        **summarize(cell_bins[(lo, hi)]).as_dict(),
                    }
                )
    return rows


def _oracle_spec(cfg: dict, vacancy_size: int, p_r: float) -> OracleSpec:
    """The direct-posting baseline of one (vacancy size, p_r) cell of ``cfg``."""
    return OracleSpec(
        cfg["population"], cfg["reach_fraction"], p_r, cfg["skill_rate"], vacancy_size
    )


def cmd_ihc_vs_oracle(cfg: dict) -> list[dict]:
    """Cascade vs direct-posting comparison on shared skill worlds.

    Each replication draws one skill world and feeds it to both systems:
    the cascade runs on G(n, p), the baseline posts straight to its reached
    agents. The ``p_r`` cells of one vacancy size are one group: they share
    each replication's skill world, seed agent and its neighbours. The
    closed-form baseline value rides along as a reference column.
    """
    rows = []
    er = ErdosRenyi(cfg["population"], cfg["mean_degree"])
    n_p_r = len(cfg["p_r"])
    for vacancy_idx, vacancy_size in enumerate(cfg["vacancy_sizes"]):
        # cells are numbered in (vacancy, p_r) grid order
        paths = [(vacancy_idx * n_p_r + p_r_idx,) for p_r_idx in range(n_p_r)]
        skills = (cfg["skill_rate"], vacancy_size, cfg["reach_fraction"])
        runs = replicate(cfg["seed"], paths, cfg["reps"], er, cfg["p_r"], skills)
        per_cell = zip(*[outcomes for _, _, outcomes in runs])
        for p_r, cell_runs in zip(cfg["p_r"], per_cell):
            spec = _oracle_spec(cfg, vacancy_size, p_r)
            analytic = oracle_success_probability(spec, cfg["mass_threshold"])
            cascade_runs, baseline_runs = zip(*cell_runs)
            for system, results in (("ihc", cascade_runs), ("oracle", baseline_runs)):
                rows.append(
                    {
                        "system": system,
                        "population": cfg["population"],
                        "mean_degree": cfg["mean_degree"] if system == "ihc" else None,
                        "reach_fraction": cfg["reach_fraction"] if system == "oracle" else None,
                        "skill_rate": cfg["skill_rate"],
                        "vacancy_size": vacancy_size,
                        "p_r": p_r,
                        "analytic_oracle_success": analytic,
                        **summarize(results).as_dict(),
                    }
                )
    return rows


def cmd_oracle_analytic(cfg: dict) -> list[dict]:
    """Closed-form baseline success probabilities with truncation diagnostics."""
    rows = []
    for vacancy_size, p_r in itertools.product(cfg["vacancy_sizes"], cfg["p_r"]):
        spec = _oracle_spec(cfg, vacancy_size, p_r)
        p_qualified = p_lambda(
            cfg["skill_rate"], vacancy_size, cfg["population"], cfg["mass_threshold"]
        )
        bounds = truncation_bounds(
            cfg["population"], p_qualified, cfg["skill_rate"], cfg["mass_threshold"]
        )
        rows.append(
            {
                "population": cfg["population"],
                "reach_fraction": cfg["reach_fraction"],
                "p_r": p_r,
                "skill_rate": cfg["skill_rate"],
                "vacancy_size": vacancy_size,
                "mass_threshold": cfg["mass_threshold"],
                "p_qualified": p_qualified,
                "l_min": bounds.l_min,
                "l_max": bounds.l_max,
                "k_max": bounds.k_max,
                "success_probability": truncated_series(spec, p_qualified, bounds),
            }
        )
    return rows


def cmd_empirical(cfg: dict) -> list[dict]:
    """Both systems on one loaded network, plus its degree histogram.

    Emits a combined table: ``record=summary`` rows carry per-system batch
    statistics, ``record=degree`` rows the out-degree histogram.
    """
    network = load_edge_list(cfg["edge_list"], directed=cfg["directed"])
    stats = degree_stats(network)
    base = {
        "n": network.n,
        "directed": int(cfg["directed"]),
        "mean_out_degree": stats.mean_out_degree,
        "p_r": cfg["p_r"],
        "reach_fraction": cfg["reach_fraction"],
        "skill_rate": cfg["skill_rate"],
        "vacancy_size": cfg["vacancy_size"],
    }
    skills = (cfg["skill_rate"], cfg["vacancy_size"], cfg["reach_fraction"])
    runs = replicate(cfg["seed"], [()], cfg["reps"], network, [cfg["p_r"]], skills)
    cascade_runs, baseline_runs = zip(*[outcomes[0] for _, _, outcomes in runs])
    rows = [
        {"record": "summary", "system": "ihc", **base, **summarize(cascade_runs).as_dict()},
        {"record": "summary", "system": "oracle", **base, **summarize(baseline_runs).as_dict()},
    ]
    for degree in sorted(stats.histogram):
        rows.append(
            {"record": "degree", **base, "degree": degree, "count": stats.histogram[degree]}
        )
    return rows


def cmd_payout(cfg: dict) -> list[dict]:
    """Reward split for one successful chain; position 1 is the hired agent."""
    schedule = compute_payouts(cfg["chain_length"], cfg["budget"])
    base = {"chain_length": cfg["chain_length"], "budget": str(schedule.budget)}
    rows: list[dict] = [
        {
            "record": "position",
            **base,
            "position": i + 1,
            "amount_exact": str(amount),
            "amount": float(amount),
        }
        for i, amount in enumerate(schedule.payouts)
    ]
    rows.append(
        {
            "record": "surplus",
            **base,
            "position": None,
            "amount_exact": str(schedule.surplus),
            "amount": float(schedule.surplus),
        }
    )
    return rows


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, options


@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler, help line, the config keys and arguments
    only it takes, and, for a simulation, its paper preset. Having a paper
    preset is what gives a subcommand ``--seed``, ``--reps`` and ``--preset``
    and a required ``seed`` key, which ``schema`` puts before ``out``."""

    run: Callable[[dict], list[dict]]
    help: str
    keys: dict[str, _Field]
    paper: dict[str, Any] | None = None
    arguments: tuple[tuple[tuple[str, ...], dict[str, Any]], ...] = ()

    @property
    def schema(self) -> dict[str, _Field]:
        seed = {} if self.paper is None else {"seed": _Field(None, _int_at_least(0), required=True)}
        return {**self.keys, **seed, "out": _Field(None, _text)}


_COMMANDS: dict[str, _Command] = {
    "heatmap": _Command(
        cmd_heatmap,
        "success/chain-length grid over p_r x p_a x p_h on G(n, p) sharing each seed's neighbours",
        {
            "n": _Field(1000, _int_at_least(2)),
            "mean_degree": _Field(50.0, _number(lo=0.0, open_lo=True)),
            "p_r": _Field([0.02, 0.05, 0.1, 0.2, 0.5, 1.0], _list_of(_prob)),
            "p_a": _Field([0.1, 0.3, 0.5, 0.7, 0.9], _list_of(_prob)),
            "p_h": _Field([0.1, 0.5, 1.0], _list_of(_prob)),
            "reps": _Field(100, _int_at_least(1)),
        },
        paper={"n": 5000},
    ),
    "ba-vs-er": _Command(
        cmd_ba_vs_er,
        "seed-degree-binned outcomes on BA vs ER topologies",
        {
            "n": _Field(1000, _int_at_least(2)),
            "er_mean_degree": _Field(50.0, _number(lo=0.0, open_lo=True)),
            "ba_attachment": _Field(50, _int_at_least(1)),
            "ba_core": _Field(None, _int_at_least(1)),
            "p_r": _Field([0.05, 0.1, 0.2, 0.5, 1.0], _list_of(_prob)),
            "p_a": _Field(0.1, _prob),
            "p_h": _Field(0.5, _prob),
            "reps": _Field(200, _int_at_least(1)),
        },
        paper={"n": 5000, "reps": 10_000},
    ),
    "ihc-vs-oracle": _Command(
        cmd_ihc_vs_oracle,
        "cascade vs direct-posting baseline on shared skill worlds",
        {
            "population": _Field(2000, _int_at_least(2)),
            "mean_degree": _Field(20.0, _number(lo=0.0, open_lo=True)),
            "reach_fraction": _Field(0.5, _prob),
            "skill_rate": _Field(3.0, _number(lo=0.0)),
            "vacancy_sizes": _Field([4, 6, 8], _list_of(_int_at_least(0))),
            "p_r": _Field([0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0], _list_of(_prob)),
            "mass_threshold": _Field(MASS_THRESHOLD, _number(lo=0.0, hi=1.0, open_lo=True)),
            "reps": _Field(200, _int_at_least(1)),
        },
        paper={"population": 5000},
    ),
    "oracle-analytic": _Command(
        cmd_oracle_analytic,
        "closed-form baseline success probabilities (no simulation)",
        {
            "population": _Field(5000, _int_at_least(1)),
            "reach_fraction": _Field(0.5, _prob),
            "skill_rate": _Field(3.0, _number(lo=0.0)),
            "vacancy_sizes": _Field([4, 6, 8], _list_of(_int_at_least(0))),
            "p_r": _Field([1.0], _list_of(_prob)),
            "mass_threshold": _Field(MASS_THRESHOLD, _number(lo=0.0, hi=1.0, open_lo=True)),
        },
    ),
    "empirical": _Command(
        cmd_empirical,
        "both systems on a network loaded from a file",
        {
            "edge_list": _Field(None, _text, required=True),
            "directed": _Field(False, _boolean),
            "p_r": _Field(0.25, _prob),
            "reach_fraction": _Field(0.5, _prob),
            "skill_rate": _Field(3.0, _number(lo=0.0)),
            "vacancy_size": _Field(4, _int_at_least(0)),
            "reps": _Field(100, _int_at_least(1)),
        },
        paper={"reps": 200},
        arguments=(
            _arg("edge_list", nargs="?", help="edge list file, two integer columns per line"),
            _arg(
                "--directed",
                action="store_true",
                default=None,
                help="treat edges as one-way arcs (default: undirected)",
            ),
        ),
    ),
    "payout": _Command(
        cmd_payout,
        "geometric reward split for a successful chain",
        {
            "chain_length": _Field(None, _int_at_least(1), required=True),
            "budget": _Field(1, _budget),
        },
        arguments=(
            _arg("--chain-length", type=int, help="number of agents on the successful chain"),
            _arg("--budget", help="total reward budget (number or fraction string)"),
        ),
    ),
}


# -- entry point ---------------------------------------------------------------


def _parent(*arguments: tuple[tuple[str, ...], dict[str, Any]]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halting-cascade",
        description="Parameter-sweep experiments for the halting-cascade model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _parent(
        _arg("--config", metavar="PATH", help="JSON file with experiment settings"),
        _arg("--out", metavar="PATH", help="output file (default: stdout)"),
        _arg(
            "--format",
            choices=("csv", "jsonl"),
            default="csv",
            help="output encoding (default: csv)",
        ),
    )
    simulation = _parent(
        _arg("--seed", type=int, help="master seed; required here or in the config file"),
        _arg("--reps", type=int, help="replications per parameter cell"),
        _arg(
            "--preset",
            choices=("desk", "paper"),
            help="scale preset: desk (default sizes) or paper (full-size runs)",
        ),
    )
    for name, command in _COMMANDS.items():
        parents = [common] if command.paper is None else [common, simulation]
        if command.arguments:  # a parent of their own keeps them first, as in --help
            parents.insert(0, _parent(*command.arguments))
        sub.add_parser(name, help=command.help, parents=parents)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        rows = _COMMANDS[args.command].run(cfg)
        _write_output(_render(rows, args.format), cfg["out"])
    # EdgeListError is a ValueError, so this arm comes first
    except (EdgeListError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK
