"""End-to-end tests for the experiment command-line driver."""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from halting_cascade import cascade, cli, graph, oracle, skills
from halting_cascade.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _heatmap_config(tmp_path, **overrides):
    cfg = {
        "n": 40,
        "mean_degree": 4.0,
        "p_r": [0.0, 0.5, 1.0],
        "p_a": [0.1, 0.5, 0.9],
        "p_h": [0.5],
        "reps": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "heatmap.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestPayout:
    def test_golden_csv(self, capsys):
        code, out, _ = _run(
            capsys, ["payout", "--chain-length", "3", "--budget", "8"]
        )
        assert code == EXIT_OK
        assert out == (
            "record,chain_length,budget,position,amount_exact,amount\n"
            "position,3,8,1,4,4.0\n"
            "position,3,8,2,2,2.0\n"
            "position,3,8,3,1,1.0\n"
            "surplus,3,8,,1,1.0\n"
        )

    def test_jsonl_conserves_budget(self, capsys):
        code, out, _ = _run(
            capsys,
            ["payout", "--chain-length", "5", "--budget", "3/4", "--format", "jsonl"],
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 6
        assert sum(r["amount"] for r in records) == pytest.approx(0.75)
        assert records[-1]["record"] == "surplus"
        assert records[-1]["position"] is None

    def test_fractional_default_budget(self, capsys):
        code, out, _ = _run(capsys, ["payout", "--chain-length", "2"])
        assert code == EXIT_OK
        rows = _rows(out)
        assert [r["amount_exact"] for r in rows] == ["1/2", "1/4", "1/4"]

    def test_invalid_arguments_exit_config(self, capsys):
        assert _run(capsys, ["payout", "--chain-length", "0"])[0] == EXIT_CONFIG
        assert _run(capsys, ["payout"])[0] == EXIT_CONFIG
        assert (
            _run(capsys, ["payout", "--chain-length", "2", "--budget", "0"])[0]
            == EXIT_CONFIG
        )
        code, _, err = _run(
            capsys, ["payout", "--chain-length", "2", "--budget", "nonsense"]
        )
        assert code == EXIT_CONFIG
        assert "not a valid amount" in err


class TestConfigHandling:
    def test_seed_required(self, capsys):
        code, _, err = _run(capsys, ["heatmap"])
        assert code == EXIT_CONFIG
        assert "seed is required" in err

    def test_seed_from_config_file(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path, p_r=[0.0], p_a=[0.5], seed=5)
        code, out, _ = _run(capsys, ["heatmap", "--config", path])
        assert code == EXIT_OK
        assert len(_rows(out)) == 1

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        code, _, err = _run(capsys, ["heatmap", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "unknown keys" in err and "bogus" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = _run(capsys, ["heatmap", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "not valid JSON" in err

    def test_missing_config_file(self, capsys):
        code, _, err = _run(
            capsys, ["heatmap", "--config", "/no/such/config.json", "--seed", "1"]
        )
        assert code == EXIT_CONFIG
        assert "cannot read config" in err

    def test_zero_reps_rejected(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path)
        code, _, err = _run(
            capsys,
            ["heatmap", "--config", path, "--seed", "1", "--reps", "0"],
        )
        assert code == EXIT_CONFIG
        assert "reps" in err
        assert _run(capsys, ["ba-vs-er", "--seed", "1", "--reps", "0"])[0] == EXIT_CONFIG

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path, p_r=[0.2], p_a=[0.5], reps=7)
        code, out, _ = _run(
            capsys, ["heatmap", "--config", path, "--seed", "1", "--reps", "2"]
        )
        assert code == EXIT_OK
        assert _rows(out)[0]["n_runs"] == "2"

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="401-digits")]
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "nonfinite.json"
        path.write_text(f'{{"skill_rate": {literal}}}', encoding="utf-8")
        code, out, err = _run(capsys, ["oracle-analytic", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "skill_rate must be finite" in err

        path.write_text(f'{{"budget": {literal}}}', encoding="utf-8")
        code, _, err = _run(
            capsys, ["payout", "--chain-length", "2", "--config", str(path)]
        )
        assert code == EXIT_CONFIG
        assert "not a valid amount" in err

    def test_unwritable_output_exits_io(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            [
                "payout",
                "--chain-length",
                "2",
                "--out",
                str(tmp_path / "missing_dir" / "x.csv"),
            ],
        )
        assert code == EXIT_IO
        assert "cannot write output" in err


class TestHeatmap:
    def test_grid_row_count_and_zero_p_r(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path)
        code, out, _ = _run(capsys, ["heatmap", "--config", path, "--seed", "9"])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 9
        idle = [r for r in rows if r["p_r"] == "0.0"]
        assert len(idle) == 3
        for row in idle:
            assert row["success_rate"] == "0.0"
            assert row["median_chain_length"] == "1"
            assert row["mean_chain_depth"] == ""  # no successes: undefined depth
            assert row["regime"] == "below_both"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path, p_r=[0.3, 0.8], p_a=[0.3])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out_path in (first, second):
            code, _, _ = _run(
                capsys,
                ["heatmap", "--config", path, "--seed", "11", "--out", str(out_path)],
            )
            assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"p_r,p_a,p_h,n,mean_degree,")

    def test_jsonl_null_for_undefined_depth(self, tmp_path, capsys):
        path = _heatmap_config(tmp_path, p_r=[0.0], p_a=[0.5])
        code, out, _ = _run(
            capsys,
            ["heatmap", "--config", path, "--seed", "2", "--format", "jsonl"],
        )
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[0])
        assert record["success_rate"] == 0.0
        assert record["mean_chain_depth"] is None


class TestBaVsEr:
    def test_topologies_and_parameter_columns(self, tmp_path, capsys):
        cfg = {
            "n": 60,
            "er_mean_degree": 6.0,
            "ba_attachment": 3,
            "p_r": [0.3],
            "reps": 6,
        }
        path = tmp_path / "bve.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = _run(capsys, ["ba-vs-er", "--config", str(path), "--seed", "4"])
        assert code == EXIT_OK
        rows = _rows(out)
        by_topology: dict[str, list[dict]] = {}
        for row in rows:
            by_topology.setdefault(row["topology"], []).append(row)
        assert set(by_topology) == {"er", "ba"}
        for row in by_topology["er"]:
            assert row["er_mean_degree"] == "6.0"
            assert row["ba_attachment"] == ""
        for row in by_topology["ba"]:
            assert row["er_mean_degree"] == ""
            assert row["ba_attachment"] == "3"
        for rows_one_side in by_topology.values():
            assert sum(int(r["n_runs"]) for r in rows_one_side) == 6
            bins = [(int(r["degree_bin_lo"]), int(r["degree_bin_hi"])) for r in rows_one_side]
            assert bins == sorted(bins)
            for lo, hi in bins:
                assert hi == max(2 * lo, 1)


class TestIhcVsOracle:
    def test_shared_world_comparison_rows(self, tmp_path, capsys):
        cfg = {
            "population": 60,
            "mean_degree": 6.0,
            "vacancy_sizes": [2],
            "p_r": [0.5],
            "reps": 5,
        }
        path = tmp_path / "ivo.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = _run(
            capsys, ["ihc-vs-oracle", "--config", str(path), "--seed", "8"]
        )
        assert code == EXIT_OK
        rows = _rows(out)
        assert [r["system"] for r in rows] == ["ihc", "oracle"]
        ihc, oracle = rows
        assert ihc["mean_degree"] == "6.0" and ihc["reach_fraction"] == ""
        assert oracle["mean_degree"] == "" and oracle["reach_fraction"] == "0.5"
        assert ihc["analytic_oracle_success"] == oracle["analytic_oracle_success"]
        assert 0.0 <= float(oracle["analytic_oracle_success"]) <= 1.0
        if float(oracle["success_rate"]) > 0:
            assert float(oracle["mean_chain_depth"]) == 2.0

    def test_catalog_past_the_hypergeometric_limit_exits_config(self, tmp_path, capsys):
        cfg = {"population": 2, "mean_degree": 1.0, "skill_rate": 2e9, "vacancy_sizes": [4],
               "reps": 1}
        path = tmp_path / "ivo.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, err = _run(capsys, ["ihc-vs-oracle", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "skill_rate" in err

    def test_population_past_the_hypergeometric_limit_exits_config(self, tmp_path, capsys):
        cfg = {"population": 10**9, "mean_degree": 20.0, "vacancy_sizes": [2], "reps": 1}
        path = tmp_path / "ivo.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, err = _run(capsys, ["ihc-vs-oracle", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "population" in err


class TestOracleAnalytic:
    def test_pure_computation_rows(self, tmp_path, capsys):
        cfg = {"population": 200, "vacancy_sizes": [1, 2], "p_r": [0.3]}
        path = tmp_path / "oa.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = _run(
            capsys, ["oracle-analytic", "--config", str(path), "--format", "jsonl"]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert records[0]["p_qualified"] > records[1]["p_qualified"]
        for record in records:
            assert 0.0 <= record["success_probability"] <= 1.0
            assert record["l_min"] <= record["l_max"]
            assert record["k_max"] >= 0


    def test_each_row_computes_its_window_once(self, tmp_path, capsys, monkeypatch):
        # the row prints p_qualified and the truncation window, then sums the
        # series over them; nothing recomputes either on the way
        calls = {"p_lambda": 0, "truncation_bounds": 0}
        for name in calls:
            original = getattr(oracle, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(oracle, name, counted)
            monkeypatch.setattr(cli, name, counted)
        cfg = {"population": 200, "vacancy_sizes": [1, 2], "p_r": [0.3, 1.0]}
        path = tmp_path / "oa.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = _run(
            capsys, ["oracle-analytic", "--config", str(path), "--format", "jsonl"]
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4
        assert calls == {"p_lambda": 4, "truncation_bounds": 4}

    def test_population_of_a_million_stays_small(self):
        # the series walks the binomial runs of the reached and missed
        # qualified counts and builds no table of the population's length
        # (an lgamma table of 10**6 + 1 entries peaked at 40 MB)
        tracemalloc.start()
        try:
            value = oracle.oracle_success_probability(oracle.OracleSpec(10**6, 0.5, 0.3, 3.0, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"value {value!r}, peak {peak / 1e6:.2f} MB (budget 2 MB)")
        assert 0.0 < value <= 1.0
        assert peak < 2_000_000

    def test_mass_threshold_one_ends_where_the_cdf_levels_off(self, tmp_path):
        # poisson_cdf(k, 5.0) stays at 0.9999999999999996 from k = 60 on, so a
        # threshold of 1.0 is never met; the catalog search has to end anyway
        cfg = {"skill_rate": 5.0, "mass_threshold": 1.0, "population": 100}
        path = tmp_path / "oa.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "halting_cascade", "oracle-analytic",
             "--config", str(path), "--format", "jsonl"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == EXIT_OK, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert len(records) == 3
        assert {record["k_max"] for record in records} == {253}


class TestEmpirical:
    @pytest.fixture
    def triangle(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("# demo network\n0 1\n1 2\n2 0\n", encoding="utf-8")
        return str(path)

    def test_smoke_all_record_blocks(self, triangle, capsys):
        code, out, _ = _run(
            capsys, ["empirical", triangle, "--seed", "3", "--reps", "6"]
        )
        assert code == EXIT_OK
        rows = _rows(out)
        summaries = [r for r in rows if r["record"] == "summary"]
        degrees = [r for r in rows if r["record"] == "degree"]
        assert [r["system"] for r in summaries] == ["ihc", "oracle"]
        assert len(degrees) == 1
        assert degrees[0]["degree"] == "2" and degrees[0]["count"] == "3"
        assert summaries[0]["mean_out_degree"] == "2.0"
        assert summaries[0]["n_runs"] == "6"

    def test_directedness_changes_degree_accounting(self, tmp_path, capsys):
        path = tmp_path / "fanout.txt"
        path.write_text("0 1\n0 2\n", encoding="utf-8")
        _, undirected_out, _ = _run(
            capsys, ["empirical", str(path), "--seed", "3", "--reps", "2"]
        )
        _, directed_out, _ = _run(
            capsys,
            ["empirical", str(path), "--directed", "--seed", "3", "--reps", "2"],
        )
        mean_undirected = _rows(undirected_out)[0]["mean_out_degree"]
        mean_directed = _rows(directed_out)[0]["mean_out_degree"]
        assert float(mean_undirected) == pytest.approx(4 / 3)
        assert float(mean_directed) == pytest.approx(2 / 3)

    def test_zero_p_r_never_succeeds(self, triangle, tmp_path, capsys):
        cfg = {"p_r": 0.0, "reps": 10}
        path = tmp_path / "emp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = _run(
            capsys,
            ["empirical", triangle, "--config", str(path), "--seed", "6"],
        )
        assert code == EXIT_OK
        for row in _rows(out):
            if row["record"] == "summary":
                assert row["success_rate"] == "0.0"

    def test_preset_scales_reps_and_config_overrides_preset(
        self, triangle, tmp_path, capsys
    ):
        code, out, _ = _run(
            capsys, ["empirical", triangle, "--preset", "paper", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert _rows(out)[0]["n_runs"] == "200"

        cfg_path = tmp_path / "few.json"
        cfg_path.write_text(json.dumps({"reps": 3}), encoding="utf-8")
        code, out, _ = _run(
            capsys,
            [
                "empirical",
                triangle,
                "--preset",
                "paper",
                "--config",
                str(cfg_path),
                "--seed",
                "1",
            ],
        )
        assert code == EXIT_OK
        assert _rows(out)[0]["n_runs"] == "3"

    def test_missing_edge_list_exits_io(self, capsys):
        code, _, err = _run(
            capsys, ["empirical", "/no/such/edges.txt", "--seed", "1"]
        )
        assert code == EXIT_IO

    def test_invalid_edge_list_exits_io(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nfoo bar\n", encoding="utf-8")
        code, _, err = _run(capsys, ["empirical", str(path), "--seed", "1"])
        assert code == EXIT_IO
        assert "line 2" in err

    def test_edge_list_not_utf8_exits_io(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        for raw in (b"0 1\n1 \xff2\n", b"0 1\r\n1 \xff2\r\n"):
            path.write_bytes(raw)
            code, _, err = _run(capsys, ["empirical", str(path), "--seed", "1"])
            assert code == EXIT_IO
            assert "line 2: not UTF-8 text" in err

    def test_empty_edge_list_exits_io(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# no edges here\n", encoding="utf-8")
        code, _, err = _run(capsys, ["empirical", str(path), "--seed", "1"])
        assert code == EXIT_IO
        assert "no edges" in err

    def test_path_required(self, capsys):
        code, _, err = _run(capsys, ["empirical", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "edge_list is required" in err


_PIN_EDGES = "0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n1 4\n"


_HEATMAP_2X2 = {"n": 60, "mean_degree": 6.0, "p_r": [0.1, 0.5], "p_a": [0.2, 0.8],
                "p_h": [0.5], "reps": 3}
_BA_VS_ER = {"n": 80, "er_mean_degree": 6.0, "ba_attachment": 3, "p_r": [0.1, 0.5],
             "reps": 3}
_IHC_VS_ORACLE = {"population": 80, "mean_degree": 6.0, "vacancy_sizes": [1, 2],
                  "p_r": [0.3, 1.0], "reps": 3}


def _sweep(tmp_path, capsys, command: str, config: dict | None, seed: int = 5) -> list[dict]:
    argv = [command]
    if config is None:
        edges = tmp_path / "edges.txt"
        edges.write_text(_PIN_EDGES, encoding="utf-8")
        argv.append(str(edges))
        config = {"reps": 3}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = _run(capsys, argv + ["--config", str(path), "--seed", str(seed)])
    assert code == EXIT_OK
    return _rows(out)


def _start(value):
    """A generator's (state, inc) when it is passed; any other value as it is.

    The sweeps' generators move on to the next replication's streams, so
    only a snapshot taken at call time names the stream a call read.
    """
    if isinstance(value, np.random.Generator):
        state = value.bit_generator.state["state"]
        return state["state"], state["inc"]
    return value


def _record(monkeypatch, module, name: str, calls: list) -> None:
    """Wrap ``module.<name>``, where the driver looks it up, so that each call
    appends (args, result) to ``calls``, with each generator argument
    snapshot by ``_start``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        started = tuple(map(_start, args))
        result = original(*args, **kwargs)
        calls.append((started, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


class TestCommonRandomNetworks:
    """Cells that differ only in cascade parameters share each replication's
    draws: a BA network, or on G(n, p) the seed agent's neighbour counts per
    agent class."""

    @pytest.mark.parametrize(
        "command, config, groups, cells",
        [
            ("heatmap", _HEATMAP_2X2, 1, 4),
            ("ba-vs-er", _BA_VS_ER, 2, 2),
            ("ihc-vs-oracle", _IHC_VS_ORACLE, 2, 2),
        ],
    )
    def test_one_network_per_group_and_rep(
        self, tmp_path, capsys, monkeypatch, command, config, groups, cells
    ):
        built, cascades, worlds, bound = [], [], [], []
        _record(monkeypatch, cli, "generate_ba", built)
        _record(monkeypatch, cascade, "run_cascade", cascades)
        _record(monkeypatch, cascade, "run_chain", cascades)
        _record(monkeypatch, skills, "sample_coverage_counts", worlds)
        _record(monkeypatch, skills, "bind_params", bound)
        _sweep(tmp_path, capsys, command, config)

        reps = config["reps"]
        assert len(cascades) == groups * cells * reps
        by_network: dict[int, list] = {id(net): [] for _, net in built}
        for args, _ in cascades:
            # run_cascade(network, params, seeds, rng) or
            # run_chain(p_a, p_h, p_r, p, unreached, neighbours, seed, rng);
            # on G(n, p) the shared draw is the seed's neighbour counts, a
            # list kept alive by the recorded arguments
            if len(args) == 4:
                network, seeds, p_r = args[0], args[2], None
            else:
                network, seeds, p_r = args[5], args[6], args[2]
            by_network.setdefault(id(network), []).append((seeds, args[-1], p_r))
        assert len(by_network) == groups * reps
        for runs in by_network.values():
            # one seed node, and one cascade per cell (a cell's stream names it)
            assert len({seeds for seeds, _, _ in runs}) == 1
            assert len({key for _, key, _ in runs}) == len(runs) == cells
            if command == "ihc-vs-oracle":
                assert [p_r for _, _, p_r in runs] == config["p_r"]

        # a G(n, p) world is drawn as its coverage histogram, one per group and
        # rep, and its cells read the classes, not per-agent arrays
        assert bound == []
        assert len(worlds) == (groups * reps if command == "ihc-vs-oracle" else 0)

    @pytest.mark.parametrize(
        "command, config, groups, cells",
        [("heatmap", _HEATMAP_2X2, 1, 4), ("ba-vs-er", _BA_VS_ER, 2, 2)],
    )
    def test_only_the_streams_read_are_built(
        self, tmp_path, capsys, monkeypatch, command, config, groups, cells
    ):
        """Per replication, the leader's shared children (network, seed node)
        and one cascade child per cell; none of a follower's shared ones.
        Counts the generators ``replication_streams`` yields, per replication."""
        built = []
        streams = cascade.replication_streams

        def counting(*args):
            for rngs in streams(*args):
                built.extend(map(_start, rngs))
                yield rngs

        monkeypatch.setattr(cascade, "replication_streams", counting)
        _sweep(tmp_path, capsys, command, config)
        assert len(built) == groups * config["reps"] * (2 + cells)

    @pytest.mark.parametrize(
        "command, config, leader",
        [
            ("ba-vs-er", _BA_VS_ER, {"p_r": [0.1]}),
            ("heatmap", _HEATMAP_2X2, {"p_r": [0.1], "p_a": [0.2]}),
            ("ihc-vs-oracle", {**_IHC_VS_ORACLE, "vacancy_sizes": [2]}, {"p_r": [0.3]}),
        ],
    )
    def test_group_leader_matches_a_sweep_of_it_alone(
        self, tmp_path, capsys, command, config, leader
    ):
        """A group's first cell draws the shared streams from its own key, so
        its rows do not depend on which other cells share them."""
        full = _sweep(tmp_path, capsys, command, config)
        alone = _sweep(tmp_path, capsys, command, {**config, **leader})
        projected = [
            row for row in full
            if all(float(row[key]) in values for key, values in leader.items())
        ]
        assert projected == alone
        assert len(alone) < len(full)

    @pytest.mark.parametrize(
        "command, config",
        [
            ("heatmap", _HEATMAP_2X2),
            ("ba-vs-er", _BA_VS_ER),
            ("ihc-vs-oracle", _IHC_VS_ORACLE),
            ("empirical", None),
        ],
    )
    def test_every_stream_is_distinct(self, tmp_path, capsys, monkeypatch, command, config):
        """No two generators of one sweep start from the same state."""
        seeded, handed, cascades = [], [], []
        default_rng, streams = np.random.default_rng, cascade.replication_streams

        def recording(seed=None):
            # record the stream it holds now: it moves on with the iterator
            if isinstance(seed, np.random.Generator):
                seeded.append(_start(seed))
            return default_rng(seed)

        def handing(*args):
            for rngs in streams(*args):
                handed.extend(map(_start, rngs))
                yield rngs

        monkeypatch.setattr(np.random, "default_rng", recording)
        monkeypatch.setattr(cascade, "replication_streams", handing)
        _record(monkeypatch, cascade, "run_cascade", cascades)
        _record(monkeypatch, cascade, "run_chain", cascades)
        _sweep(tmp_path, capsys, command, config)
        # a chain draws from the generator it is handed, without default_rng
        seeded += [args[-1] for args, _ in cascades if len(args) == 8]
        unique = set(seeded)
        assert len(unique) == len(seeded)
        # every stream read comes from replication_streams, and the draws that
        # read their generator directly (seed node, seed's neighbours) are
        # distinct too
        assert unique <= set(handed)
        assert len(set(handed)) == len(handed)
        # every cascade stream was seen
        assert len(unique) >= len(cascades) > 0


@pytest.mark.parametrize(
    "command, config, flags, sha256",
    [
        (
            "heatmap",
            {"n": 60, "mean_degree": 6.0, "p_r": [0.1, 0.5], "p_a": [0.2, 0.8],
             "p_h": [0.5], "reps": 5},
            ["--seed", "11"],
            "d5d6933832f4f5cea67fac08fe27566f53115fa2ce7ad112efca8123ffe62717",
        ),
        (
            "ba-vs-er",
            {"n": 80, "er_mean_degree": 6.0, "ba_attachment": 3, "p_r": [0.1, 0.5],
             "reps": 6},
            ["--seed", "4"],
            "4368c0cee764537cdc19f58156cdbdcb1d42f5a25456e68cae280eec2a78aad1",
        ),
        (
            "ihc-vs-oracle",
            {"population": 80, "mean_degree": 6.0, "vacancy_sizes": [1, 2],
             "p_r": [0.3, 1.0], "reps": 5},
            ["--seed", "8"],
            "3a9d1dfd23b1bc929998482c7fe6056949f3e1dac289b8538f2b01a152a45de3",
        ),
        (
            "empirical",
            None,
            ["--seed", "3", "--reps", "9"],
            "2f0261b411efeeea30142bd02bb7ce22fe6711c206e41a4383a74a02ff025919",
        ),
        (
            "empirical",
            None,
            ["--seed", "3", "--reps", "9", "--directed"],
            "ccc00ec389e17f94c63aa1d750b66dae9447d7adcf9dd3827fc7dafd4303a415",
        ),
        (
            "heatmap",
            {"n": 60, "mean_degree": 6.0, "p_r": [0.1, 0.5], "p_a": [0.2, 0.8],
             "p_h": [0.5], "reps": 5},
            ["--seed", "11", "--format", "jsonl"],
            "e3ee65de8afd9157710bb078a3bd8a58564c582f022d2828e631bde0e989c83c",
        ),
        (
            "ba-vs-er",
            {"n": 80, "er_mean_degree": 6.0, "ba_attachment": 3, "p_r": [0.1, 0.5],
             "reps": 6},
            ["--seed", "4", "--format", "jsonl"],
            "b27e1a08be13c404ee66d717e7ae61cd092d519eed9f29d1c84aa4efa9561325",
        ),
        (
            "ihc-vs-oracle",
            {"population": 80, "mean_degree": 6.0, "vacancy_sizes": [1, 2],
             "p_r": [0.3, 1.0], "reps": 5},
            ["--seed", "8", "--format", "jsonl"],
            "e9cc104e7c4dd5356ae142deadd62bc1073fecf9cec57c253b4ce75cba21935f",
        ),
        (
            "empirical",
            None,
            ["--seed", "3", "--reps", "9", "--format", "jsonl"],
            "3283993e983da7198fd986ba30c2596dc7706a64f6474f6d626177a82b7ac973",
        ),
        (
            "empirical",
            None,
            ["--seed", "3", "--reps", "9", "--directed", "--format", "jsonl"],
            "9cc5d04f4308746c3839693afb486205223eb5b6fd5777e721d754bc4b764d44",
        ),
    ],
    # named by sweep, not by hash, so that a re-pin keeps every test's id
    ids=[
        "heatmap", "ba-vs-er", "ihc-vs-oracle", "empirical", "empirical-directed",
        "heatmap-jsonl", "ba-vs-er-jsonl", "ihc-vs-oracle-jsonl", "empirical-jsonl",
        "empirical-directed-jsonl",
    ],
)
def test_stochastic_output_pinned(tmp_path, capsys, command, config, flags, sha256):
    """Outputs pinned across versions, not only across reruns of one version.

    A change of the draw schedule or of graph construction order moves these
    hashes; such a change must say which outputs moved and re-pin them.
    """
    argv = [command]
    if config is None:
        edges = tmp_path / "edges.txt"
        edges.write_text(_PIN_EDGES, encoding="utf-8")
        argv.append(str(edges))
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    out = tmp_path / "out.csv"
    code, _, _ = _run(capsys, argv + flags + ["--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "command, config, seed, column, value, sha256",
    [
        (
            "ba-vs-er",
            {"n": 80, "er_mean_degree": 6.0, "ba_attachment": 3, "p_r": [0.1, 0.5],
             "reps": 6},
            4,
            "topology",
            "ba",
            "5be16a56022cbd08005b54341f76b52d93d1cf3456f9f73c5b270527ae17407c",
        ),
        (
            "ihc-vs-oracle",
            {"population": 80, "mean_degree": 6.0, "vacancy_sizes": [1, 2],
             "p_r": [0.3, 1.0], "reps": 5},
            8,
            "system",
            "oracle",
            "ccf13ab5d8952dac712bcc62eb18aabdc5baae6f76934ba2a15bba234578fc74",
        ),
    ],
    ids=["ba-vs-er-ba-rows", "ihc-vs-oracle-oracle-rows"],
)
def test_rows_off_g_n_p_are_pinned(tmp_path, capsys, command, config, seed, column, value, sha256):
    """The header and the rows that no G(n, p) cascade draw reaches, at the
    pinned sweeps' seeds: BA rows read their own network and seed streams,
    and oracle rows their world and oracle streams. The BA rows were pinned
    before G(n, p) cascades became a chain over counts, which left them
    unmoved, and moved when ``generate_ba`` took smaller pools; the oracle
    rows moved when worlds became coverage histograms and posting
    count-level draws, and again when posting became a one-hop
    ``run_chain`` that draws the reached qualified count first. Their
    ``analytic_oracle_success`` column moved in its last digits when the
    series became one sum over the reached qualified count."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    code, _, _ = _run(
        capsys, [command, "--config", str(path), "--seed", str(seed), "--out", str(out)]
    )
    assert code == EXIT_OK
    header, *lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    at = header.rstrip("\n").split(",").index(column)
    kept = [line for line in lines if line.split(",")[at] == value]
    assert kept
    assert hashlib.sha256("".join([header, *kept]).encode()).hexdigest() == sha256


def _analytic_digest(tmp_path, capsys, flags: list[str]) -> str:
    path = tmp_path / "config.json"
    config = {"population": 3000, "reach_fraction": 0.4, "skill_rate": 3.0,
              "vacancy_sizes": [0, 1, 4, 8], "p_r": [0.0, 0.2, 1.0]}
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = _run(capsys, ["oracle-analytic", "--config", str(path), "--out", str(out)] + flags)
    assert code == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_analytic_output_pinned(tmp_path, capsys):
    """The closed-form table has no draws, so any change to its bytes is a
    change of arithmetic, not of the draw schedule."""
    assert (
        _analytic_digest(tmp_path, capsys, [])
        == "c965059601265c890ed72c326e70cea2666062e9fb8b2e85251972aa9d3a0935"
    )


def test_analytic_output_pinned_jsonl(tmp_path, capsys):
    assert (
        _analytic_digest(tmp_path, capsys, ["--format", "jsonl"])
        == "8e4e140e178ff57e3f7c8fcde06f312bcd6052de79df873d14b714b81d565db9"
    )


_COMMON_ARGS = [
    (["--config"], "config", None, None, None, None, "JSON file with experiment settings"),
    (["--out"], "out", None, None, None, None, "output file (default: stdout)"),
    (["--format"], "format", "csv", ("csv", "jsonl"), None, None,
     "output encoding (default: csv)"),
]
_SIMULATION_ARGS = [
    (["--seed"], "seed", None, None, int, None,
     "master seed; required here or in the config file"),
    (["--reps"], "reps", None, None, int, None, "replications per parameter cell"),
    (["--preset"], "preset", None, ("desk", "paper"), None, None,
     "scale preset: desk (default sizes) or paper (full-size runs)"),
]
_HELP_ARG = (["-h", "--help"], "help", "==SUPPRESS==", None, None, 0,
             "show this help message and exit")
_SUBCOMMAND_TABLE = [
    ("heatmap",
     "success/chain-length grid over p_r x p_a x p_h on G(n, p) sharing each seed's neighbours",
     _COMMON_ARGS + _SIMULATION_ARGS),
    ("ba-vs-er", "seed-degree-binned outcomes on BA vs ER topologies",
     _COMMON_ARGS + _SIMULATION_ARGS),
    ("ihc-vs-oracle", "cascade vs direct-posting baseline on shared skill worlds",
     _COMMON_ARGS + _SIMULATION_ARGS),
    ("oracle-analytic", "closed-form baseline success probabilities (no simulation)",
     _COMMON_ARGS),
    ("empirical", "both systems on a network loaded from a file",
     [([], "edge_list", None, None, None, "?", "edge list file, two integer columns per line"),
      (["--directed"], "directed", None, None, None, 0,
       "treat edges as one-way arcs (default: undirected)")]
     + _COMMON_ARGS + _SIMULATION_ARGS),
    ("payout", "geometric reward split for a successful chain",
     [(["--chain-length"], "chain_length", None, None, int, None,
       "number of agents on the successful chain"),
      (["--budget"], "budget", None, None, None, None,
       "total reward budget (number or fraction string)")]
     + _COMMON_ARGS),
]


def _argument_table(parser) -> list[tuple]:
    return [
        (action.option_strings, action.dest, action.default, action.choices,
         action.type, action.nargs, action.help)
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


def test_parser_argument_table_is_pinned():
    """Every flag of every subcommand, in order, with what argparse reads
    from it: a check of the parser's contents that holds across Python
    versions, unlike a check of its help layout."""
    parser = cli.build_parser()
    assert _argument_table(parser) == [_HELP_ARG]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help_line) for name, help_line, _ in _SUBCOMMAND_TABLE
    ]
    assert list(sub.choices) == [name for name, _, _ in _SUBCOMMAND_TABLE]
    for name, _, arguments in _SUBCOMMAND_TABLE:
        assert _argument_table(sub.choices[name]) == [_HELP_ARG] + arguments, name


_SEED_KEY = ("seed", None, True)
_OUT_KEY = ("out", None, False)
_CONFIG_KEYS = {
    "heatmap": [
        ("n", 1000, False),
        ("mean_degree", 50.0, False),
        ("p_r", [0.02, 0.05, 0.1, 0.2, 0.5, 1.0], False),
        ("p_a", [0.1, 0.3, 0.5, 0.7, 0.9], False),
        ("p_h", [0.1, 0.5, 1.0], False),
        ("reps", 100, False),
        _SEED_KEY,
        _OUT_KEY,
    ],
    "ba-vs-er": [
        ("n", 1000, False),
        ("er_mean_degree", 50.0, False),
        ("ba_attachment", 50, False),
        ("ba_core", None, False),
        ("p_r", [0.05, 0.1, 0.2, 0.5, 1.0], False),
        ("p_a", 0.1, False),
        ("p_h", 0.5, False),
        ("reps", 200, False),
        _SEED_KEY,
        _OUT_KEY,
    ],
    "ihc-vs-oracle": [
        ("population", 2000, False),
        ("mean_degree", 20.0, False),
        ("reach_fraction", 0.5, False),
        ("skill_rate", 3.0, False),
        ("vacancy_sizes", [4, 6, 8], False),
        ("p_r", [0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0], False),
        ("mass_threshold", 0.98, False),
        ("reps", 200, False),
        _SEED_KEY,
        _OUT_KEY,
    ],
    "oracle-analytic": [
        ("population", 5000, False),
        ("reach_fraction", 0.5, False),
        ("skill_rate", 3.0, False),
        ("vacancy_sizes", [4, 6, 8], False),
        ("p_r", [1.0], False),
        ("mass_threshold", 0.98, False),
        _OUT_KEY,
    ],
    "empirical": [
        ("edge_list", None, True),
        ("directed", False, False),
        ("p_r", 0.25, False),
        ("reach_fraction", 0.5, False),
        ("skill_rate", 3.0, False),
        ("vacancy_size", 4, False),
        ("reps", 100, False),
        _SEED_KEY,
        _OUT_KEY,
    ],
    "payout": [
        ("chain_length", None, True),
        ("budget", 1, False),
        _OUT_KEY,
    ],
}


def test_config_keys_are_pinned():
    """Every key a config file may set, per subcommand, in the order the
    merge validates them, which decides the error reported first, with its
    default and whether it is required."""
    assert list(cli._COMMANDS) == list(_CONFIG_KEYS)
    for name, keys in _CONFIG_KEYS.items():
        schema = cli._COMMANDS[name].schema
        assert [(key, f.default, f.required) for key, f in schema.items()] == keys, name


# -- one parser per process ----------------------------------------------------

_SMALL_IHC = {"population": 80, "mean_degree": 6.0, "vacancy_sizes": [1, 2],
              "p_r": [0.3, 1.0], "reps": 5}


def _ihc_config(tmp_path) -> str:
    path = tmp_path / "ihc.json"
    path.write_text(json.dumps(_SMALL_IHC), encoding="utf-8")
    return str(path)


def _alone(capsys, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` on a parser built for this call only, as in a fresh process."""
    cli.build_parser.cache_clear()
    return _run(capsys, argv)


def _help(capsys, parser, argv: list[str]) -> str:
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    assert stop.value.code == 0
    return capsys.readouterr().out


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_matches_a_fresh_parser(self, tmp_path, capsys, command):
        argv = ([] if command is None else [command]) + ["--help"]
        assert _run(capsys, ["payout", "--chain-length", "2"])[0] == EXIT_OK
        assert _run(capsys, ["ihc-vs-oracle", "--config", _ihc_config(tmp_path),
                             "--seed", "1", "--reps", "2"])[0] == EXIT_OK
        shared = _help(capsys, cli.build_parser(), argv)
        assert shared == _help(capsys, cli.build_parser.__wrapped__(), argv)
        assert shared.startswith("usage: halting-cascade")

    def test_calls_in_one_process_print_what_they_print_alone(self, tmp_path, capsys):
        ihc = ["ihc-vs-oracle", "--config", _ihc_config(tmp_path), "--seed", "3"]
        calls = [
            ihc + ["--reps", "2"],
            ["heatmap", "--config", _heatmap_config(tmp_path), "--seed", "9"],
            ihc,
        ]
        alone = [_alone(capsys, argv) for argv in calls]
        assert alone[0][1] != alone[2][1]  # --reps 2 is not the config's 5
        assert [_run(capsys, argv) for argv in calls] == alone
        assert all(code == EXIT_OK and out for code, out, _ in alone)

    def test_rejected_calls_leave_later_calls_unchanged(self, tmp_path, capsys):
        good = ["ihc-vs-oracle", "--config", _ihc_config(tmp_path), "--seed", "3"]
        clean = _alone(capsys, good)
        with pytest.raises(SystemExit) as stop:
            main(["ihc-vs-oracle", "--no-such-flag"])
        assert stop.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        code, out, err = _run(capsys, ["ihc-vs-oracle", "--config", "/no/such/config.json",
                                       "--seed", "3"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert "cannot read config" in err
        assert _run(capsys, good) == clean

    def test_fresh_process_builds_one_parser_and_prints_the_same_bytes(self, tmp_path, capsys):
        """Importing the CLI builds no parser, and a one-shot run of
        ``python -m halting_cascade`` builds exactly one, whose output
        matches an in-process call made after other subcommands."""
        argv = ["ihc-vs-oracle", "--config", _ihc_config(tmp_path), "--seed", "3"]
        script = (
            "import runpy, sys\n"
            "from halting_cascade import cli\n"
            "print(cli.build_parser.cache_info().currsize, file=sys.stderr)\n"
            "try:\n"
            "    runpy.run_module('halting_cascade', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as stop:\n"
            "    print(stop.code, cli.build_parser.cache_info().misses, file=sys.stderr)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, timeout=60, env=env,
        )
        # after import: no parser; after the run: exit 0 and one parser built
        assert done.stderr.decode().splitlines() == ["0", f"{EXIT_OK} 1"]

        assert _run(capsys, ["payout", "--chain-length", "3"])[0] == EXIT_OK
        assert _run(capsys, ["heatmap", "--config", _heatmap_config(tmp_path),
                             "--seed", "9"])[0] == EXIT_OK
        code, out, err = _run(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.encode() == done.stdout
