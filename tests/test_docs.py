"""The README's library quickstart and config commands run as written."""
from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from halting_cascade.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SUMMARY = "n_runs,success_rate,median_chain_length,mean_chain_depth,mean_applicants"


def test_readme_python_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def _config_commands() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^halting-cascade (\S+) --config (scripts/\S+\.json)$", text, flags=re.M)


def test_readme_names_every_config():
    assert _config_commands()
    assert sorted(path for _, path in _config_commands()) == sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "scripts").glob("*.json")
    )


def _heatmap_shape(cfg: dict) -> tuple[str, int]:
    header = "p_r,p_a,p_h,n,mean_degree,diffusion_value,halting_value,regime," + SUMMARY
    return header, len(cfg["p_r"]) * len(cfg["p_a"]) * len(cfg["p_h"])


def _ihc_vs_oracle_shape(cfg: dict) -> tuple[str, int]:
    header = (
        "system,population,mean_degree,reach_fraction,skill_rate,vacancy_size,p_r,"
        "analytic_oracle_success," + SUMMARY
    )
    return header, 2 * len(cfg["vacancy_sizes"]) * len(cfg["p_r"])


_SHAPES = {"heatmap": _heatmap_shape, "ihc-vs-oracle": _ihc_vs_oracle_shape}


@pytest.mark.parametrize("command, path", _config_commands())
def test_readme_config_command_runs(capsys, command, path):
    cfg = json.loads((ROOT / path).read_text(encoding="utf-8"))
    assert cfg["reps"] > 2
    code = main([command, "--config", str(ROOT / path), "--reps", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    header, n_rows = _SHAPES[command](cfg)
    assert out.splitlines()[0] == header
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == n_rows
    for row in rows:
        assert row["n_runs"] == "2"
        assert 0.0 <= float(row["success_rate"]) <= 1.0


def _payout_split_script():
    path = ROOT / "scripts" / "payout_split.py"
    assert f"python {path.relative_to(ROOT)}" in README.read_text(encoding="utf-8")
    spec = importlib.util.spec_from_file_location("payout_split", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_payout_split_script_runs(monkeypatch, capsys):
    script = _payout_split_script()
    monkeypatch.setattr(script, "REPS", 5)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" reps=5")
    assert lines[1].split() == [
        "p_r", "hires", "mean_depth", "poster_keeps", "worker_take", "depth_range"
    ]
    assert [float(line.split()[0]) for line in lines[2:]] == list(script.P_RECOMMEND)


def test_payout_split_output_pinned(capsys):
    """The script's whole output at its own seed and reps, pinned across
    versions: its cells run on G(n, p) as scalar chains, so a change to
    their draw schedule moves this hash and must say so."""
    _payout_split_script().main()
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "13424c2df25b98edb376de1dc22db9e67899d8358d53bfd64b18de9b1cf867ae"
    )


def _readme_prose() -> str:
    return " ".join(README.read_text(encoding="utf-8").split())


def _study_rows(capsys, command: str, script: str) -> list[dict]:
    """The rows a README study config prints at its own reps."""
    code = main([command, "--config", str(ROOT / "scripts" / script)])
    assert code == EXIT_OK
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def _assert_quoted(quote: str, row: dict) -> None:
    """``row``'s success rate printed at the quote's decimal places is the quote."""
    places = len(quote.partition(".")[2])
    assert f"{float(row['success_rate']):.{places}f}" == quote


def test_readme_heatmap_rates_are_printed(capsys):
    (p_r_rise, rise_lo, rise_hi, p_a_lo, p_a_hi, p_r_fall, fall_lo, fall_hi) = re.search(
        r"at `p_r = ([\d.]+)` it rises from ([\d.]+) to ([\d.]+) as `p_a` goes "
        r"from ([\d.]+) to ([\d.]+), and at `p_r = ([\d.]+)` it falls from ([\d.]+) to ([\d.]+)\.",
        _readme_prose(),
    ).groups()
    cells = {(row["p_r"], row["p_a"]): row
             for row in _study_rows(capsys, "heatmap", "regime_heatmap.json")}
    for p_r, lo, hi in ((p_r_rise, rise_lo, rise_hi), (p_r_fall, fall_lo, fall_hi)):
        _assert_quoted(lo, cells[(p_r, p_a_lo)])
        _assert_quoted(hi, cells[(p_r, p_a_hi)])


def test_readme_ihc_vs_oracle_rates_are_printed(capsys):
    (v_lo, v_hi, ihc_lo, ihc_hi, oracle_lo, oracle_hi) = re.search(
        r"from vacancy size (\d+) to (\d+) the cascade hires in ([\d.]+) to ([\d.]+) of runs "
        r"and direct posting in ([\d.]+) to ([\d.]+)\.",
        _readme_prose(),
    ).groups()
    cells = {(row["system"], row["vacancy_size"]): row
             for row in _study_rows(capsys, "ihc-vs-oracle", "ihc_vs_oracle.json")}
    for system, lo, hi in (("ihc", ihc_lo, ihc_hi), ("oracle", oracle_lo, oracle_hi)):
        _assert_quoted(lo, cells[(system, v_lo)])
        _assert_quoted(hi, cells[(system, v_hi)])
