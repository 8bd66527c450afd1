"""Per-layer attribution of observed runs.

``repro run <ids> --observe DIR`` checks every simulation of a work unit
and writes its latency and energy per layer, one table per simulation,
to ``<stem>.layers.txt`` (:meth:`ObservabilitySession.layer_tables`).
These tables replace the probe reports of the former ``repro inspect``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.engine import WorkUnit
from repro.engine.scheduler import run_unit_observed
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def table4(tmp_path_factory):
    """An observed table4 unit: its metrics runs, and its layer tables
    split into rows of words."""
    out = str(tmp_path_factory.mktemp("table4"))
    _result, artifacts = run_unit_observed(WorkUnit("table4", scale=0.02),
                                           out, out)
    runs = json.loads(Path(artifacts["metrics"]).read_text())["runs"]
    layers = Path(artifacts["layers"]).read_text()
    tables = [[line.split() for line in table.splitlines()]
              for table in layers.split("\n\n")]
    return runs, tables


def test_inspect_components_sum_to_totals(table4):
    runs, tables = table4
    assert len(runs) == len(tables) == 21
    for run, table in zip(runs, tables):
        totals = run["totals"]
        latency = sum(run["layer_breakdown_latency_s"].values())
        energy = sum(run["layer_breakdown_energy_j"].values())
        assert latency == pytest.approx(totals["latency_s"], rel=1e-6)
        assert energy == pytest.approx(totals["energy_j"], rel=1e-9)
        # Title, header, rule, one row per layer, then the total row.
        assert table[1] == ["layer", "latency", "s", "lat", "%",
                            "energy", "J", "en", "%"]
        assert ([row[0] for row in table[3:]]
                == [*run["layer_breakdown_latency_s"], "total"])


def test_inspect_flash_probe_reports_cleaning_layer(table4):
    # A flash card's reclamation work surfaces as the attributed
    # `cleaning` pseudo-layer of each of its simulations.
    runs, tables = table4
    card = [table for run, table in zip(runs, tables)
            if run["device"] == "intel-datasheet"]
    assert card
    for table in card:
        assert "cleaning" in [row[0] for row in table[3:-1]]


def test_inspect_unknown_experiment_raises(tmp_path):
    with pytest.raises(ConfigurationError,
                       match="unknown experiment 'does-not-exist'"):
        run_unit_observed(WorkUnit("does-not-exist"), str(tmp_path),
                          str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_inspect_no_simulation_experiments_fall_back(tmp_path):
    # table2 lists manufacturer specifications and simulates nothing:
    # its unit passes the checks, and its layers file says so.
    out = str(tmp_path)
    _result, artifacts = run_unit_observed(WorkUnit("table2", scale=0.02),
                                           out, out)
    assert json.loads(Path(artifacts["metrics"]).read_text())["runs"] == []
    assert Path(artifacts["layers"]).read_text() == "no simulation ran\n"


def test_inspect_cli_prints_breakdown(tmp_path, capsys):
    code = main(["run", "validation", "--scale", "0.05", "--jobs", "1",
                 "--no-cache", "--quiet",
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--observe", str(tmp_path / "obs")])
    assert code == 0
    assert capsys.readouterr().err == ""
    layers = (tmp_path / "obs" / "validation-s0.05.layers.txt").read_text()
    assert layers.startswith("run 0: synth on cu140-measured, ")
    assert layers.count("energy J") == 3  # one table per simulation


def test_inspect_cli_unknown_experiment_errors(tmp_path, capsys):
    # Every id is checked before any unit runs: one bad id among good
    # ones observes nothing and writes no manifest.
    code = main(["run", "table2", "nope", "--jobs", "1", "--no-cache",
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--observe", str(tmp_path / "obs")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown experiment 'nope'")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
