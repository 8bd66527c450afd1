"""SimulationResult export and runner output plumbing."""

import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.__main__ import main


@pytest.fixture(scope="module")
def result(small_synth_trace=None):
    from repro.traces.synthetic import SyntheticWorkload

    trace = SyntheticWorkload().generate(n_ops=800, seed=5)
    return simulate(trace, SimulationConfig(device="intel-datasheet"))


class TestToDict:
    def test_round_trips_through_json(self, result):
        record = json.loads(json.dumps(result.to_dict(), default=str))
        assert record["device"] == "intel-datasheet"
        assert record["energy_j"] > 0

    def test_contains_response_percentiles(self, result):
        record = result.to_dict()
        for op in ("read", "write", "overall"):
            assert set(record[op]) >= {"mean_ms", "p95_ms", "p99_ms", "max_ms"}

    def test_contains_wear_for_flash(self, result):
        assert "wear" in result.to_dict()

    def test_no_wear_for_disk(self):
        from repro.traces.synthetic import SyntheticWorkload

        trace = SyntheticWorkload().generate(n_ops=400, seed=5)
        disk = simulate(trace, SimulationConfig(device="cu140-datasheet"))
        assert "wear" not in disk.to_dict()

    def test_config_echoed(self, result):
        assert result.to_dict()["config"]["device"] == "intel-datasheet"

    def test_save_json(self, result, tmp_path):
        path = tmp_path / "result.json"
        result.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["energy_j"] == pytest.approx(result.energy_j)


class TestRunnerOutput:
    def test_output_file_written(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code = main(["run", "table2", "--scale", "1.0", "--jobs", "1",
                     "--no-cache", "--manifest", str(tmp_path / "m.jsonl"),
                     "--output", str(path)])
        assert code == 0
        assert "manufacturer specifications" in path.read_text()
        assert "1 unit(s): 1 ok" in capsys.readouterr().out

    def test_list_flag(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "flashcache" in out
        assert "ablation-leveling" in out
