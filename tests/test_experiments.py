"""Experiment framework and drivers (run at small scale)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    all_experiments,
    get_experiment,
    run_experiment,
    traces_cache,
)
from repro.experiments.base import ExperimentResult, Table

SMALL = 0.05


class TestTableRendering:
    def test_render_contains_headers_and_rows(self):
        table = Table("demo", ("a", "b"), ((1, 2.5), ("x", 10_000.0)))
        text = table.render()
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "2.500" in text
        assert "10,000" in text

    def test_column_accessor(self):
        table = Table("demo", ("k", "v"), (("one", 1), ("two", 2)))
        assert table.column("v") == [1, 2]

    def test_column_missing(self):
        table = Table("demo", ("k",), (("one",),))
        with pytest.raises(ConfigurationError):
            table.column("nope")

    def test_lookup(self):
        table = Table("demo", ("k", "v"), (("one", 1), ("two", 2)))
        assert table.lookup("two", "v") == 2

    def test_lookup_missing_row(self):
        table = Table("demo", ("k", "v"), (("one", 1),))
        with pytest.raises(ConfigurationError):
            table.lookup("three", "v")


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        ids = set(all_experiments())
        for required in (
            "table1", "table2", "table3", "table4",
            "fig1", "fig2", "fig3", "fig4", "fig5",
            "validation", "endurance", "async-cleaning", "headline",
        ):
            assert required in ids

    def test_seven_ablations_registered(self):
        ablations = [i for i in all_experiments() if i.startswith("ablation-")]
        assert len(ablations) == 7

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get_experiment("table99")

    def test_scale_validated(self):
        with pytest.raises(ConfigurationError):
            get_experiment("table2")(scale=0.0)


def _records(table) -> list[dict]:
    return [dict(zip(table.headers, row)) for row in table.rows]


def _grouped(table, key: str) -> dict:
    groups: dict = {}
    for record in _records(table):
        groups.setdefault(record[key], []).append(record)
    return groups


def _column_map(table, key: str, value: str) -> dict:
    return dict(zip(table.column(key), table.column(value)))


def _percent(text: str) -> int:
    return int(text.rstrip("%"))


def _ablation_cleaner(result):
    policies = set(result.tables[0].column("policy"))
    assert policies == {"greedy", "cost-benefit", "envy"}


def _ablation_segment(result):
    # Smaller erasure units erase more often (fixed data volume).
    cleanings = _column_map(result.tables[0], "segment KB", "cleanings")
    assert cleanings[16] >= cleanings[256]


def _ablation_spindown(result):
    spin_ups = _column_map(result.tables[0], "threshold s", "spin-ups")
    assert spin_ups["never"] == 0
    assert spin_ups[0.5] >= spin_ups[30.0]


def _ablation_writeback(result):
    for saved in result.tables[0].column("device-write bytes saved"):
        if saved != "-":
            assert _percent(saved) >= 0


def _ablation_series2plus(result):
    stall = {(row["trace"], row["device"]): row["stall s"]
             for row in _records(result.tables[0])}
    for trace, device in stall:
        if device == "intel-series2plus":
            assert stall[trace, device] <= stall[trace, "intel-datasheet"]


def _ablation_flash_sram(result):
    # The buffer always helps write response.
    assert all(speedup > 1.0 for speedup in result.tables[0].column("speedup x"))


def _ablation_leveling(result):
    # Active leveling never widens the wear spread vs plain greedy.
    spread = _column_map(result.tables[0], "policy", "max-mean spread")
    assert spread["cold-swap"] <= spread["greedy"]


def _async_cleaning(result):
    # Abstract: "asynchronous erasure can improve write response time by
    # a factor of 2.5".
    for row in _records(result.tables[0]):
        assert row["async wr ms"] < row["sync wr ms"] / 2, row["trace"]


def _endurance(result):
    # Burn-out never improves with fullness.
    for row in _records(result.tables[0]):
        assert row["max erase @95%"] >= row["max erase @40%"], row["trace"]


def _fig1(result):
    # Only MFFS degrades with file size.
    slopes = _column_map(result.table("growth"), "curve", "slope ms/MB")
    assert slopes["intel compressed"] > 100.0
    assert abs(slopes["cu140 uncompressed"]) < 10.0
    assert abs(slopes["sdp10 uncompressed"]) < 10.0


def _fig2(result):
    # Energy and cleaning copies rise from 40% to 95% utilization.
    for trace, rows in _grouped(result.tables[0], "trace").items():
        assert rows[-1]["energy J"] >= rows[0]["energy J"], trace
        assert rows[-1]["copies"] >= rows[0]["copies"], trace


def _fig3(result):
    summary = result.table("first vs last")
    for row in _records(summary):
        assert row["last MB KB/s"] < row["first MB KB/s"], row["configuration"]
    first = _column_map(summary, "configuration", "first MB KB/s")
    assert first["9.5 MB live"] <= first["1 MB live"]


def _fig4(result):
    # "Adding DRAM ... increases the energy used for DRAM without any
    # appreciable benefits."
    for configuration, rows in _grouped(result.tables[0], "configuration").items():
        if configuration.startswith("intel"):
            assert rows[-1]["energy J"] >= rows[0]["energy J"], configuration


def _fig5(result):
    # 32 KB of SRAM improves write response by an order of magnitude on
    # the cache-backed traces, and by less on hp.
    normalized = {(row["trace"], row["SRAM KB"]): row["wr/wr(0)"]
                  for row in _records(result.tables[0])}
    assert normalized["mac", 32] < 0.1
    assert normalized["dos", 32] < 0.1
    assert normalized["hp", 32] < 1.0


def _flashcache(result):
    # On the reuse-heavy workload the hybrid saves real energy (Marsh et
    # al. report 20-40%) and the flash absorbs the read stream.
    synth = _grouped(result.tables[0], "trace")["synth"]
    assert synth[-1]["energy J"] < synth[0]["energy J"] * 0.95
    assert synth[-1]["flash hit rate"] > 0.7


def _headline(result):
    for row in _records(result.tables[0]):
        assert _percent(row["energy saved"]) >= 55, (row["trace"], row["pair"])
        assert row["read x faster"] > 2, (row["trace"], row["pair"])
    extensions = result.tables[1].column("card extension")
    assert max(_percent(text) for text in extensions) >= 15  # the 22%-class headline


def _table1(result):
    # The disk posts the best large-file write throughput.
    writes = {row["device"]: row["unc 1M"]
              for row in _records(result.tables[0]) if row["op"] == "write"}
    assert writes["cu140"] > writes["sdp10"]
    assert writes["cu140"] > writes["intel"]


def _table2(result):
    assert len(result.tables[0].rows) == 8


def _table3(result):
    # Read fractions are scale-invariant and must sit on the paper targets.
    for row in _records(result.tables[0]):
        if row["statistic"] == "fraction_reads":
            assert abs(row["generated"] - row["paper target"]) < 0.05, row["trace"]


def _validation(result):
    # The paper saw agreement within a few percent except for flash card
    # reads (4x) and cu140 writes (2x); require the same order.
    for row in _records(result.tables[0]):
        assert 0.2 <= float(row["ratio"]) <= 5.0, (row["device"], row["op"])


#: Paper-shape checks on the scale-0.05 run below, so they cost no run of
#: their own.  Table 4's "flash far below the disk" needs longer traces
#: than that: see TestExperimentShapes.
PAPER_SHAPES = {
    "ablation-cleaner": _ablation_cleaner,
    "ablation-flash-sram": _ablation_flash_sram,
    "ablation-leveling": _ablation_leveling,
    "ablation-segment": _ablation_segment,
    "ablation-series2plus": _ablation_series2plus,
    "ablation-spindown": _ablation_spindown,
    "ablation-writeback": _ablation_writeback,
    "async-cleaning": _async_cleaning,
    "endurance": _endurance,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "flashcache": _flashcache,
    "headline": _headline,
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "validation": _validation,
}


@pytest.mark.parametrize("experiment_id", sorted(all_experiments()))
def test_every_experiment_runs_and_produces_tables(experiment_id, monkeypatch):
    # trace_for looks _generate up as a module global, so this wrapper
    # sees every read, cached or not.
    read = set()
    generate = traces_cache._generate

    def recording(name, scale, seed):
        read.add(name)
        return generate(name, scale, seed)

    monkeypatch.setattr(traces_cache, "_generate", recording)
    result = run_experiment(experiment_id, scale=SMALL)
    # The engine prewarms exactly the declared traces.
    assert read == set(get_experiment(experiment_id).traces)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.tables, "experiment produced no tables"
    for table in result.tables:
        assert table.rows, f"{experiment_id}: empty table {table.title!r}"
        for row in table.rows:
            assert len(row) == len(table.headers)
    rendered = result.render()
    assert experiment_id in rendered
    check = PAPER_SHAPES.get(experiment_id)
    if check is not None:
        check(result)


class TestExperimentShapes:
    """Cheap shape checks on individual drivers at small scale."""

    def test_fig1_mffs_slope_dominates(self):
        result = run_experiment("fig1", scale=0.25)
        slopes = dict(
            zip(
                result.table("growth").column("curve"),
                result.table("growth").column("slope ms/MB"),
            )
        )
        assert slopes["intel compressed"] > 5 * max(
            abs(slopes["cu140 uncompressed"]), 1e-9
        )

    def test_fig5_sram_improves_writes(self):
        result = run_experiment("fig5", scale=0.1, traces=("mac",))
        table = result.tables[0]
        normalized = table.column("wr/wr(0)")
        assert normalized[0] == pytest.approx(1.0)
        assert min(normalized[1:]) < 0.2  # 32 KB SRAM: large improvement

    def test_async_cleaning_reduces_writes(self):
        result = run_experiment("async-cleaning", scale=0.1, traces=("mac",))
        table = result.tables[0]
        sync_ms = table.column("sync wr ms")[0]
        async_ms = table.column("async wr ms")[0]
        assert async_ms < sync_ms / 2  # the abstract's "factor of 2.5"

    def test_headline_energy_savings(self):
        result = run_experiment("headline", scale=0.1, traces=("mac",))
        savings = result.tables[0].column("energy saved")
        for value in savings:
            assert int(value.rstrip("%")) > 50

    def test_table4_device_ordering(self):
        result = run_experiment("table4", scale=0.1, traces=("mac",))
        table = result.tables[0]
        energy = dict(zip(table.column("device"), table.column("energy J")))
        assert energy["intel-datasheet"] < energy["cu140-datasheet"] / 4
        assert energy["sdp5-datasheet"] < energy["cu140-datasheet"] / 4
        assert energy["kh-datasheet"] > energy["cu140-datasheet"]

    def test_table4_flash_far_below_disk(self):
        # At scale 0.05 the card sits only ~3.3x below the CU140 on dos;
        # mac is covered by test_table4_device_ordering above.
        result = run_experiment("table4", scale=0.2, traces=("dos", "hp"))
        for table in result.tables:
            energy = _column_map(table, "device", "energy J")
            disk = energy["cu140-datasheet"]
            assert energy["intel-datasheet"] < disk / 4, table.title
            assert energy["sdp5-datasheet"] < disk / 4, table.title

    def test_ablation_series2plus_cuts_worst_case(self):
        result = run_experiment(
            "ablation-series2plus", scale=0.1, traces=("hp",)
        )
        table = result.tables[0]
        rows = {row[1]: row for row in table.rows}
        old = rows["intel-datasheet"]
        new = rows["intel-series2plus"]
        wr_max_index = table.headers.index("wr max ms")
        assert new[wr_max_index] <= old[wr_max_index]

    def test_notes_render(self):
        result = run_experiment("table2", scale=1.0)
        assert "Notes:" in result.render()

    def test_result_table_accessor(self):
        result = run_experiment("table2", scale=1.0)
        assert result.table("manufacturer").rows
        with pytest.raises(ConfigurationError):
            result.table("no-such-table")
