"""End-to-end simulator behaviour."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator, simulate
from repro.errors import ConfigurationError, TraceError
from repro.traces.trace import Trace
from repro.units import KB


def test_runs_tiny_trace(tiny_trace):
    result = simulate(tiny_trace, SimulationConfig(warm_fraction=0.0))
    assert result.n_reads == 2
    assert result.n_writes == 2
    assert result.energy_j > 0


def test_result_carries_config_and_names(tiny_trace):
    config = SimulationConfig(device="sdp5-datasheet", warm_fraction=0.0)
    result = simulate(tiny_trace, config)
    assert result.trace_name == "tiny"
    assert result.device_name == "sdp5-datasheet"
    assert result.config is config


def test_warm_fraction_excludes_prefix(small_synth_trace):
    full = simulate(small_synth_trace, SimulationConfig(
        device="sdp5-datasheet", warm_fraction=0.0))
    measured = simulate(small_synth_trace, SimulationConfig(
        device="sdp5-datasheet", warm_fraction=0.5))
    assert measured.n_reads < full.n_reads
    assert measured.energy_j < full.energy_j


def test_deletes_counted(small_synth_trace):
    result = simulate(small_synth_trace, SimulationConfig(
        device="sdp5-datasheet", warm_fraction=0.0))
    assert result.n_deletes > 0


def test_duration_covers_trace(small_synth_trace):
    result = simulate(small_synth_trace, SimulationConfig(warm_fraction=0.0))
    assert result.duration_s >= small_synth_trace.duration * 0.99


def test_wear_present_only_for_flash_card(tiny_trace):
    disk = simulate(tiny_trace, SimulationConfig(warm_fraction=0.0))
    card = simulate(tiny_trace, SimulationConfig(
        device="intel-datasheet", warm_fraction=0.0))
    assert disk.wear is None
    assert card.wear is not None


def test_dram_hit_rate_reported(small_synth_trace):
    result = simulate(small_synth_trace, SimulationConfig(warm_fraction=0.0))
    assert result.dram_hit_rate is not None
    assert 0.0 <= result.dram_hit_rate <= 1.0


def test_zero_dram_reports_no_hit_rate(tiny_trace):
    result = simulate(tiny_trace, SimulationConfig(
        dram_bytes=0, warm_fraction=0.0))
    assert result.dram_hit_rate is None


def test_table4_row_shape(tiny_trace):
    row = simulate(tiny_trace, SimulationConfig(warm_fraction=0.0)).table4_row()
    for key in ("device", "energy_j", "read_mean_ms", "write_max_ms"):
        assert key in row


def test_energy_of_component(small_synth_trace):
    result = simulate(small_synth_trace, SimulationConfig(warm_fraction=0.0))
    assert result.energy_of("device") > 0
    assert result.energy_of("nonexistent") == 0.0


@pytest.mark.parametrize("kernel", [None, "batched", "vector"])
def test_empty_trace_rejected(kernel):
    with pytest.raises(TraceError, match="'empty' produced no block operations"):
        simulate(Trace("empty", [], block_size=KB), SimulationConfig(), kernel=kernel)


def test_unknown_kernel_rejected(small_synth_trace):
    with pytest.raises(ConfigurationError, match=r"choose from: batched, vector"):
        simulate(small_synth_trace, SimulationConfig(), kernel="reference")


def test_empty_trace_rejected_before_building_accounting():
    # Regression: the old behaviour silently returned an all-zero result,
    # which downstream analysis divided by — the error must name the trace.
    with pytest.raises(TraceError, match="oops"):
        simulate(Trace("oops", [], block_size=KB), SimulationConfig())


def test_deterministic(small_synth_trace):
    config = SimulationConfig(device="intel-datasheet")
    a = simulate(small_synth_trace, config)
    b = simulate(small_synth_trace, config)
    assert a.energy_j == b.energy_j
    assert a.read_response.mean_s == b.read_response.mean_s


def test_simulator_reusable(tiny_trace, small_synth_trace):
    simulator = Simulator(SimulationConfig(warm_fraction=0.0))
    first = simulator.run(tiny_trace)
    second = simulator.run(tiny_trace)
    assert first.energy_j == pytest.approx(second.energy_j)


def test_unknown_device_fails_fast(tiny_trace):
    with pytest.raises(ConfigurationError):
        simulate(tiny_trace, SimulationConfig(device="pdp11"))


def test_responses_are_positive(small_synth_trace):
    for device in ("cu140-datasheet", "sdp5-datasheet", "intel-datasheet"):
        result = simulate(small_synth_trace, SimulationConfig(device=device))
        assert result.read_response.mean_s > 0
        assert result.write_response.mean_s > 0
        assert result.read_response.max_s >= result.read_response.mean_s
        assert result.write_response.max_s >= result.write_response.mean_s


def test_overall_combines_reads_and_writes(small_synth_trace):
    result = simulate(small_synth_trace, SimulationConfig(warm_fraction=0.0))
    assert result.overall_response.count == result.n_reads + result.n_writes
