"""Simulation configuration validation."""

from dataclasses import fields

import pytest

from repro.core.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.units import MB


def test_defaults_match_paper():
    config = SimulationConfig()
    assert config.device == "cu140-datasheet"
    assert config.dram_bytes == 2 * MB
    assert config.sram_bytes == 32 * 1024  # "benefit of the doubt"
    assert config.spin_down_timeout_s == 5.0
    assert config.flash_utilization == 0.8
    assert config.warm_fraction == 0.1
    assert config.cleaning_policy == "greedy"
    assert not config.write_back
    assert not config.response_includes_queueing


def test_negative_dram_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(dram_bytes=-1)


def test_negative_sram_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(sram_bytes=-1)


def test_utilization_bounds():
    with pytest.raises(ConfigurationError):
        SimulationConfig(flash_utilization=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(flash_utilization=1.1)
    SimulationConfig(flash_utilization=1.0)  # boundary ok


def test_warm_fraction_bounds():
    with pytest.raises(ConfigurationError):
        SimulationConfig(warm_fraction=1.0)
    SimulationConfig(warm_fraction=0.0)


def test_warm_fraction_negative_rejected():
    with pytest.raises(ConfigurationError, match="warm_fraction"):
        SimulationConfig(warm_fraction=-0.1)


def test_warm_fraction_above_one_rejected():
    with pytest.raises(ConfigurationError, match="warm_fraction"):
        SimulationConfig(warm_fraction=1.5)


def test_negative_spin_down_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(spin_down_timeout_s=-1.0)


def test_none_spin_down_allowed():
    assert SimulationConfig(spin_down_timeout_s=None).spin_down_timeout_s is None


def test_with_options_returns_modified_copy():
    base = SimulationConfig()
    variant = base.with_options(device="intel-datasheet", dram_bytes=0)
    assert variant.device == "intel-datasheet"
    assert variant.dram_bytes == 0
    assert base.device == "cu140-datasheet"  # original untouched


def test_with_options_validates():
    with pytest.raises(ConfigurationError):
        SimulationConfig().with_options(flash_utilization=2.0)


def test_describe_is_complete():
    described = SimulationConfig().describe()
    for key in ("device", "dram_bytes", "sram_bytes", "flash_utilization",
                "cleaning_policy", "write_back", "warm_fraction"):
        assert key in described


def test_describe_records_every_field():
    """Two runs that differ in any setting must differ in their record."""
    assert list(SimulationConfig().describe()) == [
        field.name for field in fields(SimulationConfig)
    ]


def test_frozen():
    config = SimulationConfig()
    with pytest.raises(AttributeError):
        config.dram_bytes = 0


def test_fault_plan_default_none_and_described():
    config = SimulationConfig()
    assert config.fault_plan is None
    assert config.describe()["fault_plan"] is None


def test_fault_plan_accepted_and_described():
    from repro.faults.plan import FaultPlan

    plan = FaultPlan(seed=5, transient_read_rate=0.1)
    config = SimulationConfig(fault_plan=plan)
    described = config.describe()["fault_plan"]
    assert described["seed"] == 5
    assert described["transient_read_rate"] == 0.1


def test_fault_plan_wrong_type_rejected():
    with pytest.raises(ConfigurationError, match="fault_plan"):
        SimulationConfig(fault_plan={"seed": 1})
