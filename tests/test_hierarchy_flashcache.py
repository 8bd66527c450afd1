"""Building the FlashCache hybrid through the standard configuration."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.devices.flashcache import FlashCacheDevice
from repro.errors import ConfigurationError
from repro.units import KB, MB


def test_flash_cache_bytes_builds_hybrid():
    config = SimulationConfig(device="cu140-datasheet", flash_cache_bytes=2 * MB)
    hierarchy = build_hierarchy(config, KB, dataset_blocks=1024)
    assert isinstance(hierarchy.device, FlashCacheDevice)


def test_zero_cache_builds_plain_disk():
    config = SimulationConfig(device="cu140-datasheet", flash_cache_bytes=0)
    hierarchy = build_hierarchy(config, KB, dataset_blocks=1024)
    assert not isinstance(hierarchy.device, FlashCacheDevice)


def test_cache_capacity_rounded_to_segments():
    config = SimulationConfig(
        device="cu140-datasheet", flash_cache_bytes=2 * MB + 12345
    )
    hierarchy = build_hierarchy(config, KB, dataset_blocks=1024)
    card = hierarchy.device.flash
    assert card.capacity_bytes % card.spec.segment_bytes == 0


def test_flash_cache_ignored_for_flash_devices():
    config = SimulationConfig(device="sdp5-datasheet", flash_cache_bytes=2 * MB)
    hierarchy = build_hierarchy(config, KB, dataset_blocks=1024)
    assert not isinstance(hierarchy.device, FlashCacheDevice)


def test_negative_cache_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(flash_cache_bytes=-1)


def test_hybrid_respects_cleaning_policy():
    config = SimulationConfig(
        device="cu140-datasheet",
        flash_cache_bytes=2 * MB,
        cleaning_policy="cost-benefit",
    )
    hierarchy = build_hierarchy(config, KB, dataset_blocks=1024)
    from repro.flash.cleaner import CostBenefitPolicy

    assert isinstance(hierarchy.device.flash.policy, CostBenefitPolicy)


def test_hybrid_simulates_under_default_pipeline(small_synth_trace):
    from repro.core.simulator import simulate

    config = SimulationConfig(device="cu140-datasheet", flash_cache_bytes=4 * MB)
    result = simulate(small_synth_trace, config)
    assert result.energy_j > 0
    assert "flash_read_hits" in result.device_stats
