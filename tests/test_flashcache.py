"""FlashCache hybrid device (extension X1)."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.devices.disk import MagneticDisk
from repro.devices.flashcache import FlashCacheDevice
from repro.devices.flashcard import FlashCard
from repro.devices.specs import CU140_DATASHEET, INTEL_DATASHEET
from repro.errors import ConfigurationError
from repro.traces.synthetic import SyntheticWorkload
from repro.units import KB, MB


def make_hybrid(cache_mb=2, watermark=None):
    disk = MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=5.0)
    flash = FlashCard(
        INTEL_DATASHEET, capacity_bytes=cache_mb * MB, block_bytes=1024
    )
    return FlashCacheDevice(disk, flash, dirty_watermark_blocks=watermark)


class TestBasics:
    def test_first_read_misses_to_disk(self):
        hybrid = make_hybrid()
        hybrid.read(0.0, KB, [1], 1)
        assert hybrid.flash_read_misses == 1
        assert hybrid.disk.reads == 1

    def test_second_read_hits_flash(self):
        hybrid = make_hybrid()
        first = hybrid.read(0.0, KB, [1], 1)
        hybrid.read(first + 1.0, KB, [1], 1)
        assert hybrid.flash_read_hits == 1
        assert hybrid.disk.reads == 1  # no second disk access

    def test_write_does_not_touch_disk(self):
        hybrid = make_hybrid()
        hybrid.write(0.0, KB, [1], 1)
        assert hybrid.disk.writes == 0
        assert hybrid.dirty_blocks == 1

    def test_write_then_read_served_from_flash(self):
        hybrid = make_hybrid()
        completion = hybrid.write(0.0, KB, [1], 1)
        hybrid.read(completion + 0.1, KB, [1], 1)
        assert hybrid.disk.reads == 0

    def test_read_miss_triggers_dirty_writeback(self):
        hybrid = make_hybrid()
        completion = hybrid.write(0.0, KB, [1], 1)
        hybrid.read(completion + 0.1, KB, [99], 1)  # wakes the disk
        assert hybrid.dirty_blocks == 0
        assert hybrid.disk.writes == 1

    def test_watermark_forces_flush(self):
        hybrid = make_hybrid(watermark=4)
        clock = 0.0
        for block in range(8):
            clock = hybrid.write(clock, KB, [block], 1)
        assert hybrid.disk_flushes >= 1
        assert hybrid.dirty_blocks <= 4

    def test_delete_clears_both_levels(self):
        hybrid = make_hybrid()
        hybrid.write(0.0, KB, [1], 1)
        hybrid.delete(1.0, [1])
        assert hybrid.dirty_blocks == 0
        assert hybrid.flash.live_blocks == 0

    def test_finalize_writes_back_dirty(self):
        hybrid = make_hybrid()
        hybrid.write(0.0, KB, [1], 1)
        hybrid.finalize(100.0)
        assert hybrid.dirty_blocks == 0
        assert hybrid.disk.writes == 1

    def test_invalid_watermark(self):
        with pytest.raises(ConfigurationError):
            make_hybrid(watermark=0)


class TestCacheManagement:
    def test_capacity_bounded(self):
        hybrid = make_hybrid(cache_mb=1)
        clock = 0.0
        for block in range(3000):
            clock = hybrid.read(clock, KB, [block], 1)
            clock += 1.0
        assert len(hybrid._resident) <= hybrid.cache_capacity_blocks
        hybrid.flash.check_invariants()

    def test_clean_evictions_invalidate_flash_blocks(self):
        hybrid = make_hybrid(cache_mb=1)
        clock = 0.0
        for block in range(2000):
            clock = hybrid.read(clock, KB, [block], 1) + 1.0
        # Evictions marked dead on the card keep its cleaner solvent.
        assert hybrid.flash.live_blocks <= hybrid.cache_capacity_blocks + 1

    def test_energy_merges_both_devices(self):
        hybrid = make_hybrid()
        hybrid.read(0.0, KB, [1], 1)
        hybrid.advance(100.0)
        breakdown = hybrid.energy.breakdown()
        assert any(key.startswith("disk:") for key in breakdown)
        assert any(key.startswith("flash:") for key in breakdown)
        assert hybrid.energy.total_j == pytest.approx(
            hybrid.disk.energy.total_j + hybrid.flash.energy.total_j
        )

    def test_reset_accounting_resets_children(self):
        hybrid = make_hybrid()
        hybrid.read(0.0, KB, [1], 1)
        hybrid.reset_accounting()
        assert hybrid.energy.total_j == 0.0
        assert hybrid.flash_read_misses == 0

    def test_wear_reports_flash(self):
        hybrid = make_hybrid()
        assert hybrid.wear(3600.0).segments == len(hybrid.flash.segments)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def synth_results(self):
        trace = SyntheticWorkload().generate(n_ops=3000, seed=2)
        plain = simulate(trace, SimulationConfig(
            device="cu140-datasheet", dram_bytes=0))
        hybrid = simulate(trace, SimulationConfig(
            device="cu140-datasheet", dram_bytes=0,
            flash_cache_bytes=8 * MB))
        return plain, hybrid

    def test_hybrid_saves_energy_on_reuse_heavy_workload(self, synth_results):
        plain, hybrid = synth_results
        assert hybrid.energy_j < plain.energy_j * 0.9

    def test_hybrid_writes_never_wait_for_the_spindle(self, synth_results):
        plain, hybrid = synth_results
        # Both configurations front writes with SRAM, so means are close;
        # the hybrid's advantage is the tail: its flushes land on flash,
        # never on a spinning-up disk.
        assert hybrid.write_response.max_s < 1.0
        assert hybrid.write_response.mean_s < 0.005

    def test_responses_non_negative(self, synth_results):
        _, hybrid = synth_results
        assert hybrid.read_response.mean_s >= 0.0
        assert hybrid.write_response.mean_s >= 0.0

    def test_high_flash_hit_rate(self, synth_results):
        _, hybrid = synth_results
        stats = hybrid.device_stats
        hits, misses = stats["flash_read_hits"], stats["flash_read_misses"]
        assert hits / (hits + misses) > 0.8

    def test_experiment_driver_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("flashcache", scale=0.05)
        table = result.tables[0]
        assert len(table.rows) == 6  # 2 traces x 3 cache sizes
