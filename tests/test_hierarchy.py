"""Storage-hierarchy dispatch: cache interplay, SRAM semantics, assembly."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.layers import LayerStack
from repro.devices.disk import MagneticDisk, SpindleState
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.traces.record import BlockOp, Operation
from repro.units import KB
from tests.single_op import submit


def op(time, kind, blocks, file_id=1, block_bytes=KB):
    return BlockOp(
        time=time, op=kind, file_id=file_id,
        blocks=tuple(blocks), size=len(blocks) * block_bytes,
    )


def build(device="cu140-datasheet", **overrides) -> LayerStack:
    config = SimulationConfig(device=device, **overrides)
    return build_hierarchy(config, KB, dataset_blocks=4096)


class TestAssembly:
    def test_disk_gets_sram(self):
        hierarchy = build("cu140-datasheet")
        assert hierarchy.sram is not None
        assert isinstance(hierarchy.device, MagneticDisk)

    def test_flash_has_no_sram_by_default(self):
        hierarchy = build("sdp5-datasheet")
        assert hierarchy.sram is None
        assert isinstance(hierarchy.device, FlashDisk)

    def test_flash_sram_ablation_flag(self):
        hierarchy = build("sdp5-datasheet", sram_on_flash=True)
        assert hierarchy.sram is not None

    def test_card_built_with_preload_at_utilization(self):
        hierarchy = build("intel-datasheet", flash_utilization=0.8)
        card = hierarchy.device
        assert isinstance(card, FlashCard)
        assert card.utilization == pytest.approx(0.8, abs=0.05)

    def test_zero_dram_disables_cache(self):
        hierarchy = build("cu140-datasheet", dram_bytes=0)
        assert hierarchy.dram is None

    def test_flash_capacity_respects_dataset(self):
        hierarchy = build("intel-datasheet", flash_utilization=0.9)
        card = hierarchy.device
        assert card.capacity_bytes >= 4096 * KB


class TestReadPath:
    def test_cache_hit_never_touches_device(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        reads_before = hierarchy.device.reads
        response = submit(hierarchy, op(10.0, Operation.READ, [1])).response_s
        assert hierarchy.device.reads == reads_before
        assert response < 0.001  # DRAM speed

    def test_cache_miss_reads_device(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.READ, [7]))
        assert hierarchy.device.reads >= 1

    def test_miss_installs_block(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.READ, [7]))
        second = submit(hierarchy, op(10.0, Operation.READ, [7])).response_s
        assert second < 0.001

    def test_no_dram_always_hits_device(self):
        hierarchy = build("cu140-datasheet", dram_bytes=0)
        submit(hierarchy, op(0.0, Operation.READ, [7]))
        submit(hierarchy, op(10.0, Operation.READ, [7]))
        assert hierarchy.device.reads == 2

    def test_read_served_from_sram_when_buffered(self):
        hierarchy = build("cu140-datasheet", dram_bytes=0)
        # Let the disk sleep, then write (absorbed by SRAM).
        hierarchy.advance(100.0)
        submit(hierarchy, op(100.0, Operation.WRITE, [3]))
        reads_before = hierarchy.device.reads
        response = submit(hierarchy, op(101.0, Operation.READ, [3])).response_s
        assert hierarchy.device.reads == reads_before  # no spin-up
        assert response < 0.001


class TestWritePath:
    def test_write_absorbed_by_sram_when_disk_asleep(self):
        hierarchy = build("cu140-datasheet")
        hierarchy.advance(100.0)  # disk spins down
        assert hierarchy.device.state is SpindleState.SLEEPING
        response = submit(hierarchy, op(100.0, Operation.WRITE, [1])).response_s
        assert response < 0.001
        assert hierarchy.device.state is SpindleState.SLEEPING  # still asleep
        assert hierarchy.sram.dirty_count == 1

    def test_write_passes_through_while_spinning(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))  # disk starts spinning
        assert hierarchy.sram.dirty_count == 0  # drained immediately

    def test_large_write_bypasses_sram(self):
        hierarchy = build("cu140-datasheet")
        hierarchy.advance(100.0)
        big = list(range(64))  # 64 KB > the 32 KB buffer
        response = submit(hierarchy, op(100.0, Operation.WRITE, big)).response_s
        assert hierarchy.device.writes >= 1
        assert response > 1.0  # paid the spin-up

    def test_buffer_full_forces_synchronous_flush(self):
        hierarchy = build("cu140-datasheet", dram_bytes=0)
        hierarchy.advance(100.0)
        clock = 100.0
        worst = 0.0
        for index in range(40):  # 40 x 1 KB > 32 KB buffer
            response = submit(hierarchy, op(clock, Operation.WRITE, [index])).response_s
            worst = max(worst, response)
            clock += 0.001
        assert worst > 1.0  # one write waited for spin-up + flush
        assert hierarchy.sram.sync_flushes >= 1

    def test_no_sram_writes_go_to_device(self):
        hierarchy = build("cu140-datasheet", sram_bytes=0)
        assert hierarchy.sram is None
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        assert hierarchy.device.writes == 1

    def test_stale_sram_copy_invalidated_on_bypass(self):
        hierarchy = build("cu140-datasheet", dram_bytes=0)
        hierarchy.advance(100.0)
        submit(hierarchy, op(100.0, Operation.WRITE, [1]))  # buffered
        big = [1] + list(range(100, 163))
        submit(hierarchy, op(101.0, Operation.WRITE, big))  # bypass, newer data
        assert not hierarchy.sram.contains(1)


class TestWriteBack:
    def test_write_back_defers_device_writes(self):
        hierarchy = build("cu140-datasheet", write_back=True, sram_bytes=0)
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        assert hierarchy.device.writes == 0

    def test_finalize_flushes_dirty(self):
        hierarchy = build("cu140-datasheet", write_back=True, sram_bytes=0)
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        hierarchy.finalize(10.0)
        assert hierarchy.device.writes == 1


class TestDelete:
    def test_delete_invalidates_everywhere(self):
        hierarchy = build("cu140-datasheet")
        hierarchy.advance(100.0)
        submit(hierarchy, op(100.0, Operation.WRITE, [5]))
        submit(hierarchy, op(101.0, Operation.DELETE, [5]))
        assert not hierarchy.sram.contains(5)
        response = submit(hierarchy, op(102.0, Operation.READ, [5])).response_s
        assert hierarchy.device.reads >= 1  # not served from caches


class TestQueueReporting:
    def test_queue_wait_excluded_by_default(self):
        hierarchy = build("sdp5-datasheet", dram_bytes=0)
        first = submit(hierarchy, op(0.0, Operation.WRITE, list(range(32)))).response_s
        second = submit(hierarchy, op(0.0, Operation.READ, [100])).response_s
        # The read arrived during the long write but reports service only.
        assert second < first


class TestEnergyAggregation:
    def test_breakdown_has_all_components(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        hierarchy.finalize(10.0)
        breakdown = hierarchy.energy_breakdown()
        assert "device" in breakdown
        assert "dram" in breakdown
        assert "sram" in breakdown
        assert hierarchy.total_energy_j == pytest.approx(
            sum(sum(b.values()) for b in breakdown.values())
        )

    def test_reset_accounting_zeroes_everything(self):
        hierarchy = build("cu140-datasheet")
        submit(hierarchy, op(0.0, Operation.WRITE, [1]))
        hierarchy.finalize(10.0)
        hierarchy.reset_accounting()
        assert hierarchy.total_energy_j == 0.0
