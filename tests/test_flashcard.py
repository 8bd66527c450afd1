"""Flash memory card model: segments, cleaning, stalls, wear."""

import pytest

from repro.devices.flashcard import FlashCard
from repro.devices.specs import INTEL_DATASHEET
from repro.errors import ConfigurationError, FlashOutOfSpaceError
from repro.units import KB

SPEC = INTEL_DATASHEET


def make_card(capacity_kb=512, segment_kb=32, block=1024, **kwargs):
    from dataclasses import replace

    spec = replace(SPEC, segment_bytes=segment_kb * KB)
    return FlashCard(
        spec, capacity_bytes=capacity_kb * KB, block_bytes=block, **kwargs
    )


class TestGeometry:
    def test_blocks_per_segment(self):
        card = make_card(segment_kb=32, block=1024)
        assert card.blocks_per_segment == 32

    def test_capacity_must_align_to_segment(self):
        with pytest.raises(ConfigurationError):
            make_card(capacity_kb=100, segment_kb=32)

    def test_segment_must_align_to_block(self):
        from dataclasses import replace

        spec = replace(SPEC, segment_bytes=10_000)
        with pytest.raises(ConfigurationError):
            FlashCard(spec, capacity_bytes=30_000, block_bytes=1024)

    def test_needs_three_segments(self):
        with pytest.raises(ConfigurationError):
            make_card(capacity_kb=64, segment_kb=32)


class TestWritePath:
    def test_write_time_per_block(self):
        card = make_card()
        completion = card.write(0.0, 2048, [0, 1], 1)
        expected = 2 * (SPEC.write_latency_s + 1024 / SPEC.write_bandwidth_bps)
        assert completion == pytest.approx(expected)

    def test_read_time(self):
        card = make_card()
        completion = card.read(0.0, 4096, [0, 1, 2, 3], 1)
        assert completion == pytest.approx(
            SPEC.read_latency_s + 4096 / SPEC.read_bandwidth_bps
        )

    def test_overwrite_marks_old_dead(self):
        card = make_card()
        card.write(0.0, 1024, [7], 1)
        card.write(1.0, 1024, [7], 1)
        dead = sum(segment.dead_blocks for segment in card.segments)
        assert dead == 1
        assert card.live_blocks == 1

    def test_segment_fills_before_moving_on(self):
        card = make_card(segment_kb=32)
        for index in range(32):
            card.write(float(index), 1024, [index], 1)
        used_segments = {card._map[b] for b in range(32)}
        assert len(used_segments) == 1

    def test_utilization_property(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        assert card.utilization == pytest.approx(0.5)

    def test_invariants_after_traffic(self):
        card = make_card()
        for index in range(200):
            card.write(float(index), 1024, [index % 50], 1)
        card.check_invariants()


class TestPreload:
    def test_preload_installs_instantly(self):
        card = make_card()
        card.preload(range(100))
        assert card.live_blocks == 100
        assert card.clock == 0.0
        assert card.energy.total_j == 0.0

    def test_preload_duplicate_ids_ignored(self):
        card = make_card()
        card.preload([1, 1, 2])
        assert card.live_blocks == 2

    def test_preload_beyond_capacity_rejected(self):
        card = make_card(capacity_kb=96, segment_kb=32)
        with pytest.raises((ConfigurationError, FlashOutOfSpaceError)):
            card.preload(range(96))  # would leave < 1 free segment


class TestCleaning:
    def test_background_cleaning_keeps_a_segment_erased(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        clock = 0.0
        for index in range(200):
            clock = card.write(clock, 1024, [index % 64], 1)
            card.advance(clock + 10.0)  # generous idle for the cleaner
            clock += 10.0
        assert card.segments_cleaned > 0
        assert card.erased_segment_count >= 1

    def test_cleaning_copies_live_blocks(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        clock = 0.0
        # Rewrite a small hot set; victims keep live (cold) blocks to copy.
        for index in range(300):
            clock = card.write(clock, 1024, [index % 8], 1)
            card.advance(clock + 5.0)
            clock += 5.0
        assert card.blocks_copied > 0
        card.check_invariants()

    def test_write_stalls_when_no_erased_segment(self):
        # Back-to-back writes leave the background cleaner no idle time.
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(80))
        clock = 0.0
        for index in range(200):
            clock = card.write(clock, 1024, [index % 80], 1)
        assert card.stalled_writes > 0
        assert card.write_stall_s > 0.0

    def test_stall_includes_erase_time(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(80))
        clock = 0.0
        worst = 0.0
        for index in range(200):
            completion = card.write(clock, 1024, [index % 80], 1)
            worst = max(worst, completion - clock)
            clock = completion
        assert worst >= SPEC.erase_time_s * 0.9

    def test_out_of_space_raises(self):
        card = make_card(capacity_kb=96, segment_kb=32)
        card.preload(range(64))  # 2/3 full, one segment spare
        with pytest.raises(FlashOutOfSpaceError):
            clock = 0.0
            for index in range(64, 200):  # all-new data, nothing reclaimable
                clock = card.write(clock, 1024, [index], 1)

    def test_erase_counts_accumulate(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        clock = 0.0
        for index in range(400):
            clock = card.write(clock, 1024, [index % 16], 1)
            card.advance(clock + 5.0)
            clock += 5.0
        wear = card.wear(duration_s=clock)
        assert wear.total_erasures == card.segments_cleaned
        assert wear.max_erasures >= 1


class TestDeletion:
    def test_delete_invalidates(self):
        card = make_card()
        card.write(0.0, 2048, [0, 1], 1)
        card.delete(1.0, [0, 1])
        assert card.live_blocks == 0
        dead = sum(segment.dead_blocks for segment in card.segments)
        assert dead == 2

    def test_delete_unknown_is_noop(self):
        card = make_card()
        card.delete(0.0, [42])
        card.check_invariants()


class TestEnergy:
    def test_write_energy(self):
        card = make_card()
        completion = card.write(0.0, 4096, [0, 1, 2, 3], 1)
        assert card.energy.breakdown()["write"] == pytest.approx(
            completion * SPEC.active_power_w
        )

    def test_idle_energy(self):
        card = make_card()
        card.advance(50.0)
        assert card.energy.total_j == pytest.approx(50.0 * SPEC.idle_power_w)

    def test_cleaning_energy_in_own_bucket(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        clock = 0.0
        for index in range(300):
            clock = card.write(clock, 1024, [index % 16], 1)
            card.advance(clock + 5.0)
            clock += 5.0
        assert card.energy.breakdown().get("clean", 0.0) > 0.0

    def test_reset_accounting_clears_wear(self):
        card = make_card(capacity_kb=128, segment_kb=32)
        card.preload(range(64))
        clock = 0.0
        for index in range(300):
            clock = card.write(clock, 1024, [index % 16], 1)
            card.advance(clock + 5.0)
            clock += 5.0
        card.reset_accounting()
        assert card.segments_cleaned == 0
        assert all(segment.erase_count == 0 for segment in card.segments)
