"""Magnetic disk model: spin state machine, seeks, energy."""

import pytest

from repro.devices.disk import MagneticDisk, SpindleState
from repro.devices.specs import CU140_DATASHEET
from repro.units import KB


def make_disk(threshold=5.0):
    return MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=threshold)


SPEC = CU140_DATASHEET


class TestOperationTiming:
    def test_first_access_pays_full_random_overhead(self):
        disk = make_disk()
        completion = disk.read(0.0, 4 * KB, [0], file_id=1)
        expected = SPEC.random_access_s + 4 * KB / SPEC.read_bandwidth_bps
        assert completion == pytest.approx(expected)

    def test_same_file_skips_seek(self):
        disk = make_disk()
        first = disk.read(0.0, KB, [0], file_id=1)
        second = disk.read(first, KB, [1], file_id=1)
        duration = second - first
        expected = SPEC.rotation_s + SPEC.controller_s + KB / SPEC.read_bandwidth_bps
        assert duration == pytest.approx(expected)

    def test_file_change_pays_seek(self):
        disk = make_disk()
        first = disk.read(0.0, KB, [0], file_id=1)
        second = disk.read(first, KB, [5], file_id=2)
        assert (second - first) == pytest.approx(
            SPEC.random_access_s + KB / SPEC.read_bandwidth_bps
        )

    def test_write_uses_write_bandwidth(self):
        disk = make_disk()
        completion = disk.write(0.0, 64 * KB, [0], file_id=1)
        assert completion == pytest.approx(
            SPEC.random_access_s + 64 * KB / SPEC.write_bandwidth_bps
        )

    def test_queueing_serializes_operations(self):
        disk = make_disk()
        first = disk.read(0.0, KB, [0], file_id=1)
        second = disk.read(0.0, KB, [1], file_id=1)  # arrives at t=0 too
        assert second > first


class TestSpinStateMachine:
    def test_starts_spinning(self):
        disk = make_disk()
        assert disk.state is SpindleState.SPINNING

    def test_spins_down_after_threshold(self):
        disk = make_disk(threshold=5.0)
        disk.read(0.0, KB, [0], 1)
        disk.advance(20.0)
        assert disk.state is SpindleState.SLEEPING
        assert disk.spin_downs == 1

    def test_no_spin_down_before_threshold(self):
        disk = make_disk(threshold=5.0)
        completion = disk.read(0.0, KB, [0], 1)
        disk.advance(completion + 4.9)
        assert disk.state is SpindleState.SPINNING

    def test_never_policy_keeps_spinning(self):
        disk = make_disk(threshold=None)
        disk.read(0.0, KB, [0], 1)
        disk.advance(10_000.0)
        assert disk.state is SpindleState.SPINNING
        assert disk.spin_downs == 0

    def test_access_while_sleeping_pays_spin_up(self):
        disk = make_disk(threshold=5.0)
        first = disk.read(0.0, KB, [0], 1)
        disk.advance(first + 60.0)  # long idle: spin down completes
        second = disk.read(first + 60.0, KB, [0], 1)
        duration = second - (first + 60.0)
        assert duration >= SPEC.spin_up_s
        assert disk.spin_ups == 1

    def test_access_mid_spin_down_waits_out_the_spin_down(self):
        disk = make_disk(threshold=5.0)
        first = disk.read(0.0, KB, [0], 1)
        # Arrive 1 s into the spin-down (threshold 5 s after completion).
        arrival = first + 5.0 + 1.0
        second = disk.read(arrival, KB, [0], 1)
        wait = second - arrival
        remaining_spin_down = SPEC.spin_down_s - 1.0
        assert wait >= remaining_spin_down + SPEC.spin_up_s

    def test_worst_case_response_bounded_by_full_cycle(self):
        disk = make_disk(threshold=5.0)
        first = disk.read(0.0, KB, [0], 1)
        arrival = first + 5.0 + 1e-6  # just as spin-down starts
        second = disk.read(arrival, KB, [0], 1)
        assert (second - arrival) <= (
            SPEC.spin_down_s + SPEC.spin_up_s + SPEC.random_access_s + 0.01
        )


class TestEnergy:
    def test_idle_energy_at_idle_power(self):
        disk = make_disk(threshold=None)
        disk.advance(100.0)
        assert disk.energy.total_j == pytest.approx(100.0 * SPEC.idle_power_w)

    def test_sleep_energy_cheaper_than_idle(self):
        awake = make_disk(threshold=None)
        awake.advance(1000.0)
        sleepy = make_disk(threshold=5.0)
        sleepy.advance(1000.0)
        assert sleepy.energy.total_j < awake.energy.total_j

    def test_spin_up_energy_charged(self):
        disk = make_disk(threshold=5.0)
        disk.advance(100.0)
        disk.read(100.0, KB, [0], 1)
        assert disk.energy.breakdown()["spin_up"] == pytest.approx(
            SPEC.spin_up_power_w * SPEC.spin_up_s
        )

    def test_active_energy_proportional_to_op_time(self):
        disk = make_disk()
        completion = disk.read(0.0, 100 * KB, [0], 1)
        assert disk.energy.breakdown()["read"] == pytest.approx(
            completion * SPEC.active_power_w
        )

    def test_reset_accounting(self):
        disk = make_disk()
        disk.read(0.0, KB, [0], 1)
        disk.reset_accounting()
        assert disk.energy.total_j == 0.0
        assert disk.reads == 0
        assert disk.spin_ups == 0


class TestCounters:
    def test_reads_writes_counted(self):
        disk = make_disk()
        t = disk.read(0.0, KB, [0], 1)
        disk.write(t, 2 * KB, [1, 2], 1)
        assert disk.reads == 1
        assert disk.writes == 1
        assert disk.bytes_read == KB
        assert disk.bytes_written == 2 * KB

    def test_accepts_immediate_flush_only_while_spinning(self):
        disk = make_disk(threshold=5.0)
        assert disk.accepts_immediate_flush()
        disk.advance(100.0)
        assert not disk.accepts_immediate_flush()

    def test_stats_mapping(self):
        disk = make_disk()
        disk.read(0.0, KB, [0], 1)
        stats = disk.stats()
        assert stats["reads"] == 1
        assert "spin_ups" in stats
