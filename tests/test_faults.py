"""Fault injection, bad-block growth, and power-loss crash recovery."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.simulator import simulate
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.errors import (
    ConfigurationError,
    FlashOutOfSpaceError,
    UnrecoverableDeviceError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import recovery_scan_s
from repro.faults.retry import RetryPolicy
from repro.flash.wear import erase_failure_probability
from repro.traces.record import BlockOp, Operation
from repro.units import KB
from tests.single_op import submit


# -- plan validation ----------------------------------------------------------


def test_plan_rejects_out_of_range_rates():
    with pytest.raises(ConfigurationError):
        FaultPlan(transient_read_rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultPlan(transient_write_rate=-0.1)
    with pytest.raises(ConfigurationError):
        FaultPlan(bad_block_rate=2.0)


def test_plan_rejects_negative_knobs():
    with pytest.raises(ConfigurationError):
        FaultPlan(max_retries=-1)
    with pytest.raises(ConfigurationError):
        FaultPlan(retry_backoff_s=-0.1)
    with pytest.raises(ConfigurationError):
        FaultPlan(spare_segments=-1)
    with pytest.raises(ConfigurationError):
        FaultPlan(power_loss_times=(-5.0,))


def test_plan_sorts_power_loss_times():
    plan = FaultPlan(power_loss_times=(30.0, 10.0, 20.0))
    assert plan.power_loss_times == (10.0, 20.0, 30.0)


def test_plan_enabled_flag():
    assert not FaultPlan().enabled
    assert not FaultPlan.disabled().enabled
    assert FaultPlan(transient_read_rate=0.1).enabled
    assert FaultPlan(power_loss_times=(1.0,)).enabled


# -- retry policy -------------------------------------------------------------


def test_retry_backoff_is_exponential():
    policy = RetryPolicy(max_retries=3, backoff_s=0.01)
    assert policy.backoff(0) == pytest.approx(0.01)
    assert policy.backoff(1) == pytest.approx(0.02)
    assert policy.backoff(2) == pytest.approx(0.04)
    assert policy.total_backoff(3) == pytest.approx(0.07)


def test_retry_policy_validates():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_s=-1.0)


# -- injector ----------------------------------------------------------------


def test_injector_zero_rates_never_draw():
    injector = FaultInjector(FaultPlan())
    state_before = injector._rng.getstate()
    for _ in range(100):
        assert injector.read_failures() == (0, True)
        assert injector.write_failures() == (0, True)
        assert injector.erase_failure(50, 100) is False
    assert injector._rng.getstate() == state_before


def test_injector_is_deterministic():
    plan = FaultPlan(seed=7, transient_read_rate=0.3, transient_write_rate=0.3)
    a = [FaultInjector(plan).read_failures() for _ in range(50)]
    b = [FaultInjector(plan).read_failures() for _ in range(50)]
    assert a == b
    draws_a = FaultInjector(plan)
    draws_b = FaultInjector(plan)
    assert [draws_a.write_failures() for _ in range(200)] == [
        draws_b.write_failures() for _ in range(200)
    ]


def test_injector_retries_bounded_and_sometimes_unrecovered():
    plan = FaultPlan(seed=1, transient_write_rate=0.95, max_retries=2)
    injector = FaultInjector(plan)
    outcomes = [injector.write_failures() for _ in range(200)]
    assert all(retries <= 2 for retries, _ in outcomes)
    assert any(not recovered for _, recovered in outcomes)
    assert any(recovered for _, recovered in outcomes)


def test_erase_failure_probability_scales_with_wear():
    assert erase_failure_probability(0, 100_000, 0.0) == 0.0
    assert erase_failure_probability(99_999, 100_000, 0.0) == 0.0  # no base rate
    low = erase_failure_probability(10, 100_000, 0.01)
    high = erase_failure_probability(90_000, 100_000, 0.01)
    assert 0.0 < low < high <= 1.0
    assert erase_failure_probability(100_000, 100_000, 0.01) == 1.0


def test_power_loss_schedule_pops_in_order():
    injector = FaultInjector(FaultPlan(power_loss_times=(5.0, 1.0, 3.0)))
    assert injector.next_power_loss(0.5) is None
    assert injector.next_power_loss(4.0) == 1.0
    assert injector.next_power_loss(4.0) == 3.0
    assert injector.next_power_loss(4.0) is None
    assert injector.pending_power_losses == 1
    assert injector.next_power_loss(float("inf")) == 5.0


# -- retries through the hierarchy -------------------------------------------


def _hierarchy(device="intel-datasheet", plan=None, dram_bytes=0, sram_bytes=0):
    config = SimulationConfig(
        device=device,
        dram_bytes=dram_bytes,
        sram_bytes=sram_bytes,
        fault_plan=plan,
    )
    injector = FaultInjector(plan) if plan is not None and plan.enabled else None
    return build_hierarchy(config, KB, 64, injector=injector)


def test_transient_write_faults_cost_time_and_are_counted():
    plan = FaultPlan(seed=3, transient_write_rate=0.5)
    faulty = _hierarchy(plan=plan)
    clean = _hierarchy()
    op = BlockOp(time=0.0, op=Operation.WRITE, file_id=1, blocks=(0, 1), size=2 * KB)
    slow = submit(faulty, op).response_s
    fast = submit(clean, op).response_s
    meter = faulty.reliability
    assert meter.write_retries > 0
    assert meter.retry_delay_s > 0.0
    assert slow > fast


def test_fail_fast_raises_unrecoverable():
    plan = FaultPlan(seed=1, transient_write_rate=1.0, max_retries=1, fail_fast=True)
    hierarchy = _hierarchy(plan=plan)
    op = BlockOp(time=0.0, op=Operation.WRITE, file_id=1, blocks=(0,), size=KB)
    with pytest.raises(UnrecoverableDeviceError):
        submit(hierarchy, op)


# -- bad-block growth ---------------------------------------------------------


def _worn_card(plan: FaultPlan) -> FlashCard:
    hierarchy = _hierarchy(plan=plan)
    card = hierarchy.device
    assert isinstance(card, FlashCard)
    # Churn overwrites until cleaning has recycled segments many times.
    now = 0.0
    for round_index in range(200):
        op = BlockOp(
            time=now,
            op=Operation.WRITE,
            file_id=1,
            blocks=tuple(range(16)),
            size=16 * KB,
        )
        now += max(0.5, submit(hierarchy, op).response_s) + 0.5
    return card


def test_bad_blocks_consume_spares_then_retire():
    # With this seed the churn hits exactly three erase failures: the first
    # two consume the spares (capacity preserved), the third retires the
    # segment outright (capacity shrinks).
    plan = FaultPlan(seed=5, bad_block_rate=0.02, spare_segments=2)
    card = _worn_card(plan)
    assert card.erase_failures == 3
    assert card.remapped_segments == 2
    assert card.retired_segments == 1
    assert card.spares_remaining == 0


def test_out_of_space_error_mentions_bad_blocks():
    plan = FaultPlan(seed=2, bad_block_rate=0.9, spare_segments=0)
    with pytest.raises(FlashOutOfSpaceError, match="retired as bad blocks"):
        _worn_card(plan)


def test_flash_disk_retires_sectors():
    plan = FaultPlan(seed=4, bad_block_rate=0.5)
    hierarchy = _hierarchy(device="sdp5a-datasheet", plan=plan)
    disk = hierarchy.device
    assert isinstance(disk, FlashDisk)
    now = 0.0
    for _ in range(100):
        op = BlockOp(
            time=now,
            op=Operation.WRITE,
            file_id=1,
            blocks=tuple(range(8)),
            size=8 * KB,
        )
        now += max(0.2, submit(hierarchy, op).response_s) + 1.0
    hierarchy.advance(now + 60.0)  # let background erasure run
    assert disk.sector_map.retired_sectors > 0
    assert "retired_sectors" in disk.stats()


# -- crash recovery -----------------------------------------------------------


def test_crash_drops_dram_and_counts_losses():
    plan = FaultPlan(seed=0, power_loss_times=(10.0,))
    hierarchy = _hierarchy(plan=plan, dram_bytes=64 * KB)
    op = BlockOp(time=0.0, op=Operation.WRITE, file_id=1, blocks=(0, 1), size=2 * KB)
    submit(hierarchy, op)
    read = BlockOp(time=1.0, op=Operation.READ, file_id=1, blocks=(0, 1), size=2 * KB)
    submit(hierarchy, read)
    hierarchy.crash(10.0)
    meter = hierarchy.reliability
    assert meter.power_losses == 1
    assert meter.dropped_cache_blocks >= 2
    assert meter.recovery_time_s >= recovery_scan_s(hierarchy.device, plan)
    assert meter.recovery_energy_j > 0.0
    # The dropped blocks really are gone: the next read misses.
    hits_before = hierarchy.dram.hits
    submit(
        hierarchy,
        BlockOp(time=20.0, op=Operation.READ, file_id=1, blocks=(0, 1), size=2 * KB),
    )
    assert hierarchy.dram.hits == hits_before


def test_crash_replays_sram_dirty_blocks():
    plan = FaultPlan(seed=0, power_loss_times=(100.0,))
    hierarchy = _hierarchy(
        device="cu140-datasheet", plan=plan, sram_bytes=32 * KB
    )
    # Let the disk spin down, then write: the SRAM holds the blocks.
    op = BlockOp(time=60.0, op=Operation.WRITE, file_id=1, blocks=(0, 1), size=2 * KB)
    submit(hierarchy, op)
    assert hierarchy.sram.dirty_count == 2
    writes_before = hierarchy.device.writes
    hierarchy.crash(100.0)
    meter = hierarchy.reliability
    assert meter.replayed_blocks == 2
    assert hierarchy.sram.dirty_count == 0
    assert hierarchy.sram.replays == 1
    assert hierarchy.device.writes == writes_before + 1  # the replay write


def test_crash_counts_torn_write():
    plan = FaultPlan(seed=0, power_loss_times=(0.001,))
    hierarchy = _hierarchy(device="cu140-datasheet", plan=plan)
    op = BlockOp(
        time=0.0, op=Operation.WRITE, file_id=1, blocks=tuple(range(64)), size=64 * KB
    )
    submit(hierarchy, op)
    assert hierarchy.device.busy_until > 0.001
    hierarchy.crash(0.001)
    assert hierarchy.reliability.torn_writes == 1
    # The device carries on afterwards: a later write still completes.
    late = BlockOp(time=5.0, op=Operation.WRITE, file_id=1, blocks=(0,), size=KB)
    assert submit(hierarchy, late).response_s >= 0.0


def test_write_back_crash_loses_dirty_blocks():
    config = SimulationConfig(
        device="cu140-datasheet",
        dram_bytes=64 * KB,
        sram_bytes=0,
        write_back=True,
        fault_plan=FaultPlan(power_loss_times=(10.0,)),
    )
    injector = FaultInjector(config.fault_plan)
    hierarchy = build_hierarchy(config, KB, 64, injector=injector)
    op = BlockOp(time=0.0, op=Operation.WRITE, file_id=1, blocks=(0, 1, 2), size=3 * KB)
    submit(hierarchy, op)
    assert hierarchy.dram.dirty_blocks == 3
    hierarchy.crash(10.0)
    assert hierarchy.reliability.lost_dirty_blocks == 3
    assert hierarchy.dram.dirty_blocks == 0


# -- end-to-end ----------------------------------------------------------------


def test_zero_fault_plan_is_bit_identical(small_synth_trace):
    for device in ("cu140-datasheet", "intel-datasheet", "sdp5-datasheet"):
        clean = simulate(small_synth_trace, SimulationConfig(device=device))
        nulled = simulate(
            small_synth_trace,
            SimulationConfig(device=device, fault_plan=FaultPlan()),
        )
        assert nulled.reliability is None
        assert nulled.energy_j == clean.energy_j
        assert nulled.energy_breakdown == clean.energy_breakdown
        assert nulled.read_response == clean.read_response
        assert nulled.write_response == clean.write_response
        assert nulled.device_stats == clean.device_stats


def test_faulted_run_reports_nonzero_metrics(small_synth_trace):
    plan = FaultPlan(
        seed=3,
        transient_read_rate=0.02,
        transient_write_rate=0.02,
        power_loss_times=(small_synth_trace.duration * 0.5,),
    )
    result = simulate(
        small_synth_trace,
        SimulationConfig(device="intel-datasheet", fault_plan=plan),
    )
    rel = result.reliability
    assert rel is not None
    assert rel.total_retries > 0
    assert rel.power_losses == 1
    assert rel.recovery_time_s > 0.0
    assert result.to_dict()["reliability"]["power_losses"] == 1


def test_same_seed_same_run_different_seed_differs(small_synth_trace):
    def run(seed):
        plan = FaultPlan(
            seed=seed,
            transient_read_rate=0.05,
            transient_write_rate=0.05,
            power_loss_times=(small_synth_trace.duration * 0.6,),
        )
        return simulate(
            small_synth_trace,
            SimulationConfig(device="intel-datasheet", fault_plan=plan),
        )

    first, again, other = run(1), run(1), run(2)
    assert first.to_dict() == again.to_dict()
    assert first.reliability != other.reliability


def test_recovery_energy_lands_in_recovery_bucket(small_synth_trace):
    plan = FaultPlan(seed=0, power_loss_times=(small_synth_trace.duration * 0.5,))
    result = simulate(
        small_synth_trace,
        SimulationConfig(device="intel-datasheet", fault_plan=plan),
    )
    assert result.energy_breakdown["device"].get("recovery", 0.0) > 0.0
