"""The LayerStack request path: attribution, hooks, and the satellite
fixes (hierarchy-wide latest_time, all-warm measurement windows, and
power-loss ordering on the hook bus)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.simulator import Simulator, simulate
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.traces.filemap import FileMapper
from repro.traces.synthetic import SyntheticWorkload
from repro.units import KB, MB
from tests.single_op import submit


def _hierarchy(config: SimulationConfig, injector: FaultInjector | None = None):
    return build_hierarchy(config, 4096, 4096, injector=injector)


# -- latest_time() must see every layer's clock ---------------------------------------


def test_latest_time_includes_dram_clock():
    hierarchy = _hierarchy(
        SimulationConfig(device="cu140-datasheet", dram_bytes=2 * MB, sram_bytes=0)
    )
    # Only the cache clock moves: the device frontier stays at zero, so the
    # pre-refactor device-only latest_time() would report 0.0 here.
    hierarchy.dram.advance(123.0)
    assert hierarchy.latest_time() == 123.0


def test_latest_time_includes_sram_clock():
    hierarchy = _hierarchy(
        SimulationConfig(device="cu140-datasheet", dram_bytes=0, sram_bytes=32 * KB)
    )
    hierarchy.sram.advance(77.5)
    assert hierarchy.latest_time() == 77.5


def test_latest_time_tracks_device_frontier():
    hierarchy = _hierarchy(
        SimulationConfig(device="intel-datasheet", dram_bytes=2 * MB)
    )
    hierarchy.advance(50.0)
    assert hierarchy.latest_time() >= 50.0


# -- all-warm traces measure an empty window ------------------------------------------


def test_fully_warm_trace_reports_zero_duration():
    trace = SyntheticWorkload().generate(n_ops=300, seed=3)
    config = SimulationConfig(device="intel-datasheet")
    # warm_fraction is validated < 1.0 at construction; force the edge the
    # simulator must still survive (warm_count == len(ops)).
    object.__setattr__(config, "warm_fraction", 1.0)
    result = Simulator(config).run(trace)
    assert result.duration_s == 0.0
    assert result.n_reads == 0
    assert result.n_writes == 0
    assert result.overall_response.count == 0


# -- per-layer attribution sums to the run totals --------------------------------------


_BREAKDOWN_CONFIGS = st.fixed_dictionaries(
    {
        "device": st.sampled_from(
            ["cu140-datasheet", "sdp5-datasheet", "intel-datasheet",
             "intel-series2plus"]
        ),
        "dram_bytes": st.sampled_from([0, 256 * KB, 2 * MB]),
        "sram_bytes": st.sampled_from([0, 8 * KB, 32 * KB]),
        "spin_down_timeout_s": st.sampled_from([None, 1.0, 5.0]),
        "write_back": st.booleans(),
    }
)


@settings(max_examples=20, deadline=None)
@given(options=_BREAKDOWN_CONFIGS)
def test_layer_breakdown_sums_to_totals(options):
    trace = SyntheticWorkload().generate(n_ops=300, seed=5)
    result = simulate(trace, SimulationConfig(**options))
    breakdown = result.layer_breakdown
    assert breakdown, "every simulation must report a layer breakdown"
    assert "device" in breakdown

    # Latency components sum to the measured foreground response time.
    latency_sum = sum(cell["latency_s"] for cell in breakdown.values())
    overall = result.overall_response
    assert latency_sum == pytest.approx(
        overall.mean_s * overall.count, rel=1e-6, abs=1e-9
    )
    # Energy components sum to the reported run total.
    energy_sum = sum(cell["energy_j"] for cell in breakdown.values())
    assert energy_sum == pytest.approx(result.energy_j, rel=1e-9, abs=1e-9)
    for cell in breakdown.values():
        assert cell["latency_s"] >= 0.0
        assert cell["energy_j"] >= 0.0


def test_response_attribution_matches_response_time():
    trace = SyntheticWorkload().generate(n_ops=200, seed=8)
    mapper = FileMapper(trace.block_size)
    ops = mapper.translate_all(trace)
    hierarchy = build_hierarchy(
        SimulationConfig(device="intel-datasheet", dram_bytes=256 * KB),
        trace.block_size,
        max(1, mapper.high_water_blocks),
    )
    for op in ops:
        response = submit(hierarchy, op)
        assert response.attributed_latency_s == pytest.approx(
            response.response_s, rel=1e-9, abs=1e-12
        )


# -- power losses fire strictly before the request that would overtake them -----------


def test_power_losses_fire_before_the_later_request():
    trace = SyntheticWorkload().generate(n_ops=200, seed=9)
    mapper = FileMapper(trace.block_size)
    ops = mapper.translate_all(trace)
    # A loss strictly between two operations, and one after the trace ends.
    split = next(
        index for index in range(1, len(ops)) if ops[index].time > ops[index - 1].time
    )
    mid_loss = (ops[split - 1].time + ops[split].time) / 2.0
    late_loss = trace.duration + 100.0
    plan = FaultPlan(seed=1, power_loss_times=(mid_loss, late_loss))
    assert plan.enabled
    injector = FaultInjector(plan)
    stack = build_hierarchy(
        SimulationConfig(
            device="intel-datasheet", dram_bytes=256 * KB, fault_plan=plan
        ),
        trace.block_size,
        max(1, mapper.high_water_blocks),
        injector=injector,
    )

    events: list[tuple[str, float]] = []
    # Same wiring as the simulator: the loss-firing subscriber runs first,
    # so a crash always lands before the submit that triggered the check.
    stack.hooks.on_submit(
        lambda request: stack.fire_pending_power_losses(request.time)
    )
    stack.hooks.on_submit(lambda request: events.append(("submit", request.time)))
    stack.hooks.on_crash(lambda at, recovered_at: events.append(("crash", at)))

    for op in ops:
        submit(stack, op)
    # Losses scheduled after the last request still happen (the drain).
    stack.fire_pending_power_losses(float("inf"))

    crashes = [event for event in events if event[0] == "crash"]
    assert crashes == [("crash", mid_loss), ("crash", late_loss)]
    # The mid-trace crash precedes every submit at or after the loss time.
    crash_index = events.index(("crash", mid_loss))
    later_submits = [
        index
        for index, event in enumerate(events)
        if event[0] == "submit" and event[1] >= mid_loss
    ]
    assert later_submits and crash_index < min(later_submits)
    # The post-trace loss fired after every submitted request.
    assert events[-1] == ("crash", late_loss)
    assert stack.reliability_snapshot().power_losses == 2


def test_simulator_fires_post_trace_power_losses():
    trace = SyntheticWorkload().generate(n_ops=300, seed=4)
    plan = FaultPlan(seed=2, power_loss_times=(trace.duration + 50.0,))
    result = simulate(
        trace, SimulationConfig(device="intel-datasheet", fault_plan=plan)
    )
    assert result.reliability is not None
    assert result.reliability.power_losses == 1
