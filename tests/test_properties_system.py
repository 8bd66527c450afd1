"""System-level property tests: random configurations and workloads must
never break conservation laws or produce nonsense statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.traces.record import Operation
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import WorkloadSpec
from repro.units import KB, MB
from tests.single_op import submit

DEVICES = (
    "cu140-datasheet",
    "kh-datasheet",
    "sdp10-measured",
    "sdp5-datasheet",
    "sdp5a-datasheet",
    "intel-datasheet",
    "intel-measured",
    "intel-series2plus",
)


config_strategy = st.fixed_dictionaries(
    {
        "device": st.sampled_from(DEVICES),
        "dram_bytes": st.sampled_from([0, 256 * KB, 1 * MB, 2 * MB]),
        "sram_bytes": st.sampled_from([0, 8 * KB, 32 * KB]),
        "flash_utilization": st.sampled_from([0.4, 0.6, 0.8, 0.9]),
        "spin_down_timeout_s": st.sampled_from([None, 1.0, 5.0, 30.0]),
        "cleaning_policy": st.sampled_from(
            ["greedy", "cost-benefit", "envy", "wear-aware", "cold-swap"]
        ),
        "write_back": st.booleans(),
    }
)


@settings(max_examples=25, deadline=None)
@given(options=config_strategy)
def test_any_configuration_simulates_sanely(options):
    trace = SyntheticWorkload().generate(n_ops=400, seed=11)
    result = simulate(trace, SimulationConfig(**options))
    # Conservation and sanity invariants:
    assert result.energy_j >= 0.0
    assert result.duration_s >= 0.0
    assert result.read_response.mean_s >= 0.0
    assert result.write_response.mean_s >= 0.0
    assert result.read_response.max_s >= result.read_response.mean_s * 0.999
    assert result.energy_j == pytest.approx(
        sum(sum(b.values()) for b in result.energy_breakdown.values())
    )
    counts = trace.operation_counts()
    measured = int(len(trace) * 0.9)
    assert result.n_reads + result.n_writes + result.n_deletes <= len(trace)
    assert result.n_reads <= counts[Operation.READ]


workload_strategy = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    duration_s=st.just(600.0),
    distinct_kbytes=st.integers(min_value=64, max_value=2048),
    read_fraction=st.floats(min_value=0.1, max_value=0.9),
    block_size=st.sampled_from([512, 1024]),
    mean_read_blocks=st.floats(min_value=1.0, max_value=8.0),
    mean_write_blocks=st.floats(min_value=1.0, max_value=8.0),
    interarrival_mean_s=st.floats(min_value=0.01, max_value=2.0),
    interarrival_max_s=st.just(60.0),
    delete_fraction=st.sampled_from([0.0, 0.02]),
    zipf_exponent=st.floats(min_value=0.0, max_value=1.5),
    repeat_fraction=st.floats(min_value=0.0, max_value=0.8),
    sequential_fraction=st.floats(min_value=0.0, max_value=1.0),
    large_fraction=st.sampled_from([0.0, 0.02]),
)


@settings(max_examples=25, deadline=None)
@given(spec=workload_strategy, seed=st.integers(min_value=0, max_value=99))
def test_any_workload_spec_generates_valid_traces(spec, seed):
    trace = spec.generate(seed=seed, n_ops=200)
    assert len(trace) == 200
    previous = 0.0
    deleted: set[int] = set()
    for record in trace:
        assert record.time >= previous  # monotone time
        previous = record.time
        if record.op is Operation.DELETE:
            deleted.add(record.file_id)
        else:
            assert record.size > 0
            assert record.offset % spec.block_size == 0
            if record.op is Operation.READ:
                assert record.file_id not in deleted
            else:
                deleted.discard(record.file_id)


@settings(max_examples=10, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=1_000_000),
    device=st.sampled_from(["cu140-datasheet", "intel-datasheet", "sdp5-datasheet"]),
)
def test_fault_injection_is_deterministic_per_seed(fault_seed, device):
    """Same FaultPlan seed => identical reliability metrics, bit for bit;
    a different seed must change the drawn fault sequence."""
    from repro.faults.plan import FaultPlan

    trace = SyntheticWorkload().generate(n_ops=300, seed=11)

    def run(seed):
        plan = FaultPlan(
            seed=seed,
            transient_read_rate=0.05,
            transient_write_rate=0.05,
            power_loss_times=(trace.duration * 0.5,),
        )
        return simulate(trace, SimulationConfig(device=device, fault_plan=plan))

    first, again = run(fault_seed), run(fault_seed)
    assert first.reliability == again.reliability
    assert first.energy_j == again.energy_j
    assert first.to_dict() == again.to_dict()

    other = run(fault_seed + 1)
    # The injector draws a different sequence; the counters cannot all
    # coincide on a 300-op trace with 5% error rates.
    assert (
        first.reliability != other.reliability or first.energy_j != other.energy_j
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    utilization=st.sampled_from([0.5, 0.8, 0.95]),
)
def test_flash_card_conservation_under_random_workloads(seed, utilization):
    """Live bytes on the card always equal the trace's live dataset."""
    from repro.core.hierarchy import build_hierarchy
    from repro.traces.filemap import FileMapper

    trace = SyntheticWorkload().generate(n_ops=300, seed=seed)
    mapper = FileMapper(trace.block_size)
    ops = mapper.translate_all(trace)
    config = SimulationConfig(
        device="intel-datasheet", flash_utilization=utilization, dram_bytes=0
    )
    hierarchy = build_hierarchy(config, trace.block_size, mapper.high_water_blocks)
    card = hierarchy.device
    preloaded = card.live_blocks

    live: set[int] = set(range(preloaded))
    for op in ops:
        if op.op is Operation.READ:
            submit(hierarchy, op)
        elif op.op is Operation.WRITE:
            submit(hierarchy, op)
            live.update(op.blocks)
        else:
            submit(hierarchy, op)
            live.difference_update(op.blocks)
    card.check_invariants()
    assert card.live_blocks == len(live)
