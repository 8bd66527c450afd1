"""ObservabilitySession end-to-end: agreement, neutrality, lifecycle.

The two contracts that make the observability layer trustworthy:

* **Agreement** — the per-layer latency slices a traced run records sum
  to the latency column of ``SimulationResult.layer_breakdown`` exactly
  (same floats, same fold order: bit-for-bit, not within-epsilon);
* **Neutrality** — attaching a session never changes simulation results
  (hex-exact against an unobserved run), and with no session attached the
  fast path's golden fixtures are untouched by construction.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.obs import ObservabilitySession, read_chrome_layer_totals
from repro.obs import runtime as obs_runtime
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import workload_by_name
from tests.golden.generate_equivalence_golden import DEVICES, WORKLOADS, hexify


def _trace(workload: str, n_ops: int, seed: int):
    if workload == "synth":
        return SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    return workload_by_name(workload).generate(seed=seed, n_ops=n_ops)


def _hex_result(result) -> dict:
    return {
        "duration_s": hexify(result.duration_s),
        "energy_j": hexify(result.energy_j),
        "energy_breakdown": hexify(result.energy_breakdown),
        "overall_mean_s": hexify(result.overall_response.mean_s),
        "device_stats": hexify(result.device_stats),
        "layer_breakdown": hexify(result.layer_breakdown),
    }


@pytest.mark.parametrize("device", DEVICES)
def test_traced_layer_sums_equal_breakdown_bitwise(device):
    """Session sums == report latency column, exact float equality."""
    trace = _trace("mac", n_ops=1000, seed=7)
    session = ObservabilitySession()
    result = simulate(trace, SimulationConfig(device=device), obs=session)
    reported = {
        name: parts["latency_s"]
        for name, parts in result.layer_breakdown.items()
        if parts["latency_s"] != 0.0
    }
    recorded = {
        name: value
        for name, value in session.layer_latency_s().items()
        if value != 0.0
    }
    assert {k: v.hex() for k, v in recorded.items()} == \
        {k: v.hex() for k, v in reported.items()}
    assert session.runs[-1]["agreement_max_abs_diff"] == 0.0


@pytest.mark.parametrize("device", DEVICES)
def test_attribution_checks_pass_and_catch_missing_work(device):
    """Every real run passes both checks; a run whose layer components
    miss its energy total by more than the tolerance is reported."""
    session = ObservabilitySession()
    for seed in (7, 8):
        simulate(_trace("mac", n_ops=1000, seed=seed),
                 SimulationConfig(device=device), obs=session)
    assert session.attribution_problems() == []
    assert session.layer_tables().count(" measured ops\n") == 2
    session.runs[1]["totals"]["energy_j"] *= 1 + 1e-8
    [problem] = session.attribution_problems()
    assert problem.startswith(f"run 1 (mac on {session.runs[1]['device']}): "
                              "layer components do not sum to the run totals")


@settings(max_examples=10, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    device=st.sampled_from(DEVICES),
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=50, max_value=400),
)
def test_traced_events_sum_to_breakdown_property(workload, device, seed, n_ops):
    """No corner of the space may separate trace events from the report.

    Checked at the event level: re-summing the buffered layer events (the
    tracer's own fold, independent of the session's accumulator) must
    reproduce the breakdown exactly.
    """
    trace = _trace(workload, n_ops=n_ops, seed=seed)
    session = ObservabilitySession()
    result = simulate(trace, SimulationConfig(device=device), obs=session)
    from_events = session.tracer.layer_latency_totals(
        since_run=session.runs[-1]["run"]
    )
    reported = {
        name: parts["latency_s"]
        for name, parts in result.layer_breakdown.items()
    }
    for name, value in from_events.items():
        assert value.hex() == reported[name].hex(), (workload, device, name)
    for name, value in reported.items():
        if value != 0.0:
            assert name in from_events


@pytest.mark.parametrize("device", DEVICES)
def test_observation_is_bit_neutral(device):
    """A session on the hook bus never changes the simulation."""
    trace = _trace("synth", n_ops=800, seed=11)
    config = SimulationConfig(device=device)
    plain = _hex_result(simulate(trace, config))
    observed = _hex_result(
        simulate(trace, config, obs=ObservabilitySession())
    )
    assert plain == observed


def test_ring_bound_holds_under_a_real_run():
    trace = _trace("mac", n_ops=2000, seed=5)
    session = ObservabilitySession(trace_capacity=512)
    simulate(trace, SimulationConfig(device="cu140-datasheet"), obs=session)
    tracer = session.tracer
    assert len(tracer) <= 512
    assert tracer.dropped > 0
    # emitted rewinds at the warm boundary (rollback), so it is not
    # len + dropped; it still bounds the buffer from above.
    assert len(tracer) <= tracer.emitted


def test_multi_run_chrome_export_agrees_per_run(tmp_path):
    """Several runs through one session -> one pid per run, exact totals."""
    session = ObservabilitySession()
    expected = []
    for device in DEVICES:
        trace = _trace("mac", n_ops=500, seed=9)
        result = simulate(trace, SimulationConfig(device=device), obs=session)
        expected.append({
            name: parts["latency_s"]
            for name, parts in result.layer_breakdown.items()
            if parts["latency_s"] != 0.0
        })
    path = session.tracer.write_chrome(tmp_path / "t.json")
    json.loads(path.read_text())  # valid JSON end to end
    per_run = read_chrome_layer_totals(path)
    assert len(per_run) == len(DEVICES)
    for actual, wanted in zip(per_run, expected):
        # Layers that never charged latency (e.g. a cleaning episode with
        # only energy) sum to exactly 0.0 in the trace; drop them to
        # compare against the non-zero breakdown column.
        nonzero = {k: v.hex() for k, v in actual.items() if v != 0.0}
        assert nonzero == {k: v.hex() for k, v in wanted.items()}


def test_session_counts_requests_and_device_episodes():
    trace = _trace("synth", n_ops=1500, seed=3)
    session = ObservabilitySession()
    result = simulate(
        trace, SimulationConfig(device="intel-datasheet"), obs=session
    )
    registry = session.registry
    assert registry.get("ops_total").sample() == (
        result.overall_response.count + result.n_deletes
    )
    assert registry.get("reads_total").sample() == result.n_reads
    assert registry.get("writes_total").sample() == result.n_writes
    assert registry.get("response_time_s").sample()["count"] == (
        result.n_reads + result.n_writes
    )
    # The flash card cleaned at least once on this workload; the stall
    # episodes flow through the device sink into both tracer and counter.
    stalls = registry.get("cleaning_stalls_total").sample()
    assert stalls == session.tracer.counts().get("cleaning", 0)
    # Wear histogram filled from the card's segments at end_run.
    wear = registry.get("segment_wear_erases").sample()
    assert wear["count"] > 0


def test_session_refuses_overlapping_runs(tiny_trace):
    session = ObservabilitySession()
    simulate(tiny_trace, SimulationConfig(device="cu140-datasheet"),
             obs=session)
    # end_run detached: a fresh run is fine, an unmatched end is not.
    with pytest.raises(RuntimeError):
        session.end_run()


def test_runtime_install_routes_plain_simulate_calls():
    """The process-global session observes simulate() with no obs kwarg."""
    trace = _trace("synth", n_ops=300, seed=2)
    config = SimulationConfig(device="sdp5a-datasheet")
    session = ObservabilitySession()
    with obs_runtime.observed(session):
        assert obs_runtime.active() is session
        simulate(trace, config)
    assert obs_runtime.active() is None
    assert len(session.runs) == 1
    assert session.runs[0]["agreement_max_abs_diff"] == 0.0


def test_crash_events_recorded_under_faults():
    from repro.faults.plan import FaultPlan

    trace = _trace("synth", n_ops=800, seed=4)
    plan = FaultPlan(seed=4, power_loss_times=(0.5 * trace.duration,))
    session = ObservabilitySession()
    simulate(
        trace,
        SimulationConfig(device="intel-datasheet", fault_plan=plan),
        obs=session,
    )
    assert session.tracer.counts().get("crash", 0) == 1
    assert session.registry.get("crashes_total").sample() == 1.0
