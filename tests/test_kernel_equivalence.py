"""The vector kernel is an *engine*, not a behaviour.

Four contracts pinned here:

1. **Vector vs the event path, within declared tolerance** — the event
   path (``kernel="batched"``) is the reference.  Across the paper's
   workloads, one device per class, a Hypothesis sweep of
   seeds/lengths, and a Hypothesis sweep of configurations inside the
   vector envelope, :func:`repro.contract.compare_results` must report
   zero mismatches.  The tests also assert the vector path actually ran
   (``extra["kernel"] == "vector"``, no silent fallback) — a sweep that
   quietly compared batched against batched would prove nothing.
2. **Vector vs batched across the registry** — every simulation that
   every registered experiment runs on the vector path at the golden
   corpus's point agrees with the batched path within the same gate, and
   no fewer simulations than today take the vector path.
3. **One state** — the vector kernels drive the hierarchy's own disk,
   SRAM buffer and flash card, so after a run those devices hold what
   the event path leaves in them.
4. **Cross-kernel cache identity** — a unit's kernel is part of its
   cache key, so a vector result can never replay for a batched (or
   default) request, and vice versa.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contract import EXACT, KERNEL_CLOSE, compare, compare_results
from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.simulator import Simulator, simulate
from repro.devices.disk import MagneticDisk
from repro.engine import ResultCache, WorkUnit, cache_key, execute
from repro.experiments.registry import all_experiments
from repro.experiments.runner import run_experiment
from repro.experiments.traces_cache import dram_for
from repro.kernel.disk_kernel import DiskKernel
from repro.kernel.dram import classify
from repro.kernel.flashcard_kernel import CardKernel
from repro.kernel.vector import unsupported_reason
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import workload_by_name
from repro.units import KB, MB
from tests.golden.generate_equivalence_golden import DEVICES, WORKLOADS


def _trace(workload: str, n_ops: int, seed: int):
    if workload == "synth":
        return SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    return workload_by_name(workload).generate(seed=seed, n_ops=n_ops)


def _envelope_config(device: str, **kwargs) -> SimulationConfig:
    """A config inside the vector envelope for ``device``.

    The SDP5A erases asynchronously, which only the event path models;
    the flash-disk family runs as its coupled sibling, the SDP5.
    """
    if device == "sdp5a-datasheet":
        device = "sdp5-datasheet"
    return SimulationConfig(device=device, **kwargs)


def _pair(trace, config):
    """(event-path result, vector result) — vector must not fall back."""
    reference = simulate(trace, config, kernel="batched")
    vector = simulate(trace, config, kernel="vector")
    assert vector.extra.get("kernel") == "vector", (
        f"vector fell back: {vector.extra.get('kernel_fallback_reason')}"
    )
    return reference, vector


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("device", DEVICES)
def test_vector_matches_reference(workload, device):
    """4 workloads x 3 device families: zero tolerance violations."""
    trace = _trace(workload, n_ops=800, seed=7)
    reference, vector = _pair(trace, _envelope_config(device))
    assert compare_results(reference, vector).problems() == []


@settings(max_examples=12, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    device=st.sampled_from(DEVICES),
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=50, max_value=400),
)
def test_vector_matches_reference_property(workload, device, seed, n_ops):
    """No seed or trace length inside the envelope may separate them."""
    trace = _trace(workload, n_ops=n_ops, seed=seed)
    reference, vector = _pair(trace, _envelope_config(device))
    assert compare_results(reference, vector).problems() == []


#: Configurations inside ``unsupported_reason``'s envelope: both disks
#: with any SRAM and spin-down, coupled flash disks, greedy flash cards.
_envelope_configs = st.builds(
    SimulationConfig,
    device=st.sampled_from((
        "cu140-datasheet", "kh-datasheet",
        "sdp5-datasheet", "sdp10-datasheet", "intel-datasheet",
    )),
    dram_bytes=st.sampled_from((0, 64 * KB, 2 * MB)),
    sram_bytes=st.sampled_from((0, 32 * KB, 1 * MB)),
    spin_down_timeout_s=st.sampled_from((None, 0.0, 0.5, 5.0, 30.0)),
    flash_utilization=st.floats(min_value=0.3, max_value=0.95),
    warm_fraction=st.floats(min_value=0.0, max_value=0.99),
    segment_bytes=st.sampled_from((None, 64 * KB, 128 * KB)),
)


@settings(max_examples=25, deadline=None)
@given(
    config=_envelope_configs,
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_vector_matches_batched_across_configs(config, workload, seed):
    """No configuration inside the envelope may separate them."""
    assert unsupported_reason(config) is None
    trace = _trace(workload, n_ops=200, seed=seed)
    batched = simulate(trace, config, kernel="batched")
    vector = simulate(trace, config, kernel="vector")
    assert vector.extra.get("kernel") == "vector", (
        f"vector fell back: {vector.extra.get('kernel_fallback_reason')}"
    )
    assert compare_results(batched, vector).problems() == []


def test_vector_falls_back_outside_envelope():
    """Outside the envelope the result is the batched answer, labelled."""
    trace = _trace("mac", n_ops=200, seed=1)
    config = SimulationConfig(device="intel-datasheet",
                              cleaning_policy="cost-benefit")
    result = simulate(trace, config, kernel="vector")
    assert result.extra["kernel"] == "batched"
    assert result.extra["kernel_requested"] == "vector"
    assert "cost-benefit" in result.extra["kernel_fallback_reason"]
    batched = simulate(trace, config)
    assert result.energy_j == batched.energy_j
    assert result.duration_s == batched.duration_s


#: The golden corpus's point (``tests/test_golden_experiments.py``).
REGISTRY_SCALE = 0.02
REGISTRY_SEED = 3
#: Simulations of the whole registry that take the vector path there
#: (131 of 159); fewer means a configuration started falling back.
REGISTRY_VECTOR_SIMULATIONS = 131


def test_vector_matches_batched_across_the_registry(monkeypatch):
    """Every vector simulation of every registered experiment agrees with
    the batched path on the same trace and configuration."""
    runs = []
    run = Simulator.run

    def recording_run(simulator, trace, **kwargs):
        result = run(simulator, trace, **kwargs)
        runs.append((simulator.config, trace, result))
        return result

    monkeypatch.setattr(Simulator, "run", recording_run)
    for experiment_id in sorted(all_experiments()):
        run_experiment(experiment_id, scale=REGISTRY_SCALE, seed=REGISTRY_SEED,
                       kernel="vector")
    monkeypatch.undo()

    vector = [case for case in runs if case[2].extra.get("kernel") == "vector"]
    assert len(vector) >= REGISTRY_VECTOR_SIMULATIONS, (
        f"only {len(vector)} of {len(runs)} simulations took the vector path"
    )
    problems = [
        f"{trace.name} on {config.device}: {problem}"
        for config, trace, result in vector
        for problem in compare_results(
            Simulator(config).run(trace, kernel="batched"), result
        ).problems()
    ]
    assert problems == []


@functools.cache
def _state_trace(workload: str):
    return workload_by_name(workload).generate(seed=7, n_ops=4000)


#: Per workload: a disk with the paper's DRAM for the trace, a disk whose
#: small SRAM buffer holds writes across spin-downs, and a card at two
#: utilizations (the tighter one stalls writes on cleaning).
_STATE_CONFIGS = {
    "cu140-dram": lambda workload: SimulationConfig(
        device="cu140-datasheet", dram_bytes=dram_for(workload)
    ),
    "kh-small-sram": lambda workload: SimulationConfig(
        device="kh-datasheet", sram_bytes=4 * KB, spin_down_timeout_s=1.0
    ),
    "intel-0.8": lambda workload: SimulationConfig(
        device="intel-datasheet", flash_utilization=0.8
    ),
    "intel-0.95": lambda workload: SimulationConfig(
        device="intel-datasheet", flash_utilization=0.95
    ),
}


def _hierarchy(trace, config):
    ops = compile_trace(trace)
    stack = build_hierarchy(config, trace.block_size, max(1, ops.dataset_blocks))
    return ops, stack, int(ops.n_ops * config.warm_fraction)


def _run_event_path(trace, config):
    """Drive a fresh hierarchy as ``Simulator._execute`` does."""
    ops, stack, warm = _hierarchy(trace, config)
    stack.run_batch(ops, 0, warm)
    stack.reset_accounting()
    stack.run_batch(ops, warm, ops.n_ops)
    stack.finalize(max(trace.duration, stack.latest_time()))
    return stack


def _run_vector_kernel(trace, config):
    """Drive a fresh hierarchy's devices as ``simulate_vector`` does."""
    ops, stack, warm = _hierarchy(trace, config)
    if stack.dram is not None:
        plan = classify(trace, ops, stack.dram.capacity_blocks)
        wait = plan.waits_for(ops, stack.dram.spec, stack.block_bytes)
    else:
        plan = None
        wait = np.zeros(ops.n_ops)
    if isinstance(stack.device, MagneticDisk):
        kernel = DiskKernel(stack.device, stack.sram, plan, stack.block_bytes)
    else:
        kernel = CardKernel(stack.device, plan, stack.block_bytes)
    return stack, kernel.run(ops, wait, warm, trace.duration)


def _index(segment):
    return None if segment is None else segment.index


def _device_state(stack) -> tuple[dict, dict]:
    """(fields both engines must leave equal, float fields they must
    leave within the kernel gate) of the hierarchy's device and buffer."""
    device = stack.device
    exact = {
        "reads": device.reads,
        "writes": device.writes,
        "bytes_read": device.bytes_read,
        "bytes_written": device.bytes_written,
    }
    close = {"clock": device.clock, "busy_until": device.busy_until}
    if isinstance(device, MagneticDisk):
        exact.update(
            state=device.state,
            spin_ups=device.spin_ups,
            spin_downs=device.spin_downs,
            last_file=device._last_file,
            sram=stack.sram.drain() if stack.sram is not None else None,
        )
        close["idle_since"] = device._idle_since
        return exact, close
    job = device._job
    exact.update(
        write_head=_index(device._write_head),
        clean_head=_index(device._clean_head),
        job_victim=None if job is None else job.victim.index,
        job_copy_queue=None if job is None else list(job.copy_queue),
        erased=list(device._erased),
        map=device._map,
        live=[list(segment.live) for segment in device.segments],
        erase_counts=[segment.erase_count for segment in device.segments],
        segments_cleaned=device.segments_cleaned,
        blocks_copied=device.blocks_copied,
        stalled_writes=device.stalled_writes,
    )
    close.update(
        write_stall_s=device.write_stall_s,
        copy_progress_s=None if job is None else job.copy_progress_s,
        erase_remaining_s=None if job is None else job.erase_remaining_s,
    )
    return exact, close


@pytest.mark.parametrize("config_name", list(_STATE_CONFIGS))
@pytest.mark.parametrize("workload", ["mac", "hp", "dos"])
def test_vector_kernels_leave_devices_as_the_event_path_does(workload, config_name):
    """One state for both engines: the kernels run on the hierarchy's own
    devices, so the disk's spindle, counters and seek locality, the SRAM
    buffer's contents, and the card's heads, cleaning job, erased stock,
    map and segments end where the event path leaves them."""
    trace = _state_trace(workload)
    config = _STATE_CONFIGS[config_name](workload)
    assert unsupported_reason(config) is None
    vector_stack, outcome = _run_vector_kernel(trace, config)
    device = vector_stack.device

    reported = dict(outcome["device_stats"])
    expected = device.stats()
    del reported["energy_j"], expected["energy_j"]
    assert reported == expected
    if not isinstance(device, MagneticDisk):
        device.check_invariants()

    ref_exact, ref_close = _device_state(_run_event_path(trace, config))
    cand_exact, cand_close = _device_state(vector_stack)
    table = dict.fromkeys(ref_exact, EXACT) | dict.fromkeys(ref_close, KERNEL_CLOSE)
    report = compare(
        ref_exact | ref_close, cand_exact | cand_close, table,
        reference_name="event path", candidate_name="vector kernel",
    )
    assert report.problems() == []


class TestCrossKernelCache:
    def test_kernel_is_part_of_the_cache_key(self):
        keys = {
            kernel: cache_key(WorkUnit("table4", 0.05, kernel=kernel))
            for kernel in (None, "batched", "vector")
        }
        assert len(set(keys.values())) == len(keys)

    def test_vector_result_never_replays_for_batched(self, tmp_path):
        cache = ResultCache(tmp_path)
        vector_unit = WorkUnit("table2", 0.02, kernel="vector")
        first = execute([vector_unit], jobs=1, cache=cache)
        assert first[0].cache == "miss" and first[0].ok

        batched_unit = WorkUnit("table2", 0.02, kernel="batched")
        crossed = execute([batched_unit], jobs=1, cache=cache)
        assert crossed[0].cache == "miss" and crossed[0].ok

        replay = execute([WorkUnit("table2", 0.02, kernel="vector")],
                         jobs=1, cache=cache)
        assert replay[0].cache == "hit"
        assert replay[0].result.render() == first[0].result.render()
