"""The vector kernel is an *engine*, not a behaviour.

Three contracts pinned here:

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
3. **Cross-kernel cache identity** — a unit's kernel is part of its
   cache key, so a vector result can never replay for a batched (or
   default) request, and vice versa.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contract import compare_results
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator, simulate
from repro.engine import ResultCache, WorkUnit, cache_key, execute
from repro.experiments.registry import all_experiments
from repro.experiments.runner import run_experiment
from repro.kernel.vector import unsupported_reason
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
    background_cleaning=st.booleans(),
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
