"""The zero-allocation fast path is an *optimisation*, not a behaviour.

``kernel="batched"`` (the default) runs the compiled trace with pooled
Request/Response and compiled hooks; ``kernel="reference"`` keeps the
original one-BlockOp-at-a-time path.  Everything here pins the
two paths bit-for-bit against each other — ``float.hex()`` comparisons,
no tolerances — across the paper's workloads and one device per class,
and then checks the pooling machinery cannot leak state between
operations or runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.request import (
    REQUEST_POOL,
    Request,
    RequestKind,
    RequestPool,
    Response,
    intern_layer,
)
from repro.core.simulator import simulate
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import workload_by_name
from tests.golden.generate_equivalence_golden import DEVICES, WORKLOADS, hexify


def _trace(workload: str, n_ops: int, seed: int):
    if workload == "synth":
        return SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    return workload_by_name(workload).generate(seed=seed, n_ops=n_ops)


def _snapshot(trace, config, *, kernel: str) -> dict:
    return result_snapshot(simulate(trace, config, kernel=kernel))


def result_snapshot(result) -> dict:
    """The hex-exact fields two equivalent runs must share."""
    return {
        "duration_s": hexify(result.duration_s),
        "energy_j": hexify(result.energy_j),
        "energy_breakdown": hexify(result.energy_breakdown),
        "read_mean_s": hexify(result.read_response.mean_s),
        "read_max_s": hexify(result.read_response.max_s),
        "write_mean_s": hexify(result.write_response.mean_s),
        "write_p95_s": hexify(result.write_response.p95_s),
        "overall_std_s": hexify(result.overall_response.std_s),
        "n_reads": result.n_reads,
        "n_writes": result.n_writes,
        "n_deletes": result.n_deletes,
        "dram_hit_rate": hexify(result.dram_hit_rate),
        "device_stats": hexify(result.device_stats),
        "layer_breakdown": hexify(result.layer_breakdown),
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("device", DEVICES)
def test_batched_path_is_bit_identical(workload, device):
    """4 workloads x 3 device families: fast path == reference path."""
    trace = _trace(workload, n_ops=800, seed=7)
    config = SimulationConfig(device=device)
    fast = _snapshot(trace, config, kernel="batched")
    slow = _snapshot(trace, config, kernel="reference")
    for key in fast:
        assert fast[key] == slow[key], f"{workload}/{device}: {key!r} diverged"


@settings(max_examples=12, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    device=st.sampled_from(DEVICES),
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=50, max_value=400),
    sram_kb=st.sampled_from([0, 4, 32]),
    write_back=st.booleans(),
)
def test_batched_path_is_bit_identical_property(
    workload, device, seed, n_ops, sram_kb, write_back
):
    """No corner of the config space may separate the two paths."""
    trace = _trace(workload, n_ops=n_ops, seed=seed)
    config = SimulationConfig(
        device=device, sram_bytes=sram_kb * 1024, write_back=write_back
    )
    fast = _snapshot(trace, config, kernel="batched")
    slow = _snapshot(trace, config, kernel="reference")
    assert fast == slow


def test_repeated_batched_runs_are_identical():
    """Pool reuse across runs must not leak state into later results."""
    trace = _trace("mac", n_ops=600, seed=3)
    config = SimulationConfig(device="intel-datasheet")
    first = _snapshot(trace, config, kernel="batched")
    second = _snapshot(trace, config, kernel="batched")
    assert first == second


def test_pool_acquire_overwrites_every_field():
    pool = RequestPool()
    stale = pool.acquire(RequestKind.WRITE, 9.0, (1, 2, 3), 4096, 17,
                         background=True)
    pool.release(stale)
    fresh = pool.acquire(RequestKind.READ, 1.0, (5,), 512, 2)
    assert fresh is stale  # recycled, not reallocated
    assert (fresh.kind, fresh.time, fresh.blocks, fresh.size, fresh.file_id,
            fresh.background) == (RequestKind.READ, 1.0, (5,), 512, 2, False)


def test_pool_release_drops_block_references():
    pool = RequestPool()
    request = pool.acquire(RequestKind.WRITE, 0.0, (1, 2, 3), 1536, 1)
    pool.release(request)
    assert request.blocks == ()  # no tuple kept alive while parked


def test_response_reset_clears_attribution_between_ops():
    """``run_batch`` recycles one Response; reset must scrub it fully."""
    a = intern_layer("dram")
    b = intern_layer("device")
    request = Request(RequestKind.WRITE, 0.0, (1,), 512, 1)
    response = Response(request, issued_at=0.0)
    response.attribute_id(a, 1.5, 2.5)
    response.attribute_id(b, 3.5, 4.5)
    assert response.attributed_latency_s == 5.0

    other = Request(RequestKind.READ, 7.0, (2,), 512, 2)
    response.reset(other, issued_at=7.0)
    assert response.request is other
    assert response.issued_at == 7.0
    assert response.completed_at == 7.0
    assert response.attribution == {}
    assert response.attributed_latency_s == 0.0
    assert response.attributed_energy_j == 0.0

    # And the zeroed slots really are zero, not merely un-listed.
    response.attribute_id(a, 0.25, 0.125)
    assert response.attribution == {"dram": (0.25, 0.125)}


def test_global_pool_round_trips():
    depth = len(REQUEST_POOL)
    request = REQUEST_POOL.acquire(RequestKind.FLUSH, 0.0, (), 0, -1)
    assert len(REQUEST_POOL) == max(0, depth - 1)
    REQUEST_POOL.release(request)
    assert len(REQUEST_POOL) == max(1, depth)
