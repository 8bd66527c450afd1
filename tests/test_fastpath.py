"""The zero-allocation request path must not leak state.

The event path runs the compiled trace with a pooled Request/Response
pair and compiled hooks.  Everything here checks that the pooling
machinery cannot leak state between operations or runs — ``float.hex()``
comparisons, no tolerances.  ``result_snapshot`` is the hex-exact view of
a result that the digest tests pin.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.request import (
    DEVICE_LAYER_ID,
    DRAM_LAYER_ID,
    REQUEST_POOL,
    Request,
    RequestKind,
    RequestPool,
    Response,
)
from repro.core.simulator import simulate
from repro.traces.workloads import workload_by_name
from tests.golden.generate_equivalence_golden import hexify


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


def test_repeated_batched_runs_are_identical():
    """Pool reuse across runs must not leak state into later results."""
    trace = workload_by_name("mac").generate(seed=3, n_ops=600)
    config = SimulationConfig(device="intel-datasheet")
    first = result_snapshot(simulate(trace, config))
    second = result_snapshot(simulate(trace, config))
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
    request = Request(RequestKind.WRITE, 0.0, (1,), 512, 1)
    response = Response(request, issued_at=0.0)
    response.attribute_id(DRAM_LAYER_ID, 1.5, 2.5)
    response.attribute_id(DEVICE_LAYER_ID, 3.5, 4.5)
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
    response.attribute_id(DRAM_LAYER_ID, 0.25, 0.125)
    assert response.attribution == {"dram": (0.25, 0.125)}


def test_global_pool_round_trips():
    depth = len(REQUEST_POOL)
    request = REQUEST_POOL.acquire(RequestKind.FLUSH, 0.0, (), 0, -1)
    assert len(REQUEST_POOL) == max(0, depth - 1)
    REQUEST_POOL.release(request)
    assert len(REQUEST_POOL) == max(1, depth)
