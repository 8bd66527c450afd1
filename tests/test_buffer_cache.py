"""DRAM buffer cache behaviour, and the vector kernel's replay of it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.buffer_cache import BufferCache
from repro.devices.specs import NEC_DRAM
from repro.errors import ConfigurationError
from repro.kernel.dram import classify
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.trace import DELETE, READ
from repro.traces.workloads import workload_by_name
from repro.units import KB


def make_cache(capacity_blocks=4, write_back=False):
    return BufferCache(
        capacity_blocks * KB, KB, NEC_DRAM, write_back=write_back
    )


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = make_cache()
        hits, misses = cache.lookup([1, 2])
        assert hits == [] and misses == [1, 2]
        cache.install([1, 2])
        hits, misses = cache.lookup([1, 2])
        assert hits == [1, 2] and misses == []

    def test_partial_hit(self):
        cache = make_cache()
        cache.install([1])
        hits, misses = cache.lookup([1, 2])
        assert hits == [1] and misses == [2]

    def test_capacity_evicts_lru(self):
        cache = make_cache(capacity_blocks=2)
        cache.install([1, 2])
        cache.lookup([1])  # 1 recently used
        cache.install([3])  # evicts 2
        assert cache.lookup([2]) == ([], [2])
        assert cache.lookup([1])[0] == [1]

    def test_hit_rate(self):
        cache = make_cache()
        cache.install([1])
        cache.lookup([1])
        cache.lookup([2])
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalidate(self):
        cache = make_cache()
        cache.install([1, 2])
        cache.invalidate([1])
        assert cache.lookup([1]) == ([], [1])

    def test_zero_size_cache_disabled(self):
        cache = BufferCache(0, KB, NEC_DRAM)
        assert not cache.enabled
        assert cache.lookup([1, 2]) == ([], [1, 2])
        assert cache.install([1]) == []
        assert cache.access_time(1024) == 0.0


class TestWriteBack:
    def test_dirty_tracking(self):
        cache = make_cache(write_back=True)
        cache.install([1], dirty=True)
        assert cache.dirty_blocks == 1

    def test_eviction_returns_dirty_blocks(self):
        cache = make_cache(capacity_blocks=2, write_back=True)
        cache.install([1], dirty=True)
        cache.install([2], dirty=False)
        evicted = cache.install([3, 4])
        assert evicted == [1]

    def test_clean_eviction_returns_nothing(self):
        cache = make_cache(capacity_blocks=2, write_back=True)
        cache.install([1, 2], dirty=False)
        assert cache.install([3]) == []

    def test_drain_dirty(self):
        cache = make_cache(write_back=True)
        cache.install([3, 1], dirty=True)
        assert cache.drain_dirty() == [1, 3]
        assert cache.dirty_blocks == 0

    def test_write_through_never_tracks_dirty(self):
        cache = make_cache(write_back=False)
        cache.install([1], dirty=True)
        assert cache.dirty_blocks == 0


class TestEnergyAndTiming:
    def test_standby_energy_scales_with_size(self):
        small = BufferCache(1024 * KB, KB, NEC_DRAM)
        big = BufferCache(4096 * KB, KB, NEC_DRAM)
        small.advance(100.0)
        big.advance(100.0)
        assert big.energy.total_j == pytest.approx(4 * small.energy.total_j)

    def test_access_time_includes_latency_and_transfer(self):
        cache = make_cache()
        expected = NEC_DRAM.access_latency_s + 2048 / NEC_DRAM.bandwidth_bps
        assert cache.access_time(2048) == pytest.approx(expected)

    def test_access_charges_active_energy(self):
        cache = make_cache()
        cache.access_time(4096)
        assert cache.energy.breakdown()["active"] > 0

    def test_reset_accounting(self):
        cache = make_cache()
        cache.advance(10.0)
        cache.lookup([1])
        cache.reset_accounting()
        assert cache.energy.total_j == 0.0
        assert cache.hits == 0 and cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferCache(-1, KB, NEC_DRAM)


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(("mac", "dos", "hp", "synth")),
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=50, max_value=400),
)
def test_vector_classification_replays_the_cache(workload, seed, n_ops):
    """``kernel.dram.classify`` agrees with a BufferCache driven the way
    ``DramLayer.submit`` drives it, op by op, at every capacity of 1-64
    blocks."""
    if workload == "synth":
        trace = SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    else:
        trace = workload_by_name(workload).generate(seed=seed, n_ops=n_ops)
    compiled = compile_trace(trace)
    ops = list(zip(compiled.op_codes.tolist(), compiled.blocks))
    for capacity in range(1, 65):
        plan = classify(trace, compiled, capacity)
        cache = BufferCache(capacity * trace.block_size, trace.block_size, NEC_DRAM)
        for i, (code, blocks) in enumerate(ops):
            hits: list[int] = []
            misses: list[int] = []
            if code == READ:
                hits, misses = cache.lookup(blocks)
                cache.install(misses)
            elif code == DELETE:
                cache.invalidate(blocks)
            else:
                cache.install(blocks)
            assert (plan.hit_counts[i], plan.miss_counts[i]) == (
                len(hits), len(misses)
            ), (capacity, i)
            assert plan.miss_blocks(i) == misses, (capacity, i)
