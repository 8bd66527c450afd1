"""The DRAM buffer cache's replacement policy: least recently used.

``BufferCache.resident`` holds the resident blocks least recently used
first; these cases pin that order through the cache's own operations.
"""

from repro.cache.buffer_cache import BufferCache
from repro.devices.specs import NEC_DRAM
from repro.units import KB


def make_cache(capacity_blocks):
    return BufferCache(capacity_blocks * KB, KB, NEC_DRAM)


class TestLru:
    def test_evicts_least_recent(self):
        cache = make_cache(3)
        cache.install([1, 2, 3])
        cache.lookup([1])
        cache.install([4])  # evicts 2
        assert list(cache.resident) == [3, 1, 4]

    def test_insert_refreshes_recency(self):
        cache = make_cache(2)
        cache.install([1, 2])
        cache.install([1])
        cache.install([3])  # evicts 2
        assert list(cache.resident) == [1, 3]

    def test_remove(self):
        cache = make_cache(2)
        cache.install([1, 2])
        cache.invalidate([1])
        assert 1 not in cache.resident
        assert cache.resident_blocks == 1

    def test_remove_missing_is_noop(self):
        cache = make_cache(2)
        cache.install([1, 2])
        cache.invalidate([42])
        assert list(cache.resident) == [1, 2]

    def test_contains(self):
        cache = make_cache(2)
        cache.install([5])
        assert 5 in cache.resident
        assert 6 not in cache.resident
