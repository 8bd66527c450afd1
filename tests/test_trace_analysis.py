"""Trace analysis toolkit."""

import pytest

from repro.errors import ConfigurationError
from repro.traces.analysis import (
    burstiness,
    lru_hit_rate,
    reuse_distances,
    sequentiality,
    working_set_curve,
    write_concentration,
)
from repro.traces.record import Operation, TraceRecord
from repro.traces.trace import Trace
from repro.units import KB


def make_trace(specs, block_size=KB):
    """specs: list of (time, op, file, offset_blocks, size_blocks)."""
    records = []
    for time, op, file_id, offset, size in specs:
        if op is Operation.DELETE:
            records.append(TraceRecord(time=time, op=op, file_id=file_id))
        else:
            records.append(
                TraceRecord(
                    time=time, op=op, file_id=file_id,
                    offset=offset * block_size, size=size * block_size,
                )
            )
    return Trace("analysis", records, block_size=block_size)


R, W, D = Operation.READ, Operation.WRITE, Operation.DELETE


class TestWorkingSet:
    def test_single_window(self):
        trace = make_trace([(0, R, 1, 0, 2), (1, R, 2, 0, 3)])
        points = working_set_curve(trace, window_s=10.0)
        assert len(points) == 1
        assert points[0].distinct_kbytes == 5.0
        assert points[0].operations == 2

    def test_windows_split(self):
        trace = make_trace([(0, R, 1, 0, 1), (12, R, 2, 0, 1)])
        points = working_set_curve(trace, window_s=10.0)
        assert len(points) == 2
        assert points[0].distinct_kbytes == 1.0
        assert points[1].distinct_kbytes == 1.0

    def test_rereferences_not_double_counted(self):
        trace = make_trace([(0, R, 1, 0, 1), (1, W, 1, 0, 1)])
        points = working_set_curve(trace, window_s=10.0)
        assert points[0].distinct_kbytes == 1.0

    def test_deletes_ignored(self):
        trace = make_trace([(0, R, 1, 0, 1), (1, D, 1, 0, 0)])
        points = working_set_curve(trace, window_s=10.0)
        assert points[0].operations == 1


class TestReuseDistances:
    def test_immediate_rereference_distance_zero(self):
        trace = make_trace([(0, R, 1, 0, 1), (1, R, 1, 0, 1)])
        assert reuse_distances(trace) == [0]

    def test_distance_counts_intervening_blocks(self):
        trace = make_trace([
            (0, R, 1, 0, 1),  # A
            (1, R, 2, 0, 1),  # B
            (2, R, 3, 0, 1),  # C
            (3, R, 1, 0, 1),  # A again: B and C in between -> distance 2
        ])
        assert reuse_distances(trace) == [2]

    def test_first_touches_excluded(self):
        trace = make_trace([(0, R, 1, 0, 3)])
        assert reuse_distances(trace) == []

    def test_lru_hit_rate_matches_distances(self):
        trace = make_trace([
            (0, R, 1, 0, 1),
            (1, R, 2, 0, 1),
            (2, R, 1, 0, 1),  # distance 1: hit iff capacity > 1
        ])
        assert lru_hit_rate(trace, cache_blocks=2) == pytest.approx(1 / 3)
        assert lru_hit_rate(trace, cache_blocks=1) == 0.0

    def test_lru_hit_rate_rejects_negative_capacity(self):
        trace = make_trace([(0, R, 1, 0, 1)])
        assert lru_hit_rate(trace, cache_blocks=0) == 0.0
        with pytest.raises(ConfigurationError, match="cache capacity"):
            lru_hit_rate(trace, cache_blocks=-1)

    def test_hit_rate_monotone_in_capacity(self, small_mac_trace):
        small = lru_hit_rate(small_mac_trace, 64)
        large = lru_hit_rate(small_mac_trace, 2048)
        assert large >= small


class TestWriteConcentration:
    def test_uniform_writes(self):
        trace = make_trace([(i, W, i, 0, 1) for i in range(10)])
        stats = write_concentration(trace)
        assert stats.rewrite_factor == 1.0
        assert stats.distinct_blocks_written == 10
        assert stats.hot_fraction_for_90pct == pytest.approx(0.9)

    def test_concentrated_writes(self):
        specs = [(i, W, 1, 0, 1) for i in range(9)] + [(9, W, 2, 0, 1)]
        stats = write_concentration(make_trace(specs))
        assert stats.rewrite_factor == pytest.approx(5.0)
        assert stats.hot_fraction_for_90pct == pytest.approx(0.5)

    def test_reads_ignored(self):
        trace = make_trace([(0, R, 1, 0, 5)])
        assert write_concentration(trace).write_block_events == 0


class TestSequentiality:
    def test_fully_sequential(self):
        trace = make_trace([(0, R, 1, 0, 2), (1, R, 1, 2, 2), (2, R, 1, 4, 2)])
        assert sequentiality(trace) == pytest.approx(2 / 3)

    def test_random_pattern(self):
        trace = make_trace([(0, R, 1, 0, 1), (1, R, 2, 5, 1), (2, R, 1, 3, 1)])
        assert sequentiality(trace) == 0.0


class TestBurstiness:
    def test_gap_statistics(self):
        trace = make_trace([(0, R, 1, 0, 1), (1, R, 1, 0, 1), (11, R, 1, 0, 1)])
        stats = burstiness(trace, long_gap_s=5.0)
        assert stats.mean_gap_s == pytest.approx(5.5)
        assert stats.max_gap_s == pytest.approx(10.0)
        assert stats.long_gap_fraction == pytest.approx(0.5)
        assert stats.long_gap_time_fraction == pytest.approx(10 / 11)

    def test_empty_trace(self):
        stats = burstiness(Trace("e", [], block_size=KB))
        assert stats.mean_gap_s == 0.0

    def test_hp_workload_sleeps_most_of_the_time(self):
        """The hp calibration target: long gaps dominate wall time."""
        from repro.traces.workloads import HpWorkload

        trace = HpWorkload().generate(seed=2, n_ops=3000)
        stats = burstiness(trace, long_gap_s=5.0)
        assert stats.long_gap_time_fraction > 0.5
