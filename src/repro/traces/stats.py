"""Trace statistics in the shape of the paper's Table 3.

Table 3 summarises each non-synthetic trace by duration, number of distinct
Kbytes accessed, fraction of reads, block size, mean read/write sizes in
blocks, and the mean/max/standard deviation of inter-arrival times.  The
paper notes the statistics "apply to the 90% of each trace that is actually
simulated after the warm start"; callers can pass ``warm_fraction`` to
reproduce that convention.

The conformance gate that holds imported and fitted traces to a Table 3
row is :func:`repro.contract.check_conformance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.traces.record import Operation
from repro.traces.trace import Trace
from repro.units import KB


@dataclass(frozen=True, slots=True)
class TraceStatistics:
    """Aggregate statistics for one trace (see Table 3)."""

    name: str
    duration_s: float
    distinct_kbytes: float
    fraction_reads: float
    block_size_kbytes: float
    mean_read_blocks: float
    mean_write_blocks: float
    interarrival_mean_s: float
    interarrival_max_s: float
    interarrival_std_s: float
    n_records: int
    n_deletes: int

    def row(self) -> dict[str, float | str]:
        """The statistics as a flat mapping (used by the Table 3 driver)."""
        return {
            "trace": self.name,
            "duration_s": self.duration_s,
            "distinct_kbytes": self.distinct_kbytes,
            "fraction_reads": self.fraction_reads,
            "block_size_kbytes": self.block_size_kbytes,
            "mean_read_blocks": self.mean_read_blocks,
            "mean_write_blocks": self.mean_write_blocks,
            "interarrival_mean_s": self.interarrival_mean_s,
            "interarrival_max_s": self.interarrival_max_s,
            "interarrival_std_s": self.interarrival_std_s,
        }

    def to_dict(self) -> dict[str, float | int | str]:
        """JSON-safe dump of every field (snapshot / ``--expect`` format)."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "distinct_kbytes": self.distinct_kbytes,
            "fraction_reads": self.fraction_reads,
            "block_size_kbytes": self.block_size_kbytes,
            "mean_read_blocks": self.mean_read_blocks,
            "mean_write_blocks": self.mean_write_blocks,
            "interarrival_mean_s": self.interarrival_mean_s,
            "interarrival_max_s": self.interarrival_max_s,
            "interarrival_std_s": self.interarrival_std_s,
            "n_records": self.n_records,
            "n_deletes": self.n_deletes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceStatistics":
        """Rebuild from :meth:`to_dict` output (extra keys ignored)."""
        fields = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items()
                      if key in fields})


def compute_statistics(trace: Trace, warm_fraction: float = 0.0) -> TraceStatistics:
    """Compute Table 3-style statistics for ``trace``.

    Args:
        trace: the trace to summarise.
        warm_fraction: fraction of leading records excluded, matching the
            paper's "after the warm start" convention (use 0.1 to reproduce
            Table 3, 0.0 to summarise the entire trace).
    """
    if warm_fraction:
        _, trace = trace.split_warm(warm_fraction)

    reads = writes = deletes = 0
    read_blocks_total = 0
    write_blocks_total = 0
    block_size = trace.block_size

    previous_time: float | None = None
    gap_count = 0
    gap_sum = 0.0
    gap_sum_sq = 0.0
    gap_max = 0.0

    # This loop dominates the Table 3 driver's wall time, so the block-span
    # arithmetic is inlined and the enum members are locals.
    read_op = Operation.READ
    write_op = Operation.WRITE
    for record in trace.records:
        op = record.op
        if op is read_op:
            reads += 1
            size = record.size
            if size > 0:
                offset = record.offset
                read_blocks_total += (
                    (offset + size - 1) // block_size - offset // block_size + 1
                )
        elif op is write_op:
            writes += 1
            size = record.size
            if size > 0:
                offset = record.offset
                write_blocks_total += (
                    (offset + size - 1) // block_size - offset // block_size + 1
                )
        else:
            deletes += 1
        time = record.time
        if previous_time is not None:
            gap = time - previous_time
            gap_count += 1
            gap_sum += gap
            gap_sum_sq += gap * gap
            if gap > gap_max:
                gap_max = gap
        previous_time = time

    n_ops = reads + writes + deletes
    gap_mean = gap_sum / gap_count if gap_count else 0.0
    gap_var = max(0.0, gap_sum_sq / gap_count - gap_mean**2) if gap_count else 0.0

    first_time = trace[0].time if len(trace) else 0.0
    return TraceStatistics(
        name=trace.name,
        duration_s=trace.duration - first_time,
        distinct_kbytes=trace.distinct_bytes() / KB,
        fraction_reads=reads / n_ops if n_ops else 0.0,
        block_size_kbytes=block_size / KB,
        mean_read_blocks=read_blocks_total / reads if reads else 0.0,
        mean_write_blocks=write_blocks_total / writes if writes else 0.0,
        interarrival_mean_s=gap_mean,
        interarrival_max_s=gap_max,
        interarrival_std_s=math.sqrt(gap_var),
        n_records=n_ops,
        n_deletes=deletes,
    )

