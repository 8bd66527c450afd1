"""Trace analysis toolkit.

Utilities for characterising workloads the way the paper's section 4
characterises its traces — and the way this reproduction was calibrated:
working-set size, re-reference behaviour, write concentration (what a flash
cleaner sees), sequentiality (what a disk's seek arm sees), and burstiness
(what a spin-down policy sees).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.traces.record import Operation
from repro.traces.trace import Trace
from repro.units import KB


@dataclass(frozen=True)
class WorkingSetPoint:
    """Distinct data touched within one window of the trace."""

    window_start_s: float
    distinct_kbytes: float
    operations: int


def working_set_curve(trace: Trace, window_s: float) -> list[WorkingSetPoint]:
    """Distinct Kbytes touched per ``window_s`` window.

    The classic working-set view: a flat, low curve means a small stable
    working set (cache-friendly); a rising one means drift.
    """
    points: list[WorkingSetPoint] = []
    window_start = 0.0
    touched: set[tuple[int, int]] = set()
    operations = 0
    for record in trace:
        while record.time >= window_start + window_s:
            points.append(
                WorkingSetPoint(
                    window_start_s=window_start,
                    distinct_kbytes=len(touched) * trace.block_size / KB,
                    operations=operations,
                )
            )
            touched = set()
            operations = 0
            window_start += window_s
        if record.op is Operation.DELETE:
            continue
        first = record.offset // trace.block_size
        last = (record.end_offset - 1) // trace.block_size
        touched.update((record.file_id, index) for index in range(first, last + 1))
        operations += 1
    points.append(
        WorkingSetPoint(
            window_start_s=window_start,
            distinct_kbytes=len(touched) * trace.block_size / KB,
            operations=operations,
        )
    )
    return points


def reuse_distances(trace: Trace, max_tracked: int = 100_000) -> list[int]:
    """LRU stack distances for block re-references.

    Distance d means: between two touches of the same block, d distinct
    other blocks were touched.  The distribution directly predicts hit
    rates for an LRU cache of any size (hit if d < capacity_blocks).
    First touches are excluded.
    """
    stack: list[tuple[int, int]] = []
    positions: dict[tuple[int, int], int] = {}
    distances: list[int] = []
    for record in trace:
        if record.op is Operation.DELETE:
            continue
        first = record.offset // trace.block_size
        last = (record.end_offset - 1) // trace.block_size
        for index in range(first, last + 1):
            key = (record.file_id, index)
            position = positions.get(key)
            if position is not None:
                # Distance = how many blocks are above it on the stack.
                distance = len(stack) - 1 - position
                distances.append(distance)
                stack.pop(position)
                for moved in stack[position:]:
                    positions[moved] -= 1
            elif len(stack) >= max_tracked:
                evicted = stack.pop(0)
                del positions[evicted]
                for moved_key in positions:
                    positions[moved_key] -= 1
            positions[key] = len(stack)
            stack.append(key)
    return distances


def lru_hit_rate(trace: Trace, cache_blocks: int) -> float:
    """Predicted LRU hit rate at ``cache_blocks`` capacity (block touches)."""
    if cache_blocks < 0:
        raise ConfigurationError(
            f"cache capacity must be >= 0 blocks, got {cache_blocks}"
        )
    touches = 0
    hits = 0
    distances = reuse_distances(trace)
    # Count total block touches for the denominator.
    for record in trace:
        if record.op is Operation.DELETE:
            continue
        first = record.offset // trace.block_size
        last = (record.end_offset - 1) // trace.block_size
        touches += last - first + 1
    hits = sum(1 for distance in distances if distance < cache_blocks)
    return hits / touches if touches else 0.0


@dataclass(frozen=True)
class WriteConcentration:
    """How rewrite traffic concentrates — what a flash cleaner sees."""

    write_block_events: int
    distinct_blocks_written: int
    #: mean times each written block is (re)written
    rewrite_factor: float
    #: smallest fraction of written blocks receiving 90% of write events
    hot_fraction_for_90pct: float


def write_concentration(trace: Trace) -> WriteConcentration:
    """Summarise rewrite skew over the trace's write traffic."""
    events: Counter[tuple[int, int]] = Counter()
    for record in trace:
        if record.op is not Operation.WRITE:
            continue
        first = record.offset // trace.block_size
        last = (record.end_offset - 1) // trace.block_size
        for index in range(first, last + 1):
            events[(record.file_id, index)] += 1
    total = sum(events.values())
    if not total:
        return WriteConcentration(0, 0, 0.0, 0.0)
    covered = 0
    hot_blocks = 0
    for count in sorted(events.values(), reverse=True):
        covered += count
        hot_blocks += 1
        if covered >= 0.9 * total:
            break
    return WriteConcentration(
        write_block_events=total,
        distinct_blocks_written=len(events),
        rewrite_factor=total / len(events),
        hot_fraction_for_90pct=hot_blocks / len(events),
    )


def sequentiality(trace: Trace) -> float:
    """Fraction of read/write operations that continue the previous
    operation on the same file at the next offset — the accesses the
    paper's disk model serves without a seek."""
    sequential = 0
    total = 0
    last_file: int | None = None
    last_end: int = -1
    for record in trace:
        if record.op is Operation.DELETE:
            continue
        total += 1
        if record.file_id == last_file and record.offset == last_end:
            sequential += 1
        last_file = record.file_id
        last_end = record.end_offset
    return sequential / total if total else 0.0


@dataclass(frozen=True)
class Burstiness:
    """Inter-arrival structure — what a spin-down policy sees."""

    mean_gap_s: float
    max_gap_s: float
    #: fraction of gaps longer than the threshold (spin-down opportunities)
    long_gap_fraction: float
    #: total time inside long gaps, as a fraction of the trace duration
    long_gap_time_fraction: float


def burstiness(trace: Trace, long_gap_s: float = 5.0) -> Burstiness:
    """Characterise arrival gaps against a spin-down threshold."""
    gaps: list[float] = []
    previous: float | None = None
    for record in trace:
        if previous is not None:
            gaps.append(record.time - previous)
        previous = record.time
    if not gaps:
        return Burstiness(0.0, 0.0, 0.0, 0.0)
    long_gaps = [gap for gap in gaps if gap > long_gap_s]
    duration = trace.duration - trace[0].time
    return Burstiness(
        mean_gap_s=sum(gaps) / len(gaps),
        max_gap_s=max(gaps),
        long_gap_fraction=len(long_gaps) / len(gaps),
        long_gap_time_fraction=(sum(long_gaps) / duration) if duration else 0.0,
    )
