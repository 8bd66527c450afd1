"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.buffer_cache import BufferCache
from repro.core.metrics import ResponseAccumulator
from repro.devices.flashcard import FlashCard
from repro.devices.power import EnergyMeter
from repro.devices.specs import INTEL_DATASHEET, NEC_DRAM
from repro.flash.ftl import SectorMap
from repro.flash.segment import Segment
from repro.units import KB


# ---------------------------------------------------------------------------
# SectorMap: free + dirty + mapped == n_sectors under any operation sequence
# ---------------------------------------------------------------------------

sector_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim", "erase"]),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=200,
)


@given(ops=sector_ops)
def test_sector_map_invariant(ops):
    sectors = SectorMap(16)
    for kind, logical in ops:
        if kind == "write":
            try:
                sectors.write(logical)
            except Exception:
                pass  # out of sectors is a legal terminal condition
        elif kind == "trim":
            sectors.trim(logical)
        else:
            sectors.erase_one()
        sectors.check_invariant()


@given(ops=sector_ops)
def test_sector_map_physical_uniqueness(ops):
    """No two logical sectors ever share a physical sector."""
    sectors = SectorMap(16)
    for kind, logical in ops:
        if kind == "write":
            try:
                sectors.write(logical)
            except Exception:
                pass
        elif kind == "trim":
            sectors.trim(logical)
        else:
            sectors.erase_one()
        physical = [sectors.physical_for(l) for l in range(16)]
        physical = [p for p in physical if p is not None]
        assert len(physical) == len(set(physical))


# ---------------------------------------------------------------------------
# Segment: free + live + dead == capacity
# ---------------------------------------------------------------------------

@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["alloc", "kill", "erase"]),
                  st.integers(0, 30)),
        max_size=120,
    )
)
def test_segment_invariant(actions):
    segment = Segment(0, 16)
    for kind, logical in actions:
        try:
            if kind == "alloc":
                segment.allocate(logical, 0.0)
            elif kind == "kill":
                segment.invalidate(logical)
            else:
                segment.erase()
        except Exception:
            pass  # illegal transitions raise; state must stay consistent
        segment.check_invariant()


# ---------------------------------------------------------------------------
# FlashCard: map/segment consistency under random write/delete streams
# ---------------------------------------------------------------------------

card_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "delete"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=150,
)


@settings(max_examples=40, deadline=None)
@given(ops=card_ops)
def test_flash_card_invariants_under_random_traffic(ops):
    from dataclasses import replace

    spec = replace(INTEL_DATASHEET, segment_bytes=16 * KB)
    card = FlashCard(spec, capacity_bytes=128 * KB, block_bytes=1024)
    clock = 0.0
    for kind, logical in ops:
        if kind == "write":
            clock = card.write(clock, 1024, [logical], 1)
        else:
            card.delete(clock, [logical])
        card.check_invariants()
    # Conservation: live blocks equal distinct written-and-not-deleted ids.
    expected_live = set()
    for kind, logical in ops:
        if kind == "write":
            expected_live.add(logical)
        else:
            expected_live.discard(logical)
    assert card.live_blocks == len(expected_live)


@settings(max_examples=20, deadline=None)
@given(ops=card_ops, idle=st.floats(min_value=0.0, max_value=30.0))
def test_flash_card_energy_monotone_with_idle(ops, idle):
    """Adding trailing idle time never reduces total energy."""
    from dataclasses import replace

    spec = replace(INTEL_DATASHEET, segment_bytes=16 * KB)
    card = FlashCard(spec, capacity_bytes=128 * KB, block_bytes=1024)
    clock = 0.0
    for kind, logical in ops:
        if kind == "write":
            clock = card.write(clock, 1024, [logical], 1)
        else:
            card.delete(clock, [logical])
    energy_now = card.energy.total_j
    card.advance(clock + idle)
    assert card.energy.total_j >= energy_now - 1e-9


# ---------------------------------------------------------------------------
# LRU cache: never exceeds capacity; resident set is the most recent blocks
# ---------------------------------------------------------------------------

@given(
    blocks=st.lists(st.integers(min_value=0, max_value=40), max_size=200),
    capacity=st.integers(min_value=1, max_value=12),
)
def test_lru_cache_capacity_respected(blocks, capacity):
    cache = BufferCache(capacity * KB, KB, NEC_DRAM)
    for block in blocks:
        cache.install([block])
        assert cache.resident_blocks <= capacity


@given(blocks=st.lists(st.integers(min_value=0, max_value=10), max_size=80))
def test_lru_semantics_match_reference(blocks):
    """The cache's LRU order agrees with an ordered-list reference model."""
    capacity = 4
    cache = BufferCache(capacity * KB, KB, NEC_DRAM)
    reference: list[int] = []
    for block in blocks:
        cache.install([block])
        if block in reference:
            reference.remove(block)
        elif len(reference) >= capacity:
            reference.pop(0)
        reference.append(block)
        assert list(cache.resident) == reference


# ---------------------------------------------------------------------------
# ResponseAccumulator vs a batch reference
# ---------------------------------------------------------------------------

@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
def test_accumulator_matches_batch_statistics(values):
    acc = ResponseAccumulator()
    for value in values:
        acc.add(value)
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    assert acc.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert acc.max == max(values)
    assert acc.std == pytest.approx(math.sqrt(variance), rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# EnergyMeter: total equals the sum of charges
# ---------------------------------------------------------------------------

@given(
    charges=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "idle"]),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        max_size=100,
    )
)
def test_energy_meter_additivity(charges):
    meter = EnergyMeter("prop")
    expected = 0.0
    for bucket, power, duration in charges:
        meter.charge(bucket, power, duration)
        expected += power * duration
    assert meter.total_j == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert meter.total_j == pytest.approx(
        sum(meter.breakdown().values()), rel=1e-12, abs=1e-12
    )
