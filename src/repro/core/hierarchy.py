"""Storage-hierarchy assembly: the hierarchy a configuration describes.

A hierarchy is DRAM buffer cache -> optional battery-backed SRAM write
buffer -> non-volatile device.  The request semantics follow the paper:

* the buffer cache is searched first on reads and is the target of all
  writes (write-through by default, section 4.2);
* SRAM absorbs writes that fit, letting them complete without touching —
  or spinning up — the device (sections 2, 5.5); buffered blocks serve
  reads (footnote 3);
* the SRAM drains in the background whenever the device is accessed
  synchronously anyway, and synchronously when an incoming write finds the
  buffer full ("many writes will be delayed as they wait for the disk",
  section 5.5).

The mechanics live in :mod:`repro.core.layers`, whose
:class:`~repro.core.layers.LayerStack` is the hierarchy object.  This
module sizes and builds its components: :func:`build_hierarchy` turns a
:class:`~repro.core.config.SimulationConfig` into a ``LayerStack``.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.cache.buffer_cache import BufferCache
from repro.cache.sram_buffer import SramWriteBuffer
from repro.core.config import SimulationConfig
from repro.core.layers import LayerStack
from repro.devices.base import StorageDevice
from repro.devices.disk import MagneticDisk
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.devices.specs import (
    DiskSpec,
    FlashCardSpec,
    FlashDiskSpec,
    device_spec,
    memory_spec,
)
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.flash.cleaner import cleaning_policy


def build_hierarchy(
    config: SimulationConfig,
    block_bytes: int,
    dataset_blocks: int,
    injector: FaultInjector | None = None,
) -> LayerStack:
    """Construct the hierarchy ``config`` describes for a trace whose
    preprocessed dataset spans ``dataset_blocks`` device blocks."""
    spec = device_spec(config.device)
    dram = _build_dram(config, block_bytes)

    if isinstance(spec, DiskSpec):
        device = MagneticDisk(spec, config.spin_down_timeout_s)
        if config.flash_cache_bytes > 0:
            device = _wrap_flash_cache(config, device, block_bytes, injector)
        sram = _build_sram(config, block_bytes) if config.sram_bytes else None
    elif isinstance(spec, FlashDiskSpec):
        device = _build_flash_disk(config, spec, block_bytes, dataset_blocks, injector)
        sram = _build_sram(config, block_bytes) if config.sram_on_flash else None
    elif isinstance(spec, FlashCardSpec):
        device = _build_flash_card(config, spec, block_bytes, dataset_blocks, injector)
        sram = _build_sram(config, block_bytes) if config.sram_on_flash else None
    else:  # pragma: no cover - registry guarantees the three spec types
        raise ConfigurationError(f"unsupported device spec type: {type(spec)!r}")

    return LayerStack(device, dram, sram, block_bytes, injector=injector)


def _build_dram(config: SimulationConfig, block_bytes: int) -> BufferCache | None:
    if config.dram_bytes <= 0:
        return None
    return BufferCache(
        config.dram_bytes,
        block_bytes,
        memory_spec("nec-dram"),
        write_back=config.write_back,
    )


def _build_sram(config: SimulationConfig, block_bytes: int) -> SramWriteBuffer:
    return SramWriteBuffer(config.sram_bytes, block_bytes, memory_spec("nec-sram"))


def _wrap_flash_cache(
    config: SimulationConfig,
    disk: MagneticDisk,
    block_bytes: int,
    injector: FaultInjector | None = None,
) -> StorageDevice:
    """Front ``disk`` with a flash-card block cache (extension X1)."""
    from repro.devices.flashcache import FlashCacheDevice

    card_spec = device_spec("intel-datasheet")
    segment = card_spec.segment_bytes
    capacity = max(4 * segment, (config.flash_cache_bytes // segment) * segment)
    flash = FlashCard(
        card_spec,
        capacity_bytes=capacity,
        block_bytes=block_bytes,
        policy=cleaning_policy(config.cleaning_policy),
        injector=injector,
        spare_segments=injector.plan.spare_segments if injector else 0,
    )
    return FlashCacheDevice(disk, flash)


def _build_flash_disk(
    config: SimulationConfig,
    spec: FlashDiskSpec,
    block_bytes: int,
    dataset_blocks: int,
    injector: FaultInjector | None = None,
) -> FlashDisk:
    dataset_bytes = dataset_blocks * block_bytes
    capacity = config.flash_capacity_bytes
    if capacity is None:
        needed = dataset_bytes / config.flash_utilization
        capacity = int(math.ceil(needed / block_bytes)) * block_bytes
        capacity = max(capacity, 4 * block_bytes)
    if capacity < dataset_bytes:
        raise ConfigurationError(
            f"flash disk capacity {capacity} cannot hold the trace's "
            f"{dataset_bytes}-byte dataset"
        )
    device = FlashDisk(
        spec,
        capacity_bytes=capacity,
        block_bytes=block_bytes,
        injector=injector,
    )
    capacity_blocks = capacity // block_bytes
    target_live = max(dataset_blocks, int(config.flash_utilization * capacity_blocks))
    device.preload(min(target_live, capacity_blocks))
    return device


def _build_flash_card(
    config: SimulationConfig,
    spec: FlashCardSpec,
    block_bytes: int,
    dataset_blocks: int,
    injector: FaultInjector | None = None,
) -> FlashCard:
    if config.segment_bytes is not None and config.segment_bytes != spec.segment_bytes:
        spec = replace(spec, segment_bytes=config.segment_bytes)
    segment = spec.segment_bytes
    dataset_bytes = dataset_blocks * block_bytes
    utilization = config.flash_utilization

    capacity = config.flash_capacity_bytes
    if capacity is None:
        capacity = int(math.ceil(dataset_bytes / utilization / segment)) * segment
        # Cleaning needs headroom: keep at least two segments' worth free.
        while capacity - int(utilization * capacity) < 2 * segment or capacity < (
            dataset_bytes + 2 * segment
        ):
            capacity += segment
        capacity = max(capacity, 3 * segment)
    elif capacity % segment:
        raise ConfigurationError(
            f"flash capacity {capacity} is not a multiple of the segment "
            f"size {segment}"
        )

    device = FlashCard(
        spec,
        capacity_bytes=capacity,
        block_bytes=block_bytes,
        policy=cleaning_policy(config.cleaning_policy),
        injector=injector,
        spare_segments=injector.plan.spare_segments if injector else 0,
    )
    capacity_blocks = capacity // block_bytes
    target_live = max(dataset_blocks, int(utilization * capacity_blocks))
    device.preload(range(target_live))
    return device
