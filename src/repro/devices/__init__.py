"""Storage device models: magnetic disk, flash disk emulator, flash memory
card, plus the memory parts (DRAM, SRAM) used by the caching layers.

Each device integrates its own energy (power x time across its power-state
machine) and exposes the read/write/delete/advance interface defined in
:mod:`repro.devices.base`.  All numeric parameters live in
:mod:`repro.devices.specs`, transcribed from the paper's Tables 1-2 and
marked ``assumed`` where the paper is silent.
"""

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.power import EnergyMeter
from repro.devices.disk import MagneticDisk
from repro.devices.flashdisk import FlashDisk
from repro.devices.flashcard import FlashCard
from repro.devices.spindown import FixedTimeoutPolicy, NeverSpinDownPolicy, SpinDownPolicy
from repro.devices.specs import (
    DEVICE_SPECS,
    DiskSpec,
    FlashCardSpec,
    FlashDiskSpec,
    MemorySpec,
    device_spec,
)

__all__ = [
    "AccessKind",
    "DEVICE_SPECS",
    "DiskSpec",
    "EnergyMeter",
    "FixedTimeoutPolicy",
    "FlashCard",
    "FlashCardSpec",
    "FlashDisk",
    "FlashDiskSpec",
    "MagneticDisk",
    "MemorySpec",
    "NeverSpinDownPolicy",
    "SpinDownPolicy",
    "StorageDevice",
    "device_spec",
]
