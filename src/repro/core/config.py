"""Simulation configuration: the knobs the paper's section 4.2 enumerates
(flash size, flash segment size, flash storage utilization, cleaning policy,
disk spin-down policy, DRAM size) plus the SRAM write-buffer size of
section 5.5 and the ablation switches from DESIGN.md.

The rest is fixed by the paper's setup rather than configured: the DRAM
cache is LRU, the memory parts are the NEC DRAM and SRAM, the FlashCache
card is the Intel Series 2 datasheet part, and a flash disk erases
asynchronously exactly when its spec supports it (the SDP5A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.units import KB, MB


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameter set for one simulation run.

    Attributes:
        device: registered device-spec name (see
            :data:`repro.devices.specs.DEVICE_SPECS`).
        dram_bytes: DRAM buffer-cache size; 0 disables the cache (the
            paper's convention for the ``hp`` trace).
        sram_bytes: battery-backed write-buffer size in front of a magnetic
            disk.  The paper gives disks "the benefit of the doubt" with a
            32 KB buffer by default; set 0 for the no-SRAM baseline.
        sram_on_flash: also place the SRAM buffer in front of flash devices
            (the paper's section 7 suggestion; ablation A6).
        spin_down_timeout_s: disk idle threshold before spinning down;
            ``None`` keeps the disk spinning forever.
        flash_utilization: fraction of the flash card holding live data
            (trace dataset plus preloaded filler), paper section 5.2.
        flash_capacity_bytes: flash medium size; ``None`` auto-sizes to fit
            the trace's dataset at the requested utilization.
        segment_bytes: flash-card erasure-unit size; ``None`` uses the
            device spec's value.
        cleaning_policy: victim-selection policy name (``greedy``,
            ``cost-benefit``, ``envy``).
        background_cleaning: clean flash-card segments asynchronously
            (True, the Flash File System behaviour) or only on demand.
        write_back: use a write-back DRAM cache instead of write-through
            (ablation A4).
        warm_fraction: leading fraction of the trace used only to warm the
            caches (statistics excluded), paper section 4.2.
    """

    device: str = "cu140-datasheet"
    dram_bytes: int = 2 * MB
    sram_bytes: int = 32 * KB
    sram_on_flash: bool = False
    spin_down_timeout_s: float | None = 5.0
    flash_utilization: float = 0.8
    flash_capacity_bytes: int | None = None
    segment_bytes: int | None = None
    cleaning_policy: str = "greedy"
    background_cleaning: bool = True
    write_back: bool = False
    #: put a flash-card block cache of this size in front of a magnetic
    #: disk (the FlashCache extension, paper citation [15]); 0 disables.
    flash_cache_bytes: int = 0
    #: include time spent queued behind an earlier, still-busy operation in
    #: reported response times.  The paper models operations independently
    #: ("all operations ... take the average or 'typical' time", section
    #: 4.2), which is ``False``; energy and device state always follow the
    #: serialized timeline either way.
    response_includes_queueing: bool = False
    warm_fraction: float = 0.1
    #: fault-injection plan (transient I/O errors, bad-block growth, power
    #: losses); ``None`` — and any plan with all rates zero and no power-loss
    #: schedule — leaves every existing code path bit-identical.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.dram_bytes < 0:
            raise ConfigurationError("dram_bytes must be >= 0")
        if self.sram_bytes < 0:
            raise ConfigurationError("sram_bytes must be >= 0")
        if not 0.0 < self.flash_utilization <= 1.0:
            raise ConfigurationError("flash_utilization must be in (0, 1]")
        if not 0.0 <= self.warm_fraction < 1.0:
            raise ConfigurationError("warm_fraction must be in [0, 1)")
        if self.spin_down_timeout_s is not None and self.spin_down_timeout_s < 0:
            raise ConfigurationError("spin_down_timeout_s must be >= 0 or None")
        if self.flash_cache_bytes < 0:
            raise ConfigurationError("flash_cache_bytes must be >= 0")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigurationError("fault_plan must be a FaultPlan or None")

    def with_options(self, **changes: Any) -> "SimulationConfig":
        """A copy of this configuration with ``changes`` applied."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat mapping of the configuration (for result records)."""
        return {
            "device": self.device,
            "dram_bytes": self.dram_bytes,
            "sram_bytes": self.sram_bytes,
            "sram_on_flash": self.sram_on_flash,
            "spin_down_timeout_s": self.spin_down_timeout_s,
            "flash_utilization": self.flash_utilization,
            "flash_capacity_bytes": self.flash_capacity_bytes,
            "segment_bytes": self.segment_bytes,
            "cleaning_policy": self.cleaning_policy,
            "background_cleaning": self.background_cleaning,
            "write_back": self.write_back,
            "flash_cache_bytes": self.flash_cache_bytes,
            "response_includes_queueing": self.response_includes_queueing,
            "warm_fraction": self.warm_fraction,
            "fault_plan": (
                self.fault_plan.describe() if self.fault_plan is not None else None
            ),
        }
