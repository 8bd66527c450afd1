"""Fault-injection plans.

A :class:`FaultPlan` is a frozen, hashable description of every fault the
simulator should inject into one run: transient read/write errors on the
device path, permanent bad-block (erase-failure) events whose probability
grows with per-segment wear, and power-loss events at fixed trace times.
It lives on :class:`~repro.core.config.SimulationConfig` so a faulty run is
described by exactly the same object that describes a clean one.

The paper motivates each fault class:

* section 2 — flash endurance is bounded ("100,000 erasures" per segment);
  a worn segment eventually fails to erase and must be mapped out;
* section 5.5 — "We assume that writes to SRAM can be recovered after a
  crash"; a power-loss event is the crash that assumption is about;
* mobile computers lose power mid-operation, tearing whatever the device
  had in flight.

A plan with every rate at zero and no power-loss times is a strict no-op:
the injector draws nothing from its generator and every timing and energy
figure is bit-identical to a run without a plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seed-driven schedule of injected faults.

    Attributes:
        seed: generator seed; two runs with the same plan (and trace) are
            identical, different seeds draw different fault sequences.
        transient_read_rate: probability that one device read attempt fails
            and must be retried.
        transient_write_rate: probability that one device write attempt
            fails and must be retried.
        bad_block_rate: base probability that a segment erase fails
            permanently; scaled up by the segment's wear (see
            :func:`repro.flash.wear.erase_failure_probability`).
        power_loss_times: finite, non-negative trace times (seconds) at
            which the machine loses power; each event tears in-flight
            writes, drops the volatile DRAM cache, and replays the
            battery-backed SRAM buffer.
        max_retries: bounded retry budget per operation.
        retry_backoff_s: host-side delay before the first retry; doubles on
            every further attempt (exponential backoff).
        spare_segments: spare flash erase units available for bad-block
            remapping before capacity starts to shrink.
        fail_fast: raise :class:`~repro.errors.UnrecoverableDeviceError`
            when an operation exhausts its retries instead of recording the
            loss and continuing.
    """

    seed: int = 0
    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    bad_block_rate: float = 0.0
    power_loss_times: tuple[float, ...] = ()
    max_retries: int = 3
    retry_backoff_s: float = 0.002
    spare_segments: int = 2
    fail_fast: bool = False

    def __post_init__(self) -> None:
        for name in ("transient_read_rate", "transient_write_rate", "bad_block_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        # ``not >= 0`` also rejects NaN, which every comparison fails.
        if not self.max_retries >= 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not self.retry_backoff_s >= 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if not self.spare_segments >= 0:
            raise ConfigurationError("spare_segments must be >= 0")
        for time in self.power_loss_times:
            if not (math.isfinite(time) and time >= 0):
                raise ConfigurationError(
                    f"power_loss_times must be finite and >= 0, got {time}"
                )
        if list(self.power_loss_times) != sorted(self.power_loss_times):
            object.__setattr__(
                self, "power_loss_times", tuple(sorted(self.power_loss_times))
            )

    @property
    def enabled(self) -> bool:
        """True when the plan can inject at least one fault."""
        return bool(
            self.transient_read_rate
            or self.transient_write_rate
            or self.bad_block_rate
            or self.power_loss_times
        )

    def describe(self) -> dict[str, Any]:
        """A flat mapping of the plan (for result records)."""
        return {
            "seed": self.seed,
            "transient_read_rate": self.transient_read_rate,
            "transient_write_rate": self.transient_write_rate,
            "bad_block_rate": self.bad_block_rate,
            "power_loss_times": list(self.power_loss_times),
            "max_retries": self.max_retries,
            "retry_backoff_s": self.retry_backoff_s,
            "spare_segments": self.spare_segments,
            "fail_fast": self.fail_fast,
        }
