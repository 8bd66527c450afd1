"""Magnetic hard disk model (WD Caviar Ultralite CU140, HP Kittyhawk).

The disk is a five-state machine::

    SLEEPING --(access)--> [spin-up] --> SPINNING --(idle timeout)--> SPINNING_DOWN --> SLEEPING
                                 ^------------------(access waits out spin-down, then spins up)

Spin-down is uninterruptible: an access arriving while the platters are
still decelerating waits for the spin-down to finish and then pays the full
spin-up, which is what pushes worst-case responses to several seconds (the
~3.5 s maxima in the paper's Table 4).

Per the paper's simulator assumptions (section 4.2): repeated accesses to
the same file never seek; any other access pays the average seek; every
transfer pays average rotational latency.

The disk keeps its spindle state, spin counters and seek locality as
plain attributes (``state``, ``spin_ups``, ``spin_downs``); its cost
arithmetic reads the spec directly.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.specs import DiskSpec
from repro.errors import ConfigurationError
from repro.units import transfer_time


class SpindleState(enum.Enum):
    """Power states of the spindle."""

    SLEEPING = "sleeping"
    SPINNING = "spinning"
    SPINNING_DOWN = "spinning_down"


class MagneticDisk(StorageDevice):
    """A spin-managed magnetic disk, spun up at time zero.

    Args:
        spec: device parameters (see :mod:`repro.devices.specs`).
        spin_down_timeout_s: idle seconds before the platters spin down;
            the paper's 5 s by default ("a good compromise between energy
            consumption and response time", citing Douglis et al. and Li
            et al.).  ``None`` keeps the disk spinning, as in the OmniBook
            micro-benchmarks, where "the disk spun throughout the
            experiment".
    """

    def __init__(
        self, spec: DiskSpec, spin_down_timeout_s: float | None = 5.0
    ) -> None:
        super().__init__(spec.name)
        # ``not >= 0`` also rejects NaN, which every comparison fails.
        if spin_down_timeout_s is not None and not spin_down_timeout_s >= 0:
            raise ConfigurationError(
                "spin_down_timeout_s must be >= 0 or None, "
                f"got {spin_down_timeout_s}"
            )
        self.spec = spec
        self.spin_down_timeout_s = spin_down_timeout_s
        #: Current spindle state.
        self.state = SpindleState.SPINNING
        self.spin_ups = 0
        self.spin_downs = 0
        self._idle_since = 0.0
        self._spin_down_end = 0.0
        self._last_file: int | None = None

    # -- idle-time state machine --------------------------------------------------

    def advance(self, until: float) -> None:
        spec = self.spec
        charge = self.energy.charge
        timeout = self.spin_down_timeout_s
        while self.clock < until - 1e-12:
            if self.state is SpindleState.SPINNING:
                deadline = None if timeout is None else self._idle_since + timeout
                if deadline is None or deadline >= until:
                    charge("idle", spec.idle_power_w, until - self.clock)
                    self.clock = until
                    continue
                if deadline > self.clock:
                    charge("idle", spec.idle_power_w, deadline - self.clock)
                    self.clock = deadline
                self.state = SpindleState.SPINNING_DOWN
                self._spin_down_end = self.clock + spec.spin_down_s
                self.spin_downs += 1
                if self.obs_sink is not None:
                    self.obs_sink(
                        "spin_down", self.clock, spec.spin_down_s, self.name
                    )
            elif self.state is SpindleState.SPINNING_DOWN:
                end = min(until, self._spin_down_end)
                charge("spin_down", spec.spin_down_power_w, end - self.clock)
                self.clock = end
                if self.clock >= self._spin_down_end - 1e-12:
                    self.state = SpindleState.SLEEPING
            else:  # SLEEPING
                charge("sleep", spec.sleep_power_w, until - self.clock)
                self.clock = until

    def accepts_immediate_flush(self) -> bool:
        """Drain write buffers only while the platters are spinning."""
        return self.state is SpindleState.SPINNING

    def power_cycle(self, at: float) -> None:
        """Power loss: the platters emergency-retract and stop; the next
        access pays a full spin-up."""
        super().power_cycle(at)
        self.state = SpindleState.SLEEPING
        self._idle_since = at
        self._last_file = None

    # -- access path ---------------------------------------------------------------

    def read(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        completion = self._access(at, size, file_id, AccessKind.READ)
        self.reads += 1
        self.bytes_read += size
        return completion

    def write(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        completion = self._access(at, size, file_id, AccessKind.WRITE)
        self.writes += 1
        self.bytes_written += size
        return completion

    def operation_time(self, size: int, file_id: int, kind: AccessKind) -> float:
        """Mechanical + transfer time for one operation (excludes spin-up)."""
        spec = self.spec
        seek = 0.0 if file_id == self._last_file else spec.seek_s
        bandwidth = (
            spec.read_bandwidth_bps
            if kind is AccessKind.READ
            else spec.write_bandwidth_bps
        )
        return seek + spec.rotation_s + spec.controller_s + transfer_time(size, bandwidth)

    def _access(self, at: float, size: int, file_id: int, kind: AccessKind) -> float:
        spec = self.spec
        start = self._begin(at)
        now = start

        if self.state is SpindleState.SPINNING_DOWN:
            # Uninterruptible: wait out the remainder of the spin-down.
            wait = self._spin_down_end - now
            self.energy.charge("spin_down", spec.spin_down_power_w, wait)
            now = self._spin_down_end
            self.state = SpindleState.SLEEPING

        if self.state is SpindleState.SLEEPING:
            self.energy.charge("spin_up", spec.spin_up_power_w, spec.spin_up_s)
            if self.obs_sink is not None:
                self.obs_sink("spin_up", now, spec.spin_up_s, self.name)
            now += spec.spin_up_s
            self.spin_ups += 1
            self.state = SpindleState.SPINNING

        duration = self.operation_time(size, file_id, kind)
        self.energy.charge(kind.value, spec.active_power_w, duration)
        now += duration

        self.clock = now
        self.busy_until = now
        self._idle_since = now
        self._last_file = file_id
        return now

    # -- reporting ---------------------------------------------------------------

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self.spin_ups = 0
        self.spin_downs = 0

    def stats(self) -> dict[str, float]:
        base = super().stats()
        base.update(
            {
                "spin_ups": self.spin_ups,
                "spin_downs": self.spin_downs,
            }
        )
        return base
