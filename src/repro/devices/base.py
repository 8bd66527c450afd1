"""The storage-device interface shared by disk, flash disk, and flash card.

A device is a little discrete-time machine with two clocks:

* ``clock`` — the point up to which energy has been accounted.  It only
  moves forward.  ``advance(until)`` integrates idle-time behaviour
  (spin-down transitions, background erasure, standby power) from ``clock``
  to ``until``.
* ``busy_until`` — the point at which the device finishes its current
  operation.  A request arriving earlier queues behind it (the simulator is
  trace-driven, so requests arrive in timestamp order).

``read``/``write`` return the operation's **completion time**; the caller
computes response time as completion minus arrival.  ``delete`` is a
metadata operation (trim) and is free in both time and energy, matching the
paper's treatment of deletions as file-system bookkeeping.

Each device is one object: the spec it was built from (``device.spec``),
the constants derived from it once at construction (per-block write,
copy and erase seconds), and its evolving bookkeeping (clocks, counters,
spin state, segment and sector maps) as plain attributes.  The per-op
path reads and mutates those attributes directly, and the vector kernels
(:mod:`repro.kernel`) read the same spec and fields when they start from
a freshly built device.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.devices.power import EnergyMeter
from repro.errors import SimulationError


class AccessKind(enum.Enum):
    """Operation kinds a device distinguishes for accounting."""

    READ = "read"
    WRITE = "write"


class StorageDevice(ABC):
    """Abstract base class for non-volatile storage devices."""

    #: True for devices whose ``cleaning_costs`` can be non-zero; lets the
    #: request path skip reclamation accounting entirely for the rest.
    has_cleaning = False

    #: Observability sink: ``sink(kind, t0_s, dur_s, name)`` called at rare
    #: device-internal episodes (spin transitions, cleaning stalls,
    #: background erases).  None by default — emission sites guard with a
    #: single ``is not None`` check and never touch the simulation math.
    obs_sink = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.energy = EnergyMeter(name)
        self.clock = 0.0
        self.busy_until = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def set_obs_sink(self, sink) -> None:
        """Attach (or, with None, detach) the observability event sink."""
        self.obs_sink = sink

    # -- time bookkeeping ------------------------------------------------------

    def _begin(self, at: float) -> float:
        """Queue behind any in-flight operation and account idle time.

        Returns the effective start time of the new operation.
        """
        start = max(at, self.busy_until)
        if start < self.clock - 1e-9:
            raise SimulationError(
                f"{self.name}: operation starts at {start} before clock {self.clock}"
            )
        self.advance(start)
        return start

    def _finish(self, start: float, duration: float) -> float:
        """Mark the device busy for ``duration`` seconds from ``start``."""
        completion = start + duration
        self.busy_until = completion
        self.clock = completion
        return completion

    # -- abstract interface ------------------------------------------------------

    @abstractmethod
    def advance(self, until: float) -> None:
        """Account idle-time behaviour from ``clock`` to ``until``.

        Must be a no-op when ``until <= clock``.
        """

    @abstractmethod
    def read(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        """Read ``size`` bytes; returns the completion time."""

    @abstractmethod
    def write(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        """Write ``size`` bytes; returns the completion time."""

    def delete(self, at: float, blocks: Sequence[int]) -> None:
        """Free ``blocks`` (trim).  Default: metadata-only no-op."""
        self.advance(at)

    def cleaning_costs(self) -> tuple[float, float]:
        """Cumulative flash-reclamation cost: ``(stall_s, energy_j)``.

        ``stall_s`` is foreground time requests spent waiting on cleaning;
        ``energy_j`` is all energy charged to reclamation work (cleaning
        copies, erases).  Devices without reclamation report zeros.  The
        request path takes deltas of this around each operation to
        attribute cleaning as its own layer cost.
        """
        return 0.0, 0.0

    def accepts_immediate_flush(self) -> bool:
        """Should a write buffer drain to this device right away?

        Flash devices always say yes (writing costs nothing extra later).
        A spin-managed disk says yes only while spinning: draining to a
        sleeping disk would defeat the deferred spin-up policy (paper
        section 2: SRAM allows "small writes to a spun-down disk to proceed
        without spinning it up").
        """
        return True

    def power_cycle(self, at: float) -> None:
        """Lose power at ``at`` and come back up.

        The default truncates any in-flight operation (the caller counts it
        as torn) and rolls both clocks back to the cut: the interrupted
        operation never completes, and recovery I/O starts from ``at``.
        Its already-charged energy is kept as an (over-)estimate of the
        partial work.  Subclasses discard whatever volatile work the outage
        interrupts (cleaning jobs, erase progress, spin state).
        """
        self.advance(at)
        if self.busy_until > at:
            self.busy_until = at
        if self.clock > at:
            self.clock = at

    def recover(self, at: float, duration: float) -> float:
        """Run the post-crash recovery scan; returns its completion time.

        The scan occupies the device (operations queue behind it) and is
        charged at active power into a dedicated ``recovery`` bucket.
        """
        if duration <= 0:
            return at
        self.energy.charge("recovery", self._recovery_power_w(), duration)
        end = at + duration
        if end > self.clock:
            self.clock = end
        if end > self.busy_until:
            self.busy_until = end
        return end

    def _recovery_power_w(self) -> float:
        """Power drawn by the recovery scan (device active power)."""
        spec = getattr(self, "spec", None)
        return spec.active_power_w if spec is not None else 0.0

    def finalize(self, until: float) -> None:
        """Close out energy accounting at the end of the simulation."""
        self.advance(max(until, self.clock))

    def reset_accounting(self) -> None:
        """Zero energy and counters (called after the warm-start prefix)."""
        self.energy.reset()
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Operation counters and energy for reports."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "energy_j": self.energy.total_j,
        }
