"""Disk spin-down policies.

The paper spins the disk down after a fixed 5 s of inactivity, citing
Douglis/Krishnan/Marsh and Li et al. as showing it to be "a good compromise
between energy consumption and response time".  The policy is pluggable so
ablation A3 can sweep the threshold and explore alternatives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError


class SpinDownPolicy(ABC):
    """Decides when an idle, spinning disk should start spinning down."""

    @abstractmethod
    def spin_down_at(self, idle_since: float) -> float | None:
        """Absolute time at which to start spinning down, given the disk has
        been idle since ``idle_since``; ``None`` means never."""

    def note_spin_up(self, at: float, idle_duration: float) -> None:
        """Feedback hook: the disk had to spin up after ``idle_duration``
        seconds asleep or spinning idle (adaptive policies learn from this).
        """


class FixedTimeoutPolicy(SpinDownPolicy):
    """Spin down after a fixed idle threshold (the paper's policy)."""

    def __init__(self, threshold_s: float = 5.0) -> None:
        if threshold_s < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {threshold_s}")
        self.threshold_s = threshold_s

    def spin_down_at(self, idle_since: float) -> float | None:
        return idle_since + self.threshold_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedTimeoutPolicy({self.threshold_s}s)"


class NeverSpinDownPolicy(SpinDownPolicy):
    """Keep the disk spinning forever (the OmniBook micro-benchmark case,
    where the CU140 "was continuously accessed [so] the disk spun throughout
    the experiment")."""

    def spin_down_at(self, idle_since: float) -> float | None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NeverSpinDownPolicy()"


class AdaptiveTimeoutPolicy(SpinDownPolicy):
    """A simple multiplicative-adjustment adaptive threshold (extension).

    If a spin-up happens soon after a spin-down (the spin-down was a
    mistake), the threshold grows; after long sleeps it shrinks toward the
    minimum.  This is the flavour of adaptive policy the disk spin-down
    literature of the period explored.  No ``SimulationConfig`` names it;
    ``examples/spindown_tuning.py`` installs it on a disk to compare it
    with fixed thresholds.
    """

    def __init__(
        self,
        initial_s: float = 5.0,
        minimum_s: float = 1.0,
        maximum_s: float = 30.0,
        grow: float = 1.5,
        shrink: float = 0.9,
    ) -> None:
        if not minimum_s <= initial_s <= maximum_s:
            raise ConfigurationError("need minimum <= initial <= maximum")
        self.threshold_s = initial_s
        self.minimum_s = minimum_s
        self.maximum_s = maximum_s
        self.grow = grow
        self.shrink = shrink

    def spin_down_at(self, idle_since: float) -> float | None:
        return idle_since + self.threshold_s

    def note_spin_up(self, at: float, idle_duration: float) -> None:
        # A spin-up shortly after the threshold fired means the spin-down
        # cost more than it saved; back off.  A spin-up after a long sleep
        # means the threshold could afford to be more aggressive.
        if idle_duration < self.threshold_s * 3.0:
            self.threshold_s = min(self.maximum_s, self.threshold_s * self.grow)
        else:
            self.threshold_s = max(self.minimum_s, self.threshold_s * self.shrink)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdaptiveTimeoutPolicy({self.threshold_s:.2f}s)"
