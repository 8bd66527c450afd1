"""Victim-selection policies for flash-card segment cleaning.

The paper (section 2): "The system must define a policy for selecting the
next segment for reclamation.  One obvious discrimination metric is segment
utilization: picking the next segment by finding the one with the lowest
utilization ...  MFFS uses this approach.  More complicated metrics are
possible; for example, eNVy considers both utilization and locality."

:class:`GreedyPolicy` is the MFFS/default policy used for all headline
results; :class:`CostBenefitPolicy` (Sprite LFS) and
:class:`EnvyHybridPolicy` are implemented for ablation A1.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.flash.segment import Segment


class CleaningPolicy(ABC):
    """Chooses which segment to reclaim next."""

    @abstractmethod
    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        """Pick the next victim, or ``None`` if nothing is worth cleaning.

        ``exclude`` lists segment indices that must not be chosen (the
        active write/cleaner heads).  Erased segments, retired (bad)
        segments, and segments with no reclaimable (dead or free) space are
        never useful victims.
        """

    def _candidates(
        self, segments: Sequence[Segment], exclude: Iterable[int]
    ) -> list[Segment]:
        excluded = set(exclude)
        return [
            segment
            for segment in segments
            if segment.index not in excluded
            and not segment.is_erased
            and not segment.retired
            and segment.live_blocks < segment.capacity
        ]


class GreedyPolicy(CleaningPolicy):
    """Lowest utilization first (the MFFS policy, paper section 2).

    The segment with the fewest live blocks wins, ties going to the lowest
    index whatever the list order.  Both engines clean through this
    choice, once per job start and per write-head check, so it is one pass
    with no candidate list: the cheap live-count test rejects most
    segments before the candidate tests run.
    """

    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        excluded = set(exclude)
        best = None
        best_live = math.inf
        for segment in segments:
            live = len(segment.live)
            if live >= best_live and (
                live > best_live or segment.index > best.index
            ):
                continue
            capacity = segment.capacity
            if (
                live >= capacity
                or segment.free_blocks == capacity
                or segment.retired
                or segment.index in excluded
            ):
                continue
            best = segment
            best_live = live
        return best


class CostBenefitPolicy(CleaningPolicy):
    """Sprite LFS cost-benefit: maximize ``age * free_fraction / (1 + u)``.

    ``age`` is time since the segment last received a write; older, partly
    dead segments win over hot ones even at equal utilization, which reduces
    repeated copying of hot data (Rosenblum & Ousterhout 1992).
    """

    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        candidates = self._candidates(segments, exclude)
        if not candidates:
            return None

        def score(segment: Segment) -> float:
            utilization = segment.utilization
            age = max(0.0, now - segment.last_write_time)
            return (1.0 - utilization) * (1.0 + age) / (1.0 + utilization)

        return max(candidates, key=lambda s: (score(s), -s.index))


class EnvyHybridPolicy(CleaningPolicy):
    """eNVy-style hybrid of utilization and locality (Wu & Zwaenepoel).

    Scores combine reclaimable space with segment coldness; ``locality_weight``
    sets the blend (0 = pure greedy, 1 = pure age).
    """

    def __init__(self, locality_weight: float = 0.5, age_scale_s: float = 60.0) -> None:
        if not 0.0 <= locality_weight <= 1.0:
            raise ConfigurationError("locality_weight must be in [0, 1]")
        if age_scale_s <= 0:
            raise ConfigurationError("age_scale_s must be positive")
        self.locality_weight = locality_weight
        self.age_scale_s = age_scale_s

    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        candidates = self._candidates(segments, exclude)
        if not candidates:
            return None

        def score(segment: Segment) -> float:
            reclaimable = 1.0 - segment.utilization
            age = max(0.0, now - segment.last_write_time)
            coldness = age / (age + self.age_scale_s)
            return (
                (1.0 - self.locality_weight) * reclaimable
                + self.locality_weight * coldness
            )

        return max(candidates, key=lambda s: (score(s), -s.index))


def _wear_aware():
    from repro.flash.leveling import WearAwarePolicy

    return WearAwarePolicy()


def _cold_swap():
    from repro.flash.leveling import ColdSwapLeveler

    return ColdSwapLeveler()


_POLICIES = {
    "greedy": GreedyPolicy,
    "cost-benefit": CostBenefitPolicy,
    "envy": EnvyHybridPolicy,
    "wear-aware": _wear_aware,
    "cold-swap": _cold_swap,
}


def cleaning_policy(name: str) -> CleaningPolicy:
    """Build a cleaning policy by name: ``greedy``, ``cost-benefit``,
    ``envy``, or the wear-leveling wrappers ``wear-aware`` / ``cold-swap``
    (see :mod:`repro.flash.leveling`)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown cleaning policy {name!r}; available: {sorted(_POLICIES)}"
        ) from None
