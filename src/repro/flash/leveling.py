"""Wear leveling for the flash card.

The paper (section 2): "While it is possible to spread the load over the
flash memory to avoid 'burning out' particular areas, it is still important
to avoid unnecessary writes or situations that erase the same area
repeatedly."  The Series 2-era cards did no internal leveling; file systems
had to spread erasures themselves.

Two mechanisms are provided:

* :class:`WearAwarePolicy` — greedy victim selection that breaks ties
  (within a tolerance band of the greedy choice) toward the segment with
  the fewest erasures.  Cheap and passive.
* :class:`ColdSwapLeveler` — an active mechanism: when the gap between the
  most- and least-erased segments exceeds a threshold, the next cleaning
  victimizes the *least-erased* segment even if it is cold, migrating its
  long-lived data onto a worn segment so the cold spot starts absorbing
  erasures.  This is the classic "static wear leveling" move.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.flash.cleaner import CleaningPolicy, GreedyPolicy
from repro.flash.segment import Segment


class WearAwarePolicy(CleaningPolicy):
    """Tie-break greedy victim selection toward lightly-erased segments.

    Among candidates whose reclaimable space is within
    ``tolerance_blocks`` of the greedy choice, pick the one with the
    fewest erasures.  With ``tolerance_blocks=0`` this degenerates to
    greedy.
    """

    def __init__(self, tolerance_blocks: int = 4) -> None:
        if tolerance_blocks < 0:
            raise ConfigurationError("tolerance_blocks must be >= 0")
        self.base = GreedyPolicy()
        self.tolerance_blocks = tolerance_blocks

    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        exclude = set(exclude)
        preferred = self.base.choose_victim(segments, exclude, now)
        if preferred is None:
            return None
        ceiling = preferred.live_blocks + self.tolerance_blocks
        near_ties = [
            segment
            for segment in self._candidates(segments, exclude)
            if segment.live_blocks <= ceiling
        ]
        if not near_ties:
            return preferred
        return min(near_ties, key=lambda s: (s.erase_count, s.live_blocks, s.index))


class ColdSwapLeveler(CleaningPolicy):
    """Static wear leveling: occasionally clean the least-erased segment.

    Normally defers to greedy selection.  When
    ``max(erase_count) - min(erase_count)`` exceeds ``gap_threshold``, the
    next victim is the least-erased cleanable segment, forcing its cold
    data to move and the under-used flash to enter the erase rotation.
    """

    def __init__(self, gap_threshold: int = 8) -> None:
        if gap_threshold < 1:
            raise ConfigurationError("gap_threshold must be >= 1")
        self.base = GreedyPolicy()
        self.gap_threshold = gap_threshold
        self.forced_swaps = 0

    def choose_victim(
        self,
        segments: Sequence[Segment],
        exclude: Iterable[int],
        now: float,
    ) -> Segment | None:
        exclude = set(exclude)
        candidates = self._candidates(segments, exclude)
        if not candidates:
            return None
        erase_counts = [segment.erase_count for segment in segments]
        gap = max(erase_counts) - min(erase_counts)
        if gap > self.gap_threshold:
            victim = min(
                candidates, key=lambda s: (s.erase_count, s.live_blocks, s.index)
            )
            self.forced_swaps += 1
            return victim
        return self.base.choose_victim(segments, exclude, now)


def wear_imbalance(segments: Sequence[Segment]) -> float:
    """Coefficient of imbalance: (max - min) / (mean + 1) erase counts.

    0 means perfectly level wear; large values mean a few segments are
    absorbing most erasures (and will burn out early).
    """
    if not segments:
        return 0.0
    counts = [segment.erase_count for segment in segments]
    mean = sum(counts) / len(counts)
    return (max(counts) - min(counts)) / (mean + 1.0)
