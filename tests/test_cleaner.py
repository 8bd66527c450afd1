"""Cleaning-policy victim selection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.flash.cleaner import (
    CostBenefitPolicy,
    EnvyHybridPolicy,
    GreedyPolicy,
    cleaning_policy,
)
from repro.flash.segment import Segment


def build_segments(live_counts, capacity=32, ages=None):
    segments = []
    for index, live in enumerate(live_counts):
        segment = Segment(index, capacity)
        for logical in range(live):
            segment.allocate(index * 1000 + logical, 0.0)
        # Fill the rest with dead blocks so nothing is erased-clean.
        for logical in range(live, capacity):
            segment.allocate(index * 1000 + logical, 0.0)
            segment.invalidate(index * 1000 + logical)
        if ages is not None:
            segment.last_write_time = ages[index]
        segments.append(segment)
    return segments


class TestGreedy:
    def test_picks_lowest_live(self):
        segments = build_segments([10, 3, 20])
        victim = GreedyPolicy().choose_victim(segments, exclude=(), now=0.0)
        assert victim.index == 1

    def test_respects_exclusions(self):
        segments = build_segments([10, 3, 20])
        victim = GreedyPolicy().choose_victim(segments, exclude=(1,), now=0.0)
        assert victim.index == 0

    def test_skips_erased_segments(self):
        segments = build_segments([10, 5])
        segments.append(Segment(2, 32))  # erased
        victim = GreedyPolicy().choose_victim(segments, exclude=(), now=0.0)
        assert victim.index == 1

    def test_skips_fully_live_segments(self):
        full = Segment(0, 4)
        for logical in range(4):
            full.allocate(logical, 0.0)
        assert GreedyPolicy().choose_victim([full], exclude=(), now=0.0) is None

    def test_none_when_nothing_cleanable(self):
        assert GreedyPolicy().choose_victim([], exclude=(), now=0.0) is None

    def test_tie_broken_by_index(self):
        segments = build_segments([5, 5])
        victim = GreedyPolicy().choose_victim(segments, exclude=(), now=0.0)
        assert victim.index == 0

    @given(data=st.data())
    def test_one_pass_matches_the_candidate_minimum(self, data):
        """The one-pass chooser returns the minimum of the candidate list
        by (live blocks, index), in any list order: full, erased, retired
        and partly dead segments, under random exclusions."""
        capacity = 4
        kinds = data.draw(st.lists(
            st.sampled_from(("full", "erased", "retired", "partial")),
            max_size=12,
        ))
        segments = []
        for index, kind in enumerate(kinds):
            segment = Segment(index, capacity)
            if kind != "erased":
                # A retired segment failed its erase after its live data
                # was copied away, so its written slots are all dead.
                if kind == "full":
                    written, dead = capacity, 0
                else:
                    written = data.draw(st.integers(1, capacity))
                    dead = written if kind == "retired" else data.draw(
                        st.integers(0, written))
                for logical in range(written):
                    segment.allocate(index * 100 + logical, 0.0)
                for logical in range(dead):
                    segment.invalidate(index * 100 + logical)
                if kind == "retired":
                    segment.retire()
            segments.append(segment)
        order = data.draw(st.permutations(segments))
        exclude = data.draw(st.sets(st.integers(min_value=0, max_value=12)))

        policy = GreedyPolicy()
        candidates = policy._candidates(order, exclude)
        expected = (
            min(candidates, key=lambda s: (s.live_blocks, s.index))
            if candidates else None
        )
        assert policy.choose_victim(order, exclude, now=0.0) is expected


class TestCostBenefit:
    def test_prefers_old_segment_at_equal_utilization(self):
        segments = build_segments([10, 10], ages=[100.0, 0.0])
        victim = CostBenefitPolicy().choose_victim(segments, exclude=(), now=200.0)
        assert victim.index == 1  # last_write older => larger age

    def test_age_can_beat_slightly_lower_utilization(self):
        # A much older segment with slightly more live data wins.
        segments = build_segments([12, 10], ages=[0.0, 199.0])
        victim = CostBenefitPolicy().choose_victim(segments, exclude=(), now=200.0)
        assert victim.index == 0

    def test_utilization_dominates_at_equal_age(self):
        segments = build_segments([20, 5], ages=[50.0, 50.0])
        victim = CostBenefitPolicy().choose_victim(segments, exclude=(), now=100.0)
        assert victim.index == 1


class TestEnvyHybrid:
    def test_zero_locality_weight_acts_greedy(self):
        segments = build_segments([10, 3], ages=[0.0, 100.0])
        policy = EnvyHybridPolicy(locality_weight=0.0)
        victim = policy.choose_victim(segments, exclude=(), now=100.0)
        assert victim.index == 1

    def test_full_locality_weight_acts_by_age(self):
        segments = build_segments([3, 10], ages=[100.0, 0.0])
        policy = EnvyHybridPolicy(locality_weight=1.0)
        victim = policy.choose_victim(segments, exclude=(), now=100.0)
        assert victim.index == 1  # oldest, despite more live data

    def test_invalid_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            EnvyHybridPolicy(locality_weight=1.5)

    def test_invalid_age_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            EnvyHybridPolicy(age_scale_s=0.0)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("greedy", GreedyPolicy),
        ("cost-benefit", CostBenefitPolicy),
        ("envy", EnvyHybridPolicy),
    ])
    def test_by_name(self, name, cls):
        assert isinstance(cleaning_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            cleaning_policy("lifo")
