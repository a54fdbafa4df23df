"""The rate-adaptive smoothing window and the smoother's interval invariants.

``SlidingWindowSmoother.adaptive_window`` is the library's only
adaptive cleaning path: it sizes the window so that a tag read at the
observed Poisson rate goes a whole window unread with at most the
target probability.
"""

import math
import random

import pytest

from repro.reader.middleware import SlidingWindowSmoother
from repro.sim.events import TagReadEvent

adaptive_window = SlidingWindowSmoother.adaptive_window


def _event(t, epc="A" * 24):
    return TagReadEvent(t, epc, "r0", "a0", -60.0)


class TestAdaptiveWindowFormula:
    @pytest.mark.parametrize("target", [0.01, 0.05, 0.2, 0.5, 0.9])
    def test_window_solves_silent_window_probability(self, target):
        times = [i * 0.25 for i in range(9)]  # 4 reads/s
        window = adaptive_window(times, target)
        assert window == pytest.approx(-math.log(target) / 4.0)
        assert math.exp(-4.0 * window) == pytest.approx(target)

    def test_rate_uses_intervals_not_reads(self):
        # Three reads over one second are two intervals: rate 2/s.
        assert adaptive_window([0.0, 0.5, 1.0], 0.05) == pytest.approx(
            -math.log(0.05) / 2.0
        )

    def test_order_of_reads_is_irrelevant(self):
        times = [0.1, 0.7, 0.2, 1.9, 1.3, 0.4]
        shuffled = list(times)
        random.Random(7).shuffle(shuffled)
        assert adaptive_window(shuffled) == adaptive_window(sorted(times))

    @pytest.mark.parametrize("offset", [-5.0, 0.0, 12.5, 1000.0])
    def test_shifting_all_reads_keeps_the_window(self, offset):
        times = [0.0, 0.3, 0.9, 1.2]
        assert adaptive_window([t + offset for t in times]) == pytest.approx(
            adaptive_window(times)
        )

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_stretching_time_stretches_the_window(self, scale):
        times = [0.0, 0.3, 0.9, 1.2]
        assert adaptive_window([t * scale for t in times]) == pytest.approx(
            scale * adaptive_window(times)
        )

    def test_stricter_target_widens_the_window(self):
        times = [i * 0.1 for i in range(20)]
        widths = [adaptive_window(times, t) for t in (0.5, 0.2, 0.05, 0.01)]
        assert widths == sorted(widths)
        assert len(set(widths)) == len(widths)

    def test_does_not_modify_its_input(self):
        times = [0.9, 0.1, 0.5]
        adaptive_window(times)
        assert times == [0.9, 0.1, 0.5]


class TestAdaptiveWindowFallback:
    @pytest.mark.parametrize("times", [[], [3.0], [2.0, 2.0], [1.0, 1.0, 1.0]])
    def test_no_rate_information_gives_stock_window(self, times):
        assert adaptive_window(times) == 2.0

    @pytest.mark.parametrize("target", [-0.1, 0.0, 1.0, 1.5])
    def test_target_outside_open_unit_interval_rejected(self, target):
        with pytest.raises(ValueError):
            adaptive_window([0.0, 1.0], target)

    def test_target_checked_before_fallback(self):
        with pytest.raises(ValueError):
            adaptive_window([], 0.0)


class TestSmootherInvariants:
    def _stream(self, seed, epcs=("A" * 24, "B" * 24), n=60):
        rng = random.Random(seed)
        times = sorted(rng.uniform(0.0, 20.0) for _ in range(n))
        return [_event(t, rng.choice(epcs)) for t in times]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_read_lies_inside_its_tags_interval(self, seed):
        events = self._stream(seed)
        intervals = SlidingWindowSmoother(0.8).smooth(events)
        for event in events:
            assert any(
                iv.epc == event.epc and iv.start <= event.time < iv.end
                for iv in intervals
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_tags_intervals_are_disjoint(self, seed):
        intervals = SlidingWindowSmoother(0.8).smooth(self._stream(seed))
        for epc in {iv.epc for iv in intervals}:
            own = [iv for iv in intervals if iv.epc == epc]
            for earlier, later in zip(own, own[1:]):
                assert earlier.end < later.start

    @pytest.mark.parametrize("window", [0.5, 1.0, 3.0])
    def test_each_interval_lasts_at_least_the_window(self, window):
        intervals = SlidingWindowSmoother(window).smooth(self._stream(4))
        assert intervals
        assert all(iv.duration >= window for iv in intervals)

    def test_output_sorted_by_start_then_epc(self):
        intervals = SlidingWindowSmoother(0.5).smooth(self._stream(5))
        keys = [(iv.start, iv.epc) for iv in intervals]
        assert keys == sorted(keys)

    def test_adaptive_window_bridges_a_steady_stream(self):
        # A tag read every 0.2 s with 2% of the reads lost stays one
        # interval under the adaptive window; a fixed window shorter
        # than the read period splits it.
        rng = random.Random(11)
        times = [i * 0.2 for i in range(100) if rng.random() > 0.02]
        events = [_event(t) for t in times]
        window = adaptive_window(times, 0.01)
        assert len(SlidingWindowSmoother(window).smooth(events)) == 1
        assert len(SlidingWindowSmoother(0.15).smooth(events)) > 1
