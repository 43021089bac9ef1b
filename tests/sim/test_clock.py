"""SimClock and Stopwatch."""

import pytest

from repro.errors import InvariantViolationError
from repro.sim import SimClock, Stopwatch


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(12.5).now == 12.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.25)
        assert clock.now == pytest.approx(3.75)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(4.0) == 4.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(InvariantViolationError):
            SimClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(9.0)
        assert clock.now == 9.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_run_lanes_joins_at_the_longest_lane(self):
        clock = SimClock(10.0)
        starts = []

        def lane(cost):
            starts.append(clock.now)
            clock.advance(cost)

        end = clock.run_lanes(
            [lambda: lane(3.0), lambda: lane(7.5), lambda: lane(1.0)]
        )
        assert starts == [10.0, 10.0, 10.0]  # every lane forks at base
        assert end == clock.now == 17.5
        assert clock.run_lanes([]) == 17.5

    def test_run_lanes_raising_lane_keeps_its_own_time(self):
        clock = SimClock(10.0)
        ran = []

        def crashing():
            clock.advance(2.0)
            raise RuntimeError("crash mid-drain")

        with pytest.raises(RuntimeError):
            clock.run_lanes([
                lambda: clock.advance(5.0),
                crashing,
                lambda: ran.append("third"),
            ])
        assert clock.now == 12.0  # the crashed lane's time, not 10 or 15
        assert ran == []

    def test_repr_mentions_time(self):
        assert "now=" in repr(SimClock())


class TestStopwatch:
    def test_measures_elapsed(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(7.0)
        assert watch.stop() == pytest.approx(7.0)

    def test_context_manager(self):
        clock = SimClock()
        with Stopwatch(clock) as watch:
            clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)

    def test_stop_before_start_rejected(self):
        with pytest.raises(InvariantViolationError):
            Stopwatch(SimClock()).stop()

    def test_restartable(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(1.0)
        watch.stop()
        watch.start()
        clock.advance(3.0)
        assert watch.stop() == pytest.approx(3.0)
