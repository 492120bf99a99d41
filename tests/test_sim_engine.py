"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_schedule_and_schedule_at_interleave_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule_at(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.schedule_at(5, order.append, 4)
        sim.run()
        assert order == [1, 2, 3, 4]

    def test_every_heap_entry_is_time_seq_callback_args(self):
        sim = Simulator()
        assert sim.schedule(5, print, "a") is None
        assert sim.schedule_at(7, print) is None
        assert sorted(sim._queue) == [(5.0, 0, print, ("a",)), (7, 1, print, ())]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1, chain, depth + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3


class TestRunBounds:
    def test_run_until_stops_the_clock_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "early")
        sim.schedule(50, fired.append, "late")
        sim.run(until=10)
        assert fired == ["early"]
        assert sim.now == 10
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=100)
        assert sim.now == 100

    def test_run_until_in_the_past_does_not_rewind_the_clock(self):
        # Regression: run(until=X) with X < now used to set now = X, moving
        # simulation time backwards.
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        sim.schedule(20, lambda: None)
        sim.run(until=5)
        assert sim.now == 10

    def test_run_until_in_the_past_executes_nothing(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        fired = []
        sim.schedule(1, fired.append, "later")
        sim.run(until=3)
        assert fired == []
        assert sim.now == 10

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestFastPath:
    """Every event takes the allocation-free tuple path and is counted."""

    def test_fast_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20
        assert sim.events_executed == 3
        assert sim._perf.fast_events == 3

    def test_fast_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        assert sim.pending_events == 0

    def test_fast_events_counted_in_peak_pending(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i + 1, lambda: None)
        sim.schedule_at(10, lambda: None)
        assert sim.peak_pending_events == 8
        sim.run()
        assert sim.pending_events == 0
        assert sim.peak_pending_events == 8

    def test_run_until_respects_fast_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "early")
        sim.schedule_at(50, fired.append, "late")
        sim.run(until=10)
        assert fired == ["early"]
        assert sim.now == 10


class TestCancellationAndCompaction:
    """Heap bookkeeping: the pending-event high-water mark survives draining."""

    def test_peak_pending_events_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        assert sim.peak_pending_events == 10
        sim.run()
        assert sim.pending_events == 0
        assert sim.peak_pending_events == 10


class TestNextEventTime:
    def test_empty_queue_returns_none(self):
        assert Simulator().next_event_time() is None

    def test_returns_head_time_without_popping(self):
        sim = Simulator()
        sim.schedule(7, lambda: None)
        sim.schedule_at(3, lambda: None)
        assert sim.next_event_time() == 3
        assert sim.pending_events == 2
