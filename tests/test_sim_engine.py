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

    def test_schedule_returns_nothing_and_callbacks_receive_their_args(self):
        sim = Simulator()
        calls = []
        assert sim.schedule(5, lambda *args: calls.append((sim.now, args)), "a", 1) is None
        assert sim.schedule_at(7, lambda *args: calls.append((sim.now, args))) is None
        sim.run()
        assert calls == [(5.0, ("a", 1)), (7, ())]

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0
        assert sim.run(until=100) == 100

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0
        assert sim.next_event_time() is None

    def test_nan_horizon_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(until=float("nan"))
        assert sim.now == 0 and sim.pending_events == 1
        sim.run(until=float("inf"))  # +inf, like None, means no horizon
        assert sim.pending_events == 0

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

    def test_run_until_inf_is_run_without_a_horizon(self):
        # Regression: the idle advance moved the clock to the horizon, so
        # run(until=inf) left now == inf and every later delay landed at inf.
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "first")
        assert sim.run(until=float("inf")) == 10.0
        assert sim.now == 10.0
        sim.schedule(5, lambda: fired.append(sim.now))
        assert sim.run(until=float("inf")) == 15.0
        assert fired == ["first", 15.0]

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


class TestRaisingCallback:
    """A callback that raises leaves its unstarted same-time siblings queued."""

    def test_siblings_stay_pending_and_run_first_in_order(self):
        sim = Simulator()
        order = []

        def boom():
            order.append("boom")
            raise RuntimeError("boom")

        sim.schedule(5, order.append, "before")
        sim.schedule(5, boom)
        sim.schedule(5, order.append, "after-1")
        sim.schedule(9, order.append, "later")
        sim.schedule(5, order.append, "after-2")
        with pytest.raises(RuntimeError):
            sim.run()
        assert order == ["before", "boom"]
        assert sim.events_executed == 2
        assert sim.now == 5
        assert sim.pending_events == 3
        assert sim.next_event_time() == 5
        sim.schedule(0, order.append, "rescheduled")
        sim.run()
        assert order == ["before", "boom", "after-1", "after-2", "rescheduled", "later"]
        assert sim.events_executed == 6
        assert sim.pending_events == 0

    def test_last_entry_raising_leaves_no_empty_time(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(5, boom)
        sim.schedule(8, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_executed == 1
        assert sim.pending_events == 1
        assert sim.next_event_time() == 8


class TestDistinctTimes:
    def test_each_time_counts_once_however_many_events_share_it(self):
        sim = Simulator()
        for delay in (3, 3, 3, 5, 5, 8):
            sim.schedule(delay, lambda: None)
        sim.run(until=5)
        assert (sim.events_executed, sim._perf.event_times) == (5, 2)
        sim.run()
        assert (sim.events_executed, sim._perf.event_times) == (6, 3)

    def test_same_time_children_join_the_running_time(self):
        sim = Simulator()
        sim.schedule(2, lambda: sim.schedule(0, lambda: None))
        sim.run()
        assert (sim.events_executed, sim._perf.event_times) == (2, 1)


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
    """Queue bookkeeping: the pending-event high-water mark survives draining."""

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

    def test_returns_now_while_same_time_events_wait(self):
        sim = Simulator()
        seen = []
        for tag in ("first", "second"):
            sim.schedule(4, lambda tag=tag: seen.append((tag, sim.next_event_time())))
        sim.schedule(9, lambda: None)
        sim.run(until=5)
        assert seen == [("first", 4), ("second", 9)]
