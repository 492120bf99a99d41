"""Tests for busy-until resources, channels and pipelines."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resource import Channel, Pipeline, Resource


class TestResource:
    def test_serialization_of_back_to_back_grants(self):
        sim = Simulator()
        res = Resource(sim, "r")
        assert res.acquire(10) == 0
        assert res.acquire(10) == 10
        assert res.acquire(5) == 20
        assert res.free_at == 25

    def test_grant_after_idle_period_starts_now(self):
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire(5)
        sim.schedule(100, lambda: None)
        sim.run()
        assert res.acquire(5) == 100

    def test_negative_occupancy_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, "r").acquire(-1)

    def test_acquire_then_schedules_callback_at_completion(self):
        sim = Simulator()
        res = Resource(sim, "r")
        times = []
        res.acquire_then(10, lambda: times.append(sim.now))
        res.acquire_then(10, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 20]

    def test_utilization_tracks_busy_fraction(self):
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire_then(25, lambda: None)
        sim.schedule(100, lambda: None)
        sim.run()
        assert res.utilization() == pytest.approx(0.25)

    def test_utilization_resets_with_stats(self):
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire_then(50, lambda: None)
        sim.schedule(100, lambda: None)
        sim.run()
        res.reset_stats()
        sim.schedule(100, lambda: None)
        sim.run()
        assert res.utilization() == 0.0


class TestChannel:
    def test_send_occupies_proportionally_to_bytes(self):
        sim = Simulator()
        channel = Channel(sim, bytes_per_cycle=16, name="link")
        assert channel.send(64) == 0
        assert channel.send(64) == pytest.approx(4.0)

    def test_serialization_cycles(self):
        sim = Simulator()
        channel = Channel(sim, bytes_per_cycle=16)
        assert channel.serialization_cycles(80) == pytest.approx(5.0)

    def test_zero_bandwidth_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Channel(sim, bytes_per_cycle=0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Channel(sim, 16).send(-1)


class TestPipeline:
    def test_initiation_interval_limits_throughput(self):
        sim = Simulator()
        pipe = Pipeline(sim, initiation_interval=1, depth=10, name="p")
        completions = [pipe.issue() for _ in range(4)]
        assert completions == [10, 11, 12, 13]

    def test_depth_adds_latency_only_once_per_item(self):
        sim = Simulator()
        pipe = Pipeline(sim, initiation_interval=2, depth=5)
        assert pipe.issue() == 5
        assert pipe.issue() == 7

    def test_issue_then_callbacks_fire_in_order(self):
        sim = Simulator()
        pipe = Pipeline(sim, 1, 3)
        seen = []
        for i in range(3):
            pipe.issue_then(seen.append, i)
        sim.run()
        assert seen == [0, 1, 2]
        assert sim.now == 5  # last item issued at cycle 2, ready at 2 + 3

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Pipeline(sim, 0, 1)
        with pytest.raises(SimulationError):
            Pipeline(sim, 1, -1)


class TestResetStatsMidGrant:
    def test_in_flight_grant_credits_post_reset_portion(self):
        # Hand-computed: a 10-cycle grant starts at t=0; stats reset at t=4.
        # 6 cycles of the grant fall after the reset, so utilization over the
        # 6-cycle window [4, 10] must be 6/6 = 1.0 (the seed reported 0.0).
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire_then(10, lambda: None)
        sim.schedule(4, res.reset_stats)
        sim.run()
        assert sim.now == 10
        assert res.busy_cycles == pytest.approx(6.0)
        assert res.utilization() == pytest.approx(1.0)

    def test_partial_window_utilization_matches_hand_computation(self):
        # Grant of 30 cycles starting at t=10 (resource idle before).
        # Reset at t=25: 15 busy cycles remain in flight.  By t=50 the
        # measurement window is 25 cycles long -> utilization 15/25 = 0.6.
        sim = Simulator()
        res = Resource(sim, "r")
        sim.schedule(10, lambda: res.acquire_then(30, lambda: None))
        sim.schedule(25, res.reset_stats)
        sim.schedule(50, lambda: None)
        sim.run()
        assert res.busy_cycles == pytest.approx(15.0)
        assert res.utilization() == pytest.approx(15.0 / 25.0)

    def test_back_to_back_grants_spanning_reset(self):
        # Two 10-cycle grants issued at t=0 occupy [0, 10) and [10, 20).
        # Reset at t=5 -> 5 cycles of the first plus all 10 of the second
        # are post-reset.
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire(10)
        res.acquire(10)
        sim.schedule(5, res.reset_stats)
        sim.schedule(20, lambda: None)
        sim.run()
        assert res.busy_cycles == pytest.approx(15.0)
        assert res.utilization() == pytest.approx(1.0)

    def test_reset_after_grants_finish_zeroes_counters(self):
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire_then(50, lambda: None)
        sim.schedule(100, lambda: None)
        sim.run()
        res.reset_stats()
        assert res.busy_cycles == 0.0
        assert res.grants == 0

    def test_future_grant_with_gap_counts_only_its_own_cycles(self):
        # A grant reserved for [100, 105) via earliest; reset at t=50 must
        # credit exactly the 5-cycle grant, not the idle gap [50, 100).
        sim = Simulator()
        res = Resource(sim, "r")
        res.acquire(5, earliest=100)
        sim.schedule(50, res.reset_stats)
        sim.run()
        assert res.busy_cycles == pytest.approx(5.0)

    def test_channel_reset_attributes_in_flight_bytes(self):
        # 160 bytes at 16 B/cycle occupy [0, 10); reset at t=4 leaves
        # 6 busy cycles attributable to the new window.
        sim = Simulator()
        channel = Channel(sim, bytes_per_cycle=16, name="link")
        channel.send(160)
        sim.schedule(4, channel.reset_stats)
        sim.schedule(10, lambda: None)
        sim.run()
        assert channel.busy_cycles == pytest.approx(6.0)
