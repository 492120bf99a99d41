"""Tests for the NOC contention model."""

import random
import re

import pytest

from repro.config import MessageClass, NocConfig, RoutingAlgorithm
from repro.errors import SimulationError
from repro.faults.injector import FaultState
from repro.faults.models import RouterDegradeFault
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.noc.packet import HEADER_BYTES, flit_count
from repro.sim.engine import Simulator


def make_fabric(**noc):
    """An 8x8 mesh fabric on a fresh simulator; ``noc`` overrides
    :class:`NocConfig` fields."""
    sim = Simulator()
    config = NocConfig(**noc)
    return sim, NocFabric(sim, MeshTopology(8, config), config)


class TestPacket:
    def test_flit_count_includes_header(self):
        assert flit_count(64, 16) == 5
        sim, fabric = make_fabric()
        fabric.send((0, 0), (1, 0), 64, MessageClass.NI_DATA)
        assert fabric.wire_bytes_sent == 80

    def test_control_packet_is_two_flits(self):
        assert flit_count(8, 16) == 2

    def test_header_constant(self):
        assert HEADER_BYTES == 16


class TestZeroLoadLatency:
    def test_single_hop_control_packet(self):
        sim, fabric = make_fabric()
        # 1 hop x 3 cycles + (2 flits - 1) serialization.
        assert fabric.zero_load_latency((0, 0), (1, 0), 8) == 4

    def test_multi_hop_data_packet(self):
        sim, fabric = make_fabric()
        # 8 hops x 3 + (5 - 1).
        assert fabric.zero_load_latency((0, 0), (5, 3), 64) == 28

    def test_local_delivery(self):
        sim, fabric = make_fabric()
        assert fabric.zero_load_latency((2, 2), (2, 2), 64) == NocFabric.LOCAL_DELIVERY_CYCLES

    def test_simulated_delivery_matches_zero_load_estimate(self):
        sim, fabric = make_fabric()
        delivered = {}
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA, lambda: delivered.update(t=sim.now))
        sim.run()
        assert delivered["t"] == fabric.zero_load_latency((0, 0), (5, 3), 64)


class TestContention:
    def test_back_to_back_packets_serialize_on_a_shared_link(self):
        sim, fabric = make_fabric()
        times = []
        for _ in range(3):
            fabric.send((0, 0), (3, 0), 64, MessageClass.NI_DATA, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        # Each 5-flit packet delays the next by 5 cycles on the first link.
        assert times[1] - times[0] == pytest.approx(5.0)
        assert times[2] - times[1] == pytest.approx(5.0)

    def test_disjoint_paths_do_not_interfere(self):
        sim, fabric = make_fabric()
        times = {}
        fabric.send((0, 0), (3, 0), 64, MessageClass.NI_DATA, lambda: times.setdefault("a", sim.now))
        fabric.send((0, 5), (3, 5), 64, MessageClass.NI_DATA, lambda: times.setdefault("b", sim.now))
        sim.run()
        assert times["a"] == times["b"]

    def test_statistics_accumulate(self):
        sim, fabric = make_fabric()
        fabric.send((0, 0), (4, 0), 64, MessageClass.NI_DATA)
        fabric.send((0, 0), (4, 0), 8, MessageClass.COHERENCE_REQUEST)
        sim.run()
        assert fabric.packets_sent == 2
        assert fabric.packets_delivered == 2
        assert fabric.wire_bytes_sent == 80 + 32

    def test_reset_stats(self):
        sim, fabric = make_fabric()
        fabric.send((0, 0), (7, 0), 64, MessageClass.NI_DATA)
        sim.run()
        fabric.reset_stats()
        assert fabric.wire_bytes_sent == 0
        assert fabric.packets_sent == 0
        assert fabric.max_link_utilization() == 0.0

    def test_link_utilization_reports_busy_links(self):
        sim, fabric = make_fabric()
        for _ in range(10):
            fabric.send((0, 0), (1, 0), 64, MessageClass.NI_DATA)
        sim.run()
        utilization = fabric.link_utilization()
        assert utilization[((0, 0), (1, 0))] > 0.5

    def test_channel_is_named_by_its_link(self):
        sim, fabric = make_fabric()
        fabric.send((0, 0), (1, 0), 64, MessageClass.NI_DATA)
        channel = fabric._channels[((0, 0), (1, 0))]
        assert "link (0, 0)->(1, 0)" in repr(channel)
        with pytest.raises(SimulationError, match=re.escape("(link (0, 0)->(1, 0))")):
            channel.acquire(-1)


class TestDelivery:
    """The last hop queues the caller's continuation itself, or a no-op."""

    @pytest.mark.parametrize("dst", [(5, 3), (0, 0)], ids=["walk", "local"])
    def test_packet_without_callback_is_one_event_at_its_delivery_time(self, dst):
        sim, fabric = make_fabric()
        delivered = []
        fabric.send((0, 0), dst, 64, MessageClass.NI_DATA, lambda: delivered.append(sim.now))
        sim.run()
        [delivery] = delivered
        listened = sim.events_executed

        sim, fabric = make_fabric()
        fabric.send((0, 0), dst, 64, MessageClass.NI_DATA)
        sim.run(until=delivery - 0.5)
        # Counted once its delivery is queued: the one event left.
        assert sim.pending_events == 1 and fabric.packets_delivered == 1
        before = sim.events_executed
        assert sim.run() == delivery
        assert sim.events_executed == before + 1 == listened
        assert fabric.packets_delivered == fabric.packets_sent == 1

    def test_every_packet_of_a_mix_is_delivered_after_a_drain(self):
        sim, fabric = make_fabric()
        for src, dst, nbytes, cls in MIX * 3:
            fabric.send(src, dst, nbytes, cls)
        fabric.send((4, 4), (4, 4), 8, MessageClass.NI_COMMAND)
        sim.run()
        assert fabric.packets_delivered == fabric.packets_sent == 3 * len(MIX) + 1


class TestInlineFirstHop:
    """With no fault state ``send`` takes the first hop itself; with one
    installed it calls ``_hop``.  An installed state that never activates
    must give the same run, event for event.  Under O1Turn a route depends
    on the packet id, so ``send`` binds it per packet instead of finding it
    in the ``(src, dst, msg_class)`` table; both lookups are compared."""

    @staticmethod
    def _run(o1turn, faults, seed):
        routing = RoutingAlgorithm.O1TURN if o1turn else RoutingAlgorithm.CDR_EXTENDED
        sim, fabric = make_fabric(routing=routing)
        fabric.faults = faults
        draws = random.Random(seed)
        classes = list(MessageClass)
        delivered = []

        def inject(src, dst, nbytes, cls):
            packet_id = fabric.lifetime_packets_sent
            fabric.send(src, dst, nbytes, cls,
                        lambda: delivered.append((packet_id, sim.now)))

        for _ in range(400):
            src = (draws.randrange(8), draws.randrange(8))
            kind = draws.randrange(4)
            if kind == 0:  # one hop
                dst = (src[0] + 1, src[1]) if src[0] < 7 else (src[0] - 1, src[1])
            elif kind == 1:  # local delivery
                dst = src
            else:
                dst = (draws.randrange(8), draws.randrange(8))
            # Bursts at shared cycles contend; the gaps leave channels idle,
            # so a later first hop starts at now, not at the channel's free_at.
            at = draws.choice([0, 0, 1, 2, 40, 300]) + 25 * draws.randrange(200)
            sim.schedule(at, inject, src, dst, draws.choice([8, 64, 80, 256]),
                         draws.choice(classes))
        sim.run()
        channels = {key: (channel.grants, channel.busy_cycles, channel.free_at)
                    for key, channel in fabric._channels.items()}
        return (delivered, channels, sim.now, sim.events_executed, sim.peak_pending_events,
                fabric.packets_delivered, fabric.packets_sent, fabric.wire_bytes_sent,
                len(fabric._class_routes))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("o1turn", [False, True])
    def test_inline_first_hop_matches_the_hop_walk(self, o1turn, seed):
        inline = self._run(o1turn, None, seed)
        idle = FaultState(RouterDegradeFault(intensity=1.0))
        walked = self._run(o1turn, idle, seed)
        assert idle.active is False and idle.hits == 0
        assert len(inline[0]) == 400 == inline[5] == inline[6]
        assert inline == walked
        # O1Turn binds each route per packet; CDR also fills the class table.
        assert (inline[8] == 0) is o1turn


MIX = [
    ((0, 0), (5, 3), 64, MessageClass.NI_DATA),
    ((1, 1), (6, 6), 256, MessageClass.NI_DATA),
    ((7, 0), (0, 7), 8, MessageClass.COHERENCE_REQUEST),
    ((3, 3), (3, 4), 64, MessageClass.MEMORY_RESPONSE),
    ((2, 5), (5, 2), 128, MessageClass.NI_COMMAND),
]


class TestHopWalk:
    """A packet's head advances one event per hop."""

    @pytest.mark.parametrize("dst, hops", [((1, 0), 1), ((5, 3), 8), ((7, 7), 14)],
                             ids=["1_hop", "8_hops", "14_hops"])
    def test_an_idle_packet_costs_one_event_per_hop(self, dst, hops):
        sim, fabric = make_fabric()
        assert len(fabric.topology.route_cached((0, 0), dst, MessageClass.NI_DATA)) == hops
        fabric.send((0, 0), dst, 64, MessageClass.NI_DATA)
        sim.run()
        # The first link is granted inside send; each later link is one hop
        # event, and the last one queues the delivery.
        assert sim.events_executed == hops
        assert sim.now == fabric.zero_load_latency((0, 0), dst, 64)

    def test_a_local_delivery_costs_one_event(self):
        sim, fabric = make_fabric()
        fabric.send((2, 2), (2, 2), 64, MessageClass.NI_DATA)
        sim.run()
        assert sim.events_executed == 1
        assert sim.now == NocFabric.LOCAL_DELIVERY_CYCLES

    def test_disjoint_packets_of_a_mix_arrive_at_zero_load(self):
        sim, fabric = make_fabric()
        delivered = []
        for order, (src, dst, nbytes, cls) in enumerate(MIX):
            # send returns the packet id: its send order on the fabric.
            assert fabric.send(src, dst, nbytes, cls,
                               lambda *packet: delivered.append((packet, sim.now)),
                               src, dst, nbytes, cls) == order
        sim.run()
        assert len(delivered) == len(MIX)
        for packet, time in delivered:
            assert time == fabric.zero_load_latency(*packet)

    def test_a_busy_queue_leaves_the_delivery_time_alone(self):
        sim, fabric = make_fabric()
        # A wall of dummy events, one per cycle, shares every hop's cycle.
        for t in range(1, 40):
            sim.schedule(t, lambda: None)
        delivered = {}
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA,
                    lambda: delivered.update(t=sim.now))
        sim.run()
        assert delivered["t"] == fabric.zero_load_latency((0, 0), (5, 3), 64)
        assert sim.events_executed == 39 + 8

    def test_the_walk_stops_at_the_horizon(self):
        # Callers sample link statistics at run(until=...) horizons, so no
        # hop past one may have acquired its link.
        sim, fabric = make_fabric()
        fabric.send((0, 0), (7, 7), 256, MessageClass.NI_DATA)
        sim.run(until=3)
        # 17 flits per link: link 0 granted in send, link 1 by the hop at
        # cycle 3, link 2 is the pending hop at cycle 6.
        assert sum(c.busy_cycles for c in fabric._channels.values()) == 2 * 17
        assert sim.pending_events == 1
        sim.run()
        assert fabric.packets_delivered == 1
        assert sum(c.busy_cycles for c in fabric._channels.values()) == 14 * 17

    def test_reset_stats_mid_flight_carries_the_in_flight_cycles(self):
        # Warm-up boundary at cycle 5 with a packet in flight: link 0 is busy
        # over [0, 17) and link 1 over [3, 20), so 12 + 15 cycles fall after
        # the reset; the 12 later links add 17 cycles each.
        sim, fabric = make_fabric()
        fabric.send((0, 0), (7, 7), 256, MessageClass.NI_DATA)
        sim.run(until=5)
        fabric.reset_stats()
        assert sum(c.busy_cycles for c in fabric._channels.values()) == 12 + 15
        sim.run()
        assert sum(c.busy_cycles for c in fabric._channels.values()) == 12 + 15 + 12 * 17

    def test_reset_stats_zeroes_window_counter_only(self):
        sim, fabric = make_fabric()
        for _ in range(2):
            fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA)
            sim.run()
        assert (fabric.packets_sent, fabric.lifetime_packets_sent) == (2, 2)
        fabric.reset_stats()
        assert (fabric.packets_sent, fabric.lifetime_packets_sent) == (0, 2)
        # The window count restarts while the lifetime count keeps going.
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA)
        sim.run()
        assert (fabric.packets_sent, fabric.lifetime_packets_sent) == (1, 3)
