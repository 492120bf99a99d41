"""Tests for the NOC contention model."""

import re

import pytest

from repro.config import MessageClass, NocConfig
from repro.errors import SimulationError
from repro.noc.fabric import NocFabric, hop_fusion_default
from repro.noc.mesh import MeshTopology
from repro.noc.packet import HEADER_BYTES, flit_count
from repro.sim.engine import Simulator


def make_fabric(monkeypatch=None, fusion=True):
    """An 8x8 mesh fabric on a fresh simulator.

    With ``monkeypatch``, hop fusion is forced on or off through
    ``REPRO_HOP_FUSION``, which the fabric reads at construction.
    """
    if monkeypatch is not None:
        monkeypatch.setenv("REPRO_HOP_FUSION", "1" if fusion else "0")
    sim = Simulator()
    return sim, NocFabric(sim, MeshTopology(8, NocConfig()), NocConfig())


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


def _drive(fabric, sim, sends):
    """Inject ``sends`` (src, dst, nbytes, cls) tuples; return (packet id,
    delivery time) pairs in delivery order.

    ``send`` returns each packet's id, its send order on the fabric; the
    delivery callback receives that id as its argument.
    """
    times = []
    record = lambda packet_id: times.append((packet_id, sim.now))
    for src, dst, nbytes, cls in sends:
        packet_id = fabric.lifetime_packets_sent
        assert fabric.send(src, dst, nbytes, cls, record, packet_id) == packet_id
    sim.run()
    return times


MIX = [
    ((0, 0), (5, 3), 64, MessageClass.NI_DATA),
    ((1, 1), (6, 6), 256, MessageClass.NI_DATA),
    ((7, 0), (0, 7), 8, MessageClass.COHERENCE_REQUEST),
    ((3, 3), (3, 4), 64, MessageClass.MEMORY_RESPONSE),
    ((2, 5), (5, 2), 128, MessageClass.NI_COMMAND),
]


class TestHopFusion:
    def test_fusion_enabled_by_default(self):
        _sim, fabric = make_fabric()
        assert fabric.hop_fusion is True

    def test_env_var_force_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOP_FUSION", "0")
        assert hop_fusion_default() is False
        _sim, fabric = make_fabric()
        assert fabric.hop_fusion is False
        monkeypatch.setenv("REPRO_HOP_FUSION", "1")
        assert hop_fusion_default() is True

    def test_fused_walk_matches_zero_load_estimate(self):
        sim, fabric = make_fabric()
        delivered = {}
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA,
                    lambda: delivered.update(t=sim.now))
        sim.run()
        assert delivered["t"] == fabric.zero_load_latency((0, 0), (5, 3), 64)
        # 8-hop route: hop 0 is acquired in send, the continuation fuses the
        # other 7 hops into the delivery event.
        assert fabric.fused_hops == 6
        assert fabric.lifetime_fused_hops == 6

    def test_fused_and_unfused_deliveries_are_identical(self, monkeypatch):
        sim_a, fused = make_fabric(monkeypatch, fusion=True)
        sim_b, unfused = make_fabric(monkeypatch, fusion=False)
        times_fused = _drive(fused, sim_a, MIX)
        times_unfused = _drive(unfused, sim_b, MIX)
        assert times_fused and len(times_fused) == len(MIX)
        assert [t for _, t in times_fused] == [t for _, t in times_unfused]
        assert fused.fused_hops > 0
        assert unfused.fused_hops == 0
        assert fused.link_utilization() == unfused.link_utilization()

    def test_contended_link_falls_back_and_stays_exact(self, monkeypatch):
        # Three same-route packets: the second and third queue behind the
        # first on every link, and the dense event queue suppresses fusion
        # without changing any delivery time (see TestContention for the
        # expected spacing).
        sim_a, fused = make_fabric(monkeypatch, fusion=True)
        sim_b, unfused = make_fabric(monkeypatch, fusion=False)
        sends = [((0, 0), (3, 0), 64, MessageClass.NI_DATA)] * 3
        times_fused = [t for _, t in _drive(fused, sim_a, sends)]
        times_unfused = [t for _, t in _drive(unfused, sim_b, sends)]
        assert times_fused == times_unfused
        assert times_fused[1] - times_fused[0] == pytest.approx(5.0)

    def test_tie_with_a_pending_event_suppresses_fusion(self):
        sim, fabric = make_fabric()
        # A wall of dummy events, one per cycle: every next-hop arrival lands
        # at or after the queue head, so the walk must never fuse.
        for t in range(1, 40):
            sim.schedule(t, lambda: None)
        delivered = {}
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA,
                    lambda: delivered.update(t=sim.now))
        sim.run()
        assert delivered["t"] == fabric.zero_load_latency((0, 0), (5, 3), 64)
        assert fabric.fused_hops == 0

    def test_stats_at_a_run_horizon_match_unfused(self, monkeypatch):
        # A fused walk must not commit link occupancy for hops the per-hop
        # chain would not have executed by a run(until=...) horizon: callers
        # sample utilization exactly at those boundaries.
        sim_a, fused = make_fabric(monkeypatch, fusion=True)
        sim_b, unfused = make_fabric(monkeypatch, fusion=False)
        for sim, fabric in ((sim_a, fused), (sim_b, unfused)):
            fabric.send((0, 0), (7, 7), 256, MessageClass.NI_DATA)
            sim.run(until=3)
        busy_a = sum(c.busy_cycles for c in fused._channels.values())
        busy_b = sum(c.busy_cycles for c in unfused._channels.values())
        assert busy_a == busy_b
        assert fused.link_utilization() == unfused.link_utilization()
        # Both finish the packet identically after the horizon lifts.
        sim_a.run()
        sim_b.run()
        assert fused.packets_delivered == unfused.packets_delivered == 1
        assert fused.link_utilization() == unfused.link_utilization()

    def test_reset_stats_mid_flight_matches_unfused(self, monkeypatch):
        # Warm-up boundary with a packet in flight: the carried-over
        # in-flight busy cycles must be identical fused vs unfused.
        sim_a, fused = make_fabric(monkeypatch, fusion=True)
        sim_b, unfused = make_fabric(monkeypatch, fusion=False)
        results = {}
        for key, (sim, fabric) in (("fused", (sim_a, fused)),
                                   ("unfused", (sim_b, unfused))):
            fabric.send((0, 0), (7, 7), 256, MessageClass.NI_DATA)
            sim.run(until=5)
            fabric.reset_stats()
            sim.run()
            results[key] = sum(c.busy_cycles for c in fabric._channels.values())
        assert results["fused"] == results["unfused"]

    def test_reset_stats_zeroes_window_counter_only(self):
        sim, fabric = make_fabric()
        for _ in range(2):
            fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA)
            sim.run()
        assert (fabric.packets_sent, fabric.fused_hops) == (2, 12)
        fabric.reset_stats()
        assert (fabric.packets_sent, fabric.fused_hops) == (0, 0)
        # The window counts restart while the lifetime counts keep going.
        fabric.send((0, 0), (5, 3), 64, MessageClass.NI_DATA)
        sim.run()
        assert (fabric.packets_sent, fabric.fused_hops) == (1, 6)
        assert (fabric.lifetime_packets_sent, fabric.lifetime_fused_hops) == (3, 18)
