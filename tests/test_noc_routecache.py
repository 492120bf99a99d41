"""Tests for the route cache and the fabric's channel-bound fast path.

The cache must be a pure memoization: for every routing algorithm, message
class and node pair, the cached route must be link-for-link identical to a
fresh :meth:`Topology.route` computation, and experiment outputs must not
change when the cache is bypassed.
"""

import dataclasses

import pytest

from repro.config import MessageClass, NocConfig, RoutingAlgorithm, SystemConfig
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.noc.nocout import NocOutTopology
from repro.noc.topology import Topology
from repro.fabric.torus import Torus3D
from repro.sim.engine import Simulator

ALL_ALGORITHMS = list(RoutingAlgorithm)
ALL_CLASSES = list(MessageClass)


def mesh_with(algorithm, side):
    return MeshTopology(side, dataclasses.replace(NocConfig(), routing=algorithm))


class TestMeshRouteCacheEquivalence:
    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_cached_routes_identical_to_uncached(self, algorithm, side):
        topo = mesh_with(algorithm, side)
        # Deterministic algorithms ignore the packet id, O1Turn ignores the
        # message class; cover the axis each algorithm actually routes on.
        if algorithm is RoutingAlgorithm.O1TURN:
            sweeps = [(MessageClass.NI_DATA, packet_id) for packet_id in range(4)]
        else:
            sweeps = [(msg_class, 0) for msg_class in ALL_CLASSES]
        for msg_class, packet_id in sweeps:
            for src in topo.nodes():
                for dst in topo.nodes():
                    cached = topo.route_cached(src, dst, msg_class, packet_id)
                    fresh = tuple(topo.route(src, dst, msg_class, packet_id))
                    assert cached == fresh, (
                        "cache diverged for %s %s %s->%s pid=%d"
                        % (algorithm, msg_class, src, dst, packet_id)
                    )

    def test_cache_returns_same_tuple_object(self):
        topo = mesh_with(RoutingAlgorithm.CDR_EXTENDED, 4)
        first = topo.route_cached((0, 0), (3, 2), MessageClass.NI_DATA)
        second = topo.route_cached((0, 0), (3, 2), MessageClass.NI_DATA)
        assert first is second

    def test_class_direction_collapses_into_one_entry(self):
        # Under CDR_EXTENDED every non-directory class routes XY, so all of
        # them share one cache entry per node pair.
        topo = mesh_with(RoutingAlgorithm.CDR_EXTENDED, 4)
        xy_route = topo.route_cached((1, 1), (3, 2), MessageClass.NI_DATA)
        assert topo.route_cached((1, 1), (3, 2), MessageClass.MEMORY_REQUEST) is xy_route
        assert topo.route_cache_size() == 1
        topo.route_cached((1, 1), (3, 2), MessageClass.DIRECTORY_SOURCED)
        assert topo.route_cache_size() == 2

    def test_o1turn_caches_both_orientations(self):
        topo = mesh_with(RoutingAlgorithm.O1TURN, 8)
        seen_keys = set()
        for packet_id in range(64):
            seen_keys.add(topo.route_cache_key((1, 2), (6, 5), MessageClass.NI_DATA, packet_id))
        assert seen_keys == {((1, 2), (6, 5), "xy"), ((1, 2), (6, 5), "yx")}
        for packet_id in range(64):
            cached = topo.route_cached((1, 2), (6, 5), MessageClass.NI_DATA, packet_id)
            assert cached == tuple(topo.route((1, 2), (6, 5), MessageClass.NI_DATA, packet_id))
        assert topo.route_cache_size() == 2

    def test_clear_route_cache(self):
        topo = mesh_with(RoutingAlgorithm.XY, 4)
        topo.route_cached((0, 0), (3, 3), MessageClass.NI_DATA)
        assert topo.route_cache_size() == 1
        topo.clear_route_cache()
        assert topo.route_cache_size() == 0


class TestNocOutRouteCacheEquivalence:
    def test_cached_routes_identical_to_uncached(self):
        topo = NocOutTopology(columns=4, cores_per_column=4)
        nodes = list(topo.nodes())
        for msg_class in (MessageClass.NI_DATA, MessageClass.MEMORY_REQUEST):
            for src in nodes:
                for dst in nodes:
                    cached = topo.route_cached(src, dst, msg_class)
                    fresh = tuple(topo.route(src, dst, msg_class))
                    assert cached == fresh

    def test_routes_are_class_independent(self):
        topo = NocOutTopology(columns=4, cores_per_column=4)
        a = topo.route_cached(("core", 0, 1), ("mc", 3), MessageClass.NI_DATA)
        b = topo.route_cached(("core", 0, 1), ("mc", 3), MessageClass.MEMORY_RESPONSE)
        assert a is b


class TestTorusHopCache:
    def test_cached_hop_counts_match_fresh_computation(self):
        torus = Torus3D((4, 4, 4))
        for src in range(torus.node_count):
            for dst in range(torus.node_count):
                first = torus.hop_count(src, dst)
                again = torus.hop_count(src, dst)
                assert first == again
                sc, dc = torus.coord(src), torus.coord(dst)
                expected = sum(
                    min(abs(s - d), n - abs(s - d))
                    for s, d, n in zip(sc, dc, torus.dims)
                )
                assert first == expected


class TestFabricFastPath:
    def _drive(self, algorithm, disable_cache, packets=400):
        """Inject a deterministic packet mix; return observable fabric state."""
        config = SystemConfig.paper_defaults()
        noc = dataclasses.replace(config.noc, routing=algorithm)
        sim = Simulator()
        topo = mesh_with(algorithm, 8)
        if disable_cache:
            topo.route_cache_key = lambda *args, **kwargs: None
        fabric = NocFabric(sim, topo, noc)
        deliveries = []
        classes = list(MessageClass)
        for i in range(packets):
            src = topo.tile_coord(i % 64)
            dst = topo.tile_coord((i * 11 + 5) % 64)
            packet_id = fabric.lifetime_packets_sent
            assert fabric.send(
                src, dst, 64 * (1 + i % 3), classes[i % len(classes)],
                lambda *packet: deliveries.append(packet + (sim.now,)),
                packet_id, src, dst,
            ) == packet_id
            if i % 16 == 15:
                sim.run()
        sim.run()
        return {
            "deliveries": deliveries,
            "wire_bytes": fabric.wire_bytes_sent,
            "link_utilization": fabric.link_utilization(),
            "events": sim.events_executed,
            "now": sim.now,
        }

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_cached_and_uncached_fabric_behaviour_identical(self, algorithm):
        cached = self._drive(algorithm, disable_cache=False)
        uncached = self._drive(algorithm, disable_cache=True)
        assert cached == uncached

    def test_bound_routes_reused_across_packets(self):
        config = SystemConfig.paper_defaults()
        sim = Simulator()
        topo = mesh_with(RoutingAlgorithm.CDR_EXTENDED, 8)
        fabric = NocFabric(sim, topo, config.noc)
        for _ in range(10):
            fabric.send((0, 0), (7, 7), 64, MessageClass.NI_DATA)
            sim.run()
        assert len(fabric._bound_routes) == 1

    def test_routes_share_link_and_bound_hop_objects(self):
        config = SystemConfig.paper_defaults()
        sim = Simulator()
        topo = mesh_with(RoutingAlgorithm.CDR_EXTENDED, 8)
        fabric = NocFabric(sim, topo, config.noc)
        # Both routes leave (0, 0) eastwards first.
        short = topo.route((0, 0), (2, 0), MessageClass.NI_DATA)
        long = topo.route((0, 0), (5, 0), MessageClass.NI_DATA)
        assert short[0] is long[0]
        fabric.send((0, 0), (2, 0), 64, MessageClass.NI_DATA)
        fabric.send((0, 0), (5, 0), 64, MessageClass.NI_DATA)
        sim.run()
        first_hops = [route[0] for route in fabric._bound_routes.values()]
        assert len(first_hops) == 2 and first_hops[0] is first_hops[1]

    def test_base_topology_route_cache_key_is_none(self):
        class Custom(Topology):
            def nodes(self):
                return [(0,), (1,)]

            def route(self, src, dst, msg_class, packet_id=0):
                return []

        assert Custom().route_cache_key((0,), (1,), MessageClass.NI_DATA) is None


class TestRouteCacheInvalidation:
    def test_fabric_clear_drops_bound_and_topology_routes(self):
        config = SystemConfig.paper_defaults()
        sim = Simulator()
        topo = mesh_with(RoutingAlgorithm.CDR_EXTENDED, 8)
        fabric = NocFabric(sim, topo, config.noc)
        fabric.send((0, 0), (7, 7), 64, MessageClass.NI_DATA)
        sim.run()
        assert fabric._bound_routes and topo.route_cache_size() > 0
        fabric.clear_route_cache()
        assert not fabric._bound_routes
        assert topo.route_cache_size() == 0
        # The fabric must keep working after invalidation.
        fabric.send((0, 0), (7, 7), 64, MessageClass.NI_DATA)
        sim.run()
        assert fabric.packets_delivered == 2
