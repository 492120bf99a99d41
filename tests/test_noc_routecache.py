"""Tests for the route cache, its sharing across machines and the fabric's fast path.

The cache must be a pure memoization: for every routing algorithm, message
class and node pair, the cached route must be link-for-link identical to a
fresh :meth:`Topology.route` computation, and experiment outputs must not
change when the cache is bypassed.  Machines of one NOC shape share one
topology (:func:`shared_topology`), so a route is derived once per process;
what a machine simulates must not depend on what ran before it.
"""

import dataclasses

import pytest

from helpers import small_config

from repro.config import MessageClass, NocConfig, RoutingAlgorithm, SystemConfig
from repro.core.placement import build_placement
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.noc.nocout import NocOutTopology
from repro.noc.routing import o1turn_orientation
from repro.noc.topology import SHARED_SHAPES, Link, Topology, shared_topology
from repro.fabric.torus import Torus3D
from repro.node.soc import ManycoreSoc
from repro.numa.machine import NumaMachine
from repro.sim import perf
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.workloads.microbench import RemoteReadLatencyBenchmark

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

    def test_classes_sharing_a_direction_share_one_bound_route(self):
        # CDR routes memory and coherence requests YX, responses XY.
        sim = Simulator()
        topo = mesh_with(RoutingAlgorithm.CDR, 8)
        fabric = NocFabric(sim, topo, SystemConfig.paper_defaults().noc)
        src, dst = (1, 1), (6, 5)
        for msg_class in (MessageClass.MEMORY_REQUEST, MessageClass.COHERENCE_REQUEST,
                          MessageClass.MEMORY_RESPONSE, MessageClass.MEMORY_REQUEST):
            fabric.send(src, dst, 64, msg_class)
        sim.run()
        routes = fabric._class_routes
        assert len(routes) == 3 and len(fabric._bound_routes) == 2
        assert (routes[(src, dst, MessageClass.MEMORY_REQUEST)]
                is routes[(src, dst, MessageClass.COHERENCE_REQUEST)])
        assert (routes[(src, dst, MessageClass.MEMORY_RESPONSE)]
                is not routes[(src, dst, MessageClass.MEMORY_REQUEST)])

    def test_o1turn_still_routes_each_packet(self):
        sim = Simulator()
        topo = mesh_with(RoutingAlgorithm.O1TURN, 8)
        fabric = NocFabric(sim, topo, SystemConfig.paper_defaults().noc)
        src, dst = (1, 1), (6, 5)
        for _ in range(32):
            fabric.send(src, dst, 64, MessageClass.NI_DATA)
        sim.run()
        assert not topo.routes_ignore_packet_id and not fabric._class_routes
        xy = sum(o1turn_orientation(src, dst, packet_id) == "xy" for packet_id in range(32))
        assert 0 < xy < 32
        assert fabric._channels[(src, (2, 1))].grants == xy
        assert fabric._channels[(src, (1, 2))].grants == 32 - xy

    def test_which_topologies_route_per_class(self):
        for algorithm in ALL_ALGORITHMS:
            assert (mesh_with(algorithm, 4).routes_ignore_packet_id
                    is (algorithm is not RoutingAlgorithm.O1TURN))
        assert NocOutTopology(columns=4, cores_per_column=4).routes_ignore_packet_id
        assert Topology.routes_ignore_packet_id is False

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
        topo = shared_topology(MeshTopology, config.noc, 8)
        sims = [Simulator(), Simulator()]
        fabrics = [NocFabric(sim, topo, config.noc) for sim in sims]
        for sim, fabric in zip(sims, fabrics):
            fabric.send((0, 0), (7, 7), 64, MessageClass.NI_DATA)
            sim.run()
        fabric, other = fabrics
        assert fabric._bound_routes and topo.route_cache_size() > 0
        fabric.clear_route_cache()
        assert not fabric._bound_routes
        assert topo.route_cache_size() == 0
        # Clearing only frees memory: both fabrics on the shared topology
        # keep delivering, at the same times, over their own channels.
        for sim, machine in zip(sims, fabrics):
            machine.send((0, 0), (7, 7), 64, MessageClass.NI_DATA)
            sim.run()
            assert machine.packets_delivered == 2
        assert sims[0].now == sims[1].now
        assert fabric._bound_routes.keys() == other._bound_routes.keys()
        [rebound] = fabric._bound_routes.values()
        [kept] = other._bound_routes.values()
        assert [hop[1:] for hop in rebound] == [hop[1:] for hop in kept]
        assert not {id(hop[0]) for hop in rebound} & {id(hop[0]) for hop in kept}


def latency_point(config, size=1024):
    """One RemoteReadLatencyBenchmark point: its samples and its exact kernel counts."""
    with perf.session() as session:
        result = RemoteReadLatencyBenchmark(config, iterations=2, warmup=1).run(size)
    return (result.samples_cycles, session.events, session.event_times,
            session.peak_pending_events, session.packets)


def other_machines():
    """Machines of other designs, routings, sizes and chips than ``latency_point``'s."""
    paper = SystemConfig.paper_defaults()
    for config in (
        small_config("edge"),
        small_config("per_tile", noc=dataclasses.replace(
            small_config().noc, routing=RoutingAlgorithm.O1TURN)),
        paper.with_design("split"),
        paper.with_design("per_tile").with_topology("noc_out"),
        small_config("split", noc=dataclasses.replace(
            small_config().noc, routing=RoutingAlgorithm.XY)),
    ):
        latency_point(config, size=64)
    NumaMachine(paper).simulate_remote_read_cycles()


class TestSharedTopologies:
    def test_machines_of_one_config_share_route_tuples_not_channels(self):
        config = small_config("split")
        first, second = ManycoreSoc(config), ManycoreSoc(config)
        try:
            assert first.fabric.topology is second.fabric.topology
            src, dst = first.placement.tile_nodes[0], first.placement.mc_nodes[-1]
            for soc in (first, second):
                soc.fabric.send(src, dst, 64, MessageClass.MEMORY_REQUEST)
                soc.sim.run()
            topology = first.fabric.topology
            assert (topology.route_cached(src, dst, MessageClass.MEMORY_REQUEST)
                    is second.fabric.topology.route_cached(src, dst, MessageClass.MEMORY_REQUEST))
            [mine] = first.fabric._bound_routes.values()
            [theirs] = second.fabric._bound_routes.values()
            assert all(a[0] is not b[0] for a, b in zip(mine, theirs))
            # Nothing per machine hangs off the shared topology.
            assert not any(isinstance(value, (Simulator, NocFabric, Resource))
                           for value in vars(topology).values())
            assert all(type(link) is Link for route in topology._route_cache.values()
                       for link in route)
        finally:
            first.close()
            second.close()

    @pytest.mark.parametrize("variant", [
        pytest.param(lambda c: c.replace(noc=dataclasses.replace(
            c.noc, routing=RoutingAlgorithm.XY)), id="routing"),
        pytest.param(lambda c: c.replace(cores=dataclasses.replace(c.cores, count=16)),
                     id="mesh-side"),
        pytest.param(lambda c: c.replace(noc=dataclasses.replace(c.noc, mesh_hop_cycles=4)),
                     id="mesh_hop_cycles"),
        pytest.param(lambda c: c.with_topology("noc_out"), id="noc_out"),
    ])
    def test_each_shape_gets_its_own_table(self, variant):
        base = SystemConfig.paper_defaults()
        other = variant(base)
        topology = build_placement(base).topology
        assert build_placement(base).topology is topology
        shared = build_placement(other).topology
        assert shared is not topology
        assert build_placement(other).topology is shared
        # The shared table routes exactly like a private topology of its config.
        if isinstance(shared, MeshTopology):
            private = MeshTopology(other.mesh_side, other.noc)
        else:
            private = NocOutTopology(other.mesh_side, other.tile_count // other.mesh_side,
                                     other.noc)
        nodes = list(private.nodes())
        assert list(shared.nodes()) == nodes
        for msg_class in (MessageClass.NI_DATA, MessageClass.DIRECTORY_SOURCED):
            for src in nodes:
                for dst in nodes:
                    assert ([(link.key, link.hop_cycles)
                             for link in shared.route_cached(src, dst, msg_class)]
                            == [(link.key, link.hop_cycles)
                                for link in private.route(src, dst, msg_class)])

    def test_numa_baseline_shares_the_mesh_placements_topology(self):
        config = SystemConfig.paper_defaults()
        assert (shared_topology(MeshTopology, config.noc, config.mesh_side)
                is build_placement(config).topology)

    def test_a_second_machine_of_a_shape_derives_no_route(self, monkeypatch):
        derived = []
        route = MeshTopology.route

        def counting_route(self, *args, **kwargs):
            derived.append(args)
            return route(self, *args, **kwargs)

        monkeypatch.setattr(MeshTopology, "route", counting_route)
        config = small_config("per_tile")
        first = latency_point(config)
        topology = build_placement(config).topology
        size = topology.route_cache_size()
        assert size > 0
        derived.clear()
        assert latency_point(config) == first
        assert derived == []
        assert topology.route_cache_size() == size

    def test_more_shapes_than_the_bound_evict_the_oldest(self):
        noc = NocConfig()
        shared_topology.cache_clear()
        oldest = shared_topology(MeshTopology, noc, 2)
        routes = {(src, dst): oldest.route_cached(src, dst, MessageClass.NI_DATA)
                  for src in oldest.nodes() for dst in oldest.nodes()}
        newer = {side: shared_topology(MeshTopology, noc, side)
                 for side in range(3, 3 + SHARED_SHAPES)}
        assert shared_topology.cache_info().currsize == SHARED_SHAPES
        rebuilt = shared_topology(MeshTopology, noc, 2)
        assert rebuilt is not oldest
        assert rebuilt.route_cache_size() == 0
        for (src, dst), links in routes.items():
            again = rebuilt.route_cached(src, dst, MessageClass.NI_DATA)
            assert ([(link.key, link.hop_cycles) for link in again]
                    == [(link.key, link.hop_cycles) for link in links])
        # Rebuilding evicted the next oldest shape only.
        assert shared_topology(MeshTopology, noc, 3) is not newer[3]
        for side in range(5, 3 + SHARED_SHAPES):
            assert shared_topology(MeshTopology, noc, side) is newer[side]

    def test_a_point_does_not_depend_on_the_machines_before_it(self):
        config = SystemConfig.paper_defaults().with_design("split")
        shared_topology.cache_clear()
        fresh = latency_point(config)
        other_machines()
        assert latency_point(config) == fresh
        shared_topology.cache_clear()
        assert latency_point(config) == fresh

    def test_a_repeated_sequence_repeats_its_points(self):
        paper = SystemConfig.paper_defaults()
        configs = [small_config("edge"), paper.with_design("split"),
                   paper.with_design("split").with_topology("noc_out"), small_config("per_tile")]
        shared_topology.cache_clear()
        runs = [latency_point(config)[0] for config in configs + configs]
        assert runs[:len(configs)] == runs[len(configs):]
