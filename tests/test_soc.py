"""Tests for the ManycoreSoc wiring and its data-path services."""

import pytest

from helpers import small_config

from repro.core.edge import NIEdgeDesign
from repro.core.per_tile import NIPerTileDesign
from repro.core.split import NISplitDesign
from repro.errors import ConfigurationError, SimulationError
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.builder import MachineBuilder
from repro.scenario.spec import ScenarioSpec
from repro.sonuma.wire import RemoteRequest


class TestConstruction:
    def test_split_design_builds_frontends_per_tile_and_backends_per_row(self, split_config):
        soc = ManycoreSoc(split_config)
        assert isinstance(soc.ni, NISplitDesign)
        assert len(soc.ni.frontends) == 16
        assert len(soc.ni.backends) == 4
        assert len(soc.ni.rrpps) == 4
        assert len({id(f) for f in soc.ni.frontends.values()}) == 16

    def test_edge_design_shares_one_frontend_per_row(self, edge_config):
        soc = ManycoreSoc(edge_config)
        assert isinstance(soc.ni, NIEdgeDesign)
        assert len({id(f) for f in soc.ni.frontends.values()}) == 4
        assert len(soc.ni.backends) == 4

    def test_per_tile_design_has_one_backend_per_tile(self, per_tile_config):
        soc = ManycoreSoc(per_tile_config)
        assert isinstance(soc.ni, NIPerTileDesign)
        assert len(soc.ni.backends) == 16
        # Per-tile backends are not at the chip edge, so they must route
        # packets to the network port over the NOC.
        assert any(not backend.injection_at_edge for backend in soc.ni.backends)

    def test_split_backends_inject_at_the_edge(self, split_config):
        soc = ManycoreSoc(split_config)
        assert all(backend.injection_at_edge for backend in soc.ni.backends)

    def test_numa_design_rejected(self):
        with pytest.raises(ConfigurationError):
            ManycoreSoc(small_config("numa"))

    def test_tile_complexes_registered_with_coherence(self, split_config):
        soc = ManycoreSoc(split_config)
        for tile_id in range(split_config.tile_count):
            complex_ = soc.tile_complex(tile_id)
            assert soc.coherence.complex_of(complex_.entity_id) is complex_

    def test_collocated_designs_attach_ni_caches(self, split_config, edge_config):
        split_soc = ManycoreSoc(split_config)
        assert all(split_soc.tile_complex(t).ni_cache is not None for t in range(16))
        edge_soc = ManycoreSoc(edge_config)
        assert all(edge_soc.tile_complex(t).ni_cache is None for t in range(16))


class TestQueuePairSetup:
    def test_create_queue_pair_registers_with_the_right_frontend(self, split_config):
        soc = ManycoreSoc(split_config)
        qp = soc.create_queue_pair(5)
        assert qp.owner_core == 5
        assert qp.servicing_ni == soc.ni.frontend_for_core(5).name

    def test_prewarm_gives_collocated_complex_ownership(self, split_config):
        soc = ManycoreSoc(split_config)
        qp = soc.create_queue_pair(3)
        complex_ = soc.tile_complex(3)
        wq_block = qp.wq.entry_block_address(0)
        cq_block = qp.cq.entry_block_address(0)
        assert complex_.state(wq_block).writable
        assert complex_.state(cq_block).writable
        assert complex_.ni_cache.has_copy(cq_block)

    def test_prewarm_edge_design_sets_up_polling_state(self, edge_config):
        soc = ManycoreSoc(edge_config)
        qp = soc.create_queue_pair(3)
        edge_complex = soc.coherence.complex_of(soc.ni.frontend_for_core(3).entity_id)
        wq_block = qp.wq.entry_block_address(0)
        assert edge_complex.holds(wq_block)
        assert soc.directory.entry(wq_block).in_llc


class TestDataPath:
    def test_memory_read_round_trip_latency(self, split_config):
        soc = ManycoreSoc(split_config)
        done = []
        soc.memory_read((0, 0), addr=0x100000, nbytes=64, on_done=lambda: done.append(soc.sim.now))
        soc.run()
        assert len(done) == 1
        # Must include the 100-cycle DRAM latency plus several NOC traversals.
        assert done[0] > 100
        assert soc.memory_controllers[soc.address_map.mc_for_addr(0x100000)].dram.reads == 1

    def test_memory_write_is_posted_then_drained_to_dram(self, split_config):
        soc = ManycoreSoc(split_config)
        done = []
        soc.memory_write((0, 0), addr=0x200000, nbytes=64, on_done=lambda: done.append(soc.sim.now))
        soc.run()
        assert len(done) == 1
        mc = soc.memory_controllers[soc.address_map.mc_for_addr(0x200000)]
        assert mc.dram.writes == 1
        # The write is acknowledged before DRAM is updated (posted write).
        assert done[0] < soc.sim.now

    def test_off_chip_send_requires_a_port(self, split_config):
        soc = ManycoreSoc(split_config)
        request = RemoteRequest(op=RemoteOp.READ, src_node=0, dst_node=1, ctx_id=0, offset=0)
        with pytest.raises(SimulationError, match="no remote port"):
            soc.send_request(request)
        with pytest.raises(SimulationError, match="no remote port"):
            soc.send_response(request.make_response())
        assert soc.offchip_request_bytes == soc.offchip_response_bytes == 0

    def test_translate_validates_context_bounds(self, split_config):
        soc = ManycoreSoc(split_config)
        soc.register_context(0, size_bytes=4096)
        assert soc.translate(0, 128, 64) == 0x4000_0000 + 128

    def test_llc_bank_utilization_reports_zero_when_idle(self, split_config):
        soc = ManycoreSoc(split_config)
        assert soc.llc_bank_utilization() == 0.0


class TestDataPathContinuations:
    """One request of each data-path kind on an idle split machine.

    Each continuation must run ``on_done(*args)`` at the cycle the closure
    form of the data path delivered at (values captured from it).  The event
    counts are pinned too: every NOC hop is one event.
    """

    @staticmethod
    def recorder(soc):
        seen = []
        return seen, lambda *args: seen.append((soc.sim.now,) + args)

    def test_memory_read(self, split_config):
        soc = ManycoreSoc(split_config)
        seen, record = self.recorder(soc)
        soc.memory_read((0, 0), 0x100000, 64, record, "read", 7)
        soc.run()
        assert seen == [(132.8, "read", 7)]
        assert (soc.sim.now, soc.sim.events_executed, soc.fabric.packets_delivered) == (132.8, 11, 4)

    def test_memory_write(self, split_config):
        soc = ManycoreSoc(split_config)
        seen, record = self.recorder(soc)
        soc.memory_write((1, 2), 0x200040, 64, record, "write")
        soc.run()
        # Acknowledged at the LLC; the drain to DRAM ends the run later.
        assert seen == [(16.0, "write")]
        assert (soc.sim.now, soc.sim.events_executed, soc.fabric.packets_delivered) == (30.0, 7, 2)

    def test_coherence_memory_fetch(self, split_config):
        soc = ManycoreSoc(split_config)
        seen, record = self.recorder(soc)
        soc.coherence.memory_access((2, 1), 0x300080, record, "fetch")
        soc.run()
        assert seen == [(118.8, "fetch")]
        assert (soc.sim.now, soc.sim.events_executed, soc.fabric.packets_delivered) == (118.8, 6, 2)

    def test_coherent_read_that_misses_the_llc(self, split_config):
        soc = ManycoreSoc(split_config)
        seen, record = self.recorder(soc)
        entity = soc.tile_complex(5).entity_id
        soc.coherence.access(entity, "core", 0x300080, False, record, "coherent")
        soc.run()
        [(cycle, result, tag)] = seen
        assert (cycle, tag) == (157.8, "coherent")
        assert (result.start_time, result.complete_time, result.served_locally) == (0.0, 157.8, False)
        assert soc.directory.memory_fetches == 1
        assert (soc.sim.now, soc.sim.events_executed, soc.fabric.packets_delivered) == (164.8, 17, 5)


class TestRemotePort:
    def test_emulator_round_trip_delivers_response(self, split_config):
        soc = ManycoreSoc(split_config)
        soc.register_context(0, size_bytes=1 << 20)
        emulator = RemoteEndEmulator(soc, hops=1)
        qp = soc.create_queue_pair(0)
        entry = WorkQueueEntry(RemoteOp.READ, 0, 1, 0, 0x9000000, 64)
        frontend = soc.ni.frontend_for_core(0)
        index = qp.wq.post(entry)
        frontend.post_doorbell(qp, 0, entry, index)
        soc.run()
        assert emulator.outgoing_requests == 1
        assert emulator.responses_delivered == 1
        assert qp.cq.count == 1


class TestPacketConservation:
    """Every packet a whole SoC run injects is delivered by the time it drains."""

    @pytest.mark.parametrize("workload", ["uniform_random", "rw_mix"])
    @pytest.mark.parametrize("design", ["edge", "per_tile", "split"])
    def test_drained_run_delivers_every_packet(self, design, workload):
        spec = ScenarioSpec(design=design, workload=workload,
                            workload_params={"active_cores": 2, "ops_per_core": 3})
        scenario = MachineBuilder(spec, base_config=small_config()).build()
        scenario.run()
        fabric = scenario.machine.fabric
        assert fabric.packets_sent > 0
        assert fabric.packets_delivered == fabric.packets_sent
        assert scenario.machine.sim.pending_events == 0
