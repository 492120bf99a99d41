"""Tests for the RGP/RCP/RRPP pipelines and the design assemblies."""

import random

import pytest

from helpers import small_config

from repro.config import SystemConfig
from repro.core.base import TransferTable
from repro.errors import PlacementError, ProtocolError
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.sonuma.wire import RemoteRequest


class TestTransferTable:
    def test_create_get_retire(self):
        table = TransferTable()
        record = table.create(core_id=1, qp=None, entry=None, total_blocks=2, issued_at=0.0)
        assert record.transfer_id in table
        assert not record.is_complete
        record.blocks_completed = 2
        assert record.is_complete
        retired = table.retire(record.transfer_id)
        assert retired is record
        assert table.in_flight == 0
        assert table.retired == 1

    def test_retire_incomplete_rejected(self):
        table = TransferTable()
        record = table.create(0, None, None, total_blocks=4, issued_at=0.0)
        with pytest.raises(ProtocolError):
            table.retire(record.transfer_id)

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ProtocolError):
            TransferTable().get(42)


def run_transfer(config, core_id=0, length=256):
    """Drive one transfer through the NI pipelines without a CoreModel."""
    soc = ManycoreSoc(config)
    soc.register_context(0, size_bytes=1 << 22)
    emulator = RemoteEndEmulator(soc, hops=1)
    qp = soc.create_queue_pair(core_id)
    entry = WorkQueueEntry(RemoteOp.READ, 0, 1, 0, 0x900_0000, length)
    index = qp.wq.post(entry)
    soc.ni.frontend_for_core(core_id).post_doorbell(qp, core_id, entry, index)
    soc.run()
    return soc, emulator, qp


class TestRequestGeneration:
    def test_split_backend_unrolls_to_block_requests(self, split_config):
        soc, emulator, qp = run_transfer(split_config, length=512)
        backend = soc.ni.backends[soc.placement.backend_index_for_tile(0)]
        assert backend.transfers_started == 1
        assert backend.blocks_injected == 8
        assert emulator.outgoing_requests == 8

    def test_completion_writes_exactly_one_cq_entry(self, split_config):
        soc, _, qp = run_transfer(split_config, length=512)
        assert qp.cq.count == 1
        assert qp.cq.peek().length == 512

    def test_per_tile_requests_cross_the_noc_to_the_port(self, per_tile_config):
        soc, emulator, _ = run_transfer(per_tile_config, core_id=5, length=256)
        # Core 5 sits at (1, 1) in a 4x4 mesh: its requests and responses
        # must traverse the on-chip network, unlike the edge/split backends.
        assert soc.fabric.packets_sent > 4
        assert emulator.outgoing_requests == 4

    def test_frontend_without_backend_rejected(self, split_config):
        soc = ManycoreSoc(split_config)
        frontend = soc.ni.frontend_for_core(0)
        frontend.backend = None
        with pytest.raises(ProtocolError):
            frontend.post_doorbell(None, 0, None, 0)

    def test_transfer_retired_after_completion(self, split_config):
        soc, _, _ = run_transfer(split_config)
        assert soc.ni.transfers.in_flight == 0
        assert soc.ni.transfers.retired == 1


class TestRemoteRequestProcessing:
    def test_incoming_request_is_serviced_and_answered(self, split_config):
        soc = ManycoreSoc(split_config)
        soc.register_context(0, size_bytes=1 << 22)
        emulator = RemoteEndEmulator(soc, hops=1)
        request = RemoteRequest(RemoteOp.READ, src_node=1, dst_node=0, ctx_id=0, offset=4096)
        soc.deliver_remote_request(request)
        soc.run()
        rrpp = soc.ni.rrpp_for_request(request)
        assert rrpp.requests_received == 1
        assert rrpp.responses_sent == 1
        assert rrpp.payload_bytes_serviced == 64
        assert emulator.outgoing_responses == 1
        assert rrpp.service_latency.mean > 100  # includes the DRAM access

    def test_rrpp_steering_is_address_interleaved(self, split_config):
        soc = ManycoreSoc(split_config)
        block = split_config.cache_block_bytes
        slices = soc.placement.llc_slice_count
        rrpps = len(soc.ni.rrpps)
        seen = set()
        for block_index in range(slices):
            request = RemoteRequest(RemoteOp.READ, 1, 0, 0, offset=block_index * block)
            seen.add(soc.ni.rrpp_for_request(request).index)
        assert seen == set(range(rrpps))

    @pytest.mark.parametrize("topology", ["mesh", "noc_out"])
    @pytest.mark.parametrize("design", ["edge", "split", "per_tile"])
    def test_delivery_steers_to_the_rrpp_for_the_request(self, topology, design):
        config = SystemConfig.paper_defaults().with_design(design).with_topology(topology)
        soc = ManycoreSoc(config)
        draws = random.Random(7)
        seen = set()
        for _ in range(400):
            offset = draws.randrange(1 << 24)
            request = RemoteRequest(RemoteOp.READ, 1, 0, 0, offset=offset)
            before = [rrpp.requests_received for rrpp in soc.ni.rrpps]
            soc.ni.deliver_remote_request(request)
            after = [rrpp.requests_received for rrpp in soc.ni.rrpps]
            [steered] = [i for i, (b, a) in enumerate(zip(before, after)) if a != b]
            assert steered == soc.ni.rrpp_for_request(request).index
            seen.add(steered)
        assert seen == set(range(len(soc.ni.rrpps)))
        soc.close()

    def test_remote_write_request_updates_memory(self, split_config):
        soc = ManycoreSoc(split_config)
        soc.register_context(0, size_bytes=1 << 22)
        RemoteEndEmulator(soc, hops=1)
        request = RemoteRequest(RemoteOp.WRITE, 1, 0, 0, offset=0)
        soc.deliver_remote_request(request)
        soc.run()
        writes = sum(mc.dram.writes for mc in soc.memory_controllers)
        assert writes == 1


class TestAssemblyRouting:
    def test_unknown_core_rejected(self, split_config):
        soc = ManycoreSoc(split_config)
        with pytest.raises(PlacementError):
            soc.ni.frontend_for_core(999)

    def test_average_rrpp_latency_starts_at_zero(self, split_config):
        soc = ManycoreSoc(split_config)
        assert soc.ni.average_rrpp_latency() == 0.0

    def test_design_markers(self):
        from repro.core.edge import NIEdgeDesign
        from repro.core.per_tile import NIPerTileDesign
        from repro.core.split import NISplitDesign
        from repro.scenario.registry import NI_DESIGNS
        assert NI_DESIGNS.resolve(NIEdgeDesign) == "edge"
        assert NI_DESIGNS.resolve(NIPerTileDesign) == "per_tile"
        assert NI_DESIGNS.resolve(NISplitDesign) == "split"

    def test_factory_rejects_numa(self, split_config):
        # The registry's messaging flag, not the design's name, decides
        # whether ManycoreSoc can build a design.
        from repro.core.split import NISplitDesign
        from repro.errors import ConfigurationError
        from repro.scenario.registry import NI_DESIGNS, register_ni_design

        @register_ni_design("test_loadstore", label="test", messaging=False)
        class LoadStoreDesign(NISplitDesign):
            pass

        try:
            for design in ("numa", "test_loadstore"):
                with pytest.raises(ConfigurationError, match="no QP-based NI pipelines"):
                    ManycoreSoc(small_config(design))
        finally:
            NI_DESIGNS.unregister("test_loadstore")
