"""Tests for the soNUMA protocol layer (wire format, contexts, unrolling)."""

import pytest

from repro.errors import ProtocolError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.sonuma.context import ContextRegistry, RemoteContext
from repro.sonuma.unroll import block_count, unroll_blocks
from repro.sonuma.wire import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    RemoteRequest,
    RemoteResponse,
)


class TestWireFormat:
    def test_read_request_is_header_only(self):
        request = RemoteRequest(RemoteOp.READ, src_node=0, dst_node=1, ctx_id=0, offset=0)
        assert request.wire_bytes == REQUEST_HEADER_BYTES

    def test_write_request_carries_a_block(self):
        request = RemoteRequest(RemoteOp.WRITE, 0, 1, 0, 0)
        assert request.wire_bytes == REQUEST_HEADER_BYTES + 64

    def test_response_mirrors_request(self):
        request = RemoteRequest(RemoteOp.READ, src_node=0, dst_node=3, ctx_id=7,
                                offset=128, block_index=0, total_blocks=2)
        response = request.make_response()
        assert response.request_id == request.request_id
        assert response.src_node == 3 and response.dst_node == 0
        assert response.wire_bytes == RESPONSE_HEADER_BYTES + 64

    def test_write_response_is_header_only(self):
        request = RemoteRequest(RemoteOp.WRITE, 0, 1, 0, 0)
        assert request.make_response().wire_bytes == RESPONSE_HEADER_BYTES

    def test_request_ids_are_unique(self):
        a = RemoteRequest(RemoteOp.READ, 0, 1, 0, 0)
        b = RemoteRequest(RemoteOp.READ, 0, 1, 0, 0)
        assert a.request_id != b.request_id

    def test_messages_are_slotted(self):
        request = RemoteRequest(RemoteOp.READ, 0, 1, 0, 0)
        response = request.make_response()
        for message in (request, response):
            assert not hasattr(message, "__dict__")
            with pytest.raises(AttributeError):
                message.arrival = 5

    def test_request_ids_strictly_increase_and_responses_keep_them(self):
        requests = [RemoteRequest(RemoteOp.READ, 0, 1, 0, 64 * i) for i in range(5)]
        ids = [request.request_id for request in requests]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert [request.make_response().request_id for request in requests] == ids

    def test_invalid_unroll_indices_rejected(self):
        with pytest.raises(ProtocolError):
            RemoteRequest(RemoteOp.READ, 0, 1, 0, 0, block_index=2, total_blocks=2)
        with pytest.raises(ProtocolError):
            RemoteRequest(RemoteOp.READ, 0, 1, 0, offset=-1)


class TestContexts:
    def test_translate_within_bounds(self):
        ctx = RemoteContext(ctx_id=0, node_id=0, base_addr=0x4000, size_bytes=4096)
        assert ctx.translate(128) == 0x4000 + 128
        assert ctx.contains(4032, 64)
        assert not ctx.contains(4096, 1)

    def test_translate_out_of_bounds_rejected(self):
        ctx = RemoteContext(0, 0, 0x4000, 4096)
        with pytest.raises(ProtocolError):
            ctx.translate(5000)

    def test_registry_register_and_validate(self):
        registry = ContextRegistry(node_id=0)
        registry.register(1, base_addr=0x1000, size_bytes=1 << 20)
        ctx = registry.validate(1, offset=512, length=64)
        assert ctx.ctx_id == 1
        assert len(registry) == 1

    def test_registry_rejects_duplicates_and_unknown(self):
        registry = ContextRegistry(0)
        registry.register(1, 0, 4096)
        with pytest.raises(ProtocolError):
            registry.register(1, 0, 4096)
        with pytest.raises(ProtocolError):
            registry.lookup(2)
        with pytest.raises(ProtocolError):
            registry.validate(1, offset=4090, length=64)

    def test_invalid_context_parameters(self):
        with pytest.raises(ProtocolError):
            RemoteContext(0, 0, 0, 0)


class TestUnrolling:
    def test_block_count_rounds_up(self):
        assert block_count(64) == 1
        assert block_count(65) == 2
        assert block_count(8192) == 128
        with pytest.raises(ProtocolError):
            block_count(0)

    def test_unroll_produces_one_request_per_block(self):
        entry = WorkQueueEntry(RemoteOp.READ, ctx_id=2, dst_node=4,
                               remote_offset=256, local_buffer=0, length=256)
        requests = unroll_blocks(entry, src_node=0, transfer_id=9)
        assert len(requests) == 4
        assert [r.offset for r in requests] == [256, 320, 384, 448]
        assert all(r.transfer_id == 9 for r in requests)
        assert all(r.total_blocks == 4 for r in requests)
        assert [r.block_index for r in requests] == [0, 1, 2, 3]
        assert all(r.dst_node == 4 and r.ctx_id == 2 for r in requests)

    def test_unroll_preserves_operation(self):
        entry = WorkQueueEntry(RemoteOp.WRITE, 0, 1, 0, 0, length=128)
        requests = unroll_blocks(entry, src_node=0, transfer_id=0)
        assert all(r.op is RemoteOp.WRITE for r in requests)
