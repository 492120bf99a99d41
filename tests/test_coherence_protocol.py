"""Tests for the MESI directory protocol choreography (Fig. 2)."""

import pytest

from repro.coherence.caches import L1Cache, NICache, TileCacheComplex
from repro.coherence.directory import NO_SHARERS, DirectoryController
from repro.coherence.messages import (
    CONTROL_PAYLOAD_BYTES,
    CoherenceMessageType,
    message_class,
)
from repro.coherence.protocol import CoherenceProtocol
from repro.coherence.states import CacheState
from repro.config import CACHE_BLOCK_BYTES, MessageClass, NocConfig
from repro.errors import CoherenceError
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.sim.engine import Simulator

SIDE = 4


class Harness:
    """A small chip with a mesh NOC, a directory and a few cache complexes."""

    def __init__(self, owned_state: bool = True):
        self.sim = Simulator()
        self.topology = MeshTopology(SIDE, NocConfig())
        self.fabric = NocFabric(self.sim, self.topology, NocConfig())
        self.directory = DirectoryController(home_tile_count=SIDE * SIDE)
        self.protocol = CoherenceProtocol(
            sim=self.sim,
            fabric=self.fabric,
            directory=self.directory,
            home_nodes=[self.topology.tile_coord(tile) for tile in range(SIDE * SIDE)],
            llc_latency_cycles=6,
        )
        # A core tile with a collocated NI cache, a plain core tile, and an
        # edge NI cache (its own coherence agent), as in the studied designs.
        self.core0 = TileCacheComplex(("tile", 0), self.topology.tile_coord(5),
                                      l1=L1Cache(0), ni_cache=NICache("ni0", owned_state_enabled=owned_state))
        self.core1 = TileCacheComplex(("tile", 1), self.topology.tile_coord(10), l1=L1Cache(1))
        self.edge_ni = TileCacheComplex(("ni_edge", 0), (0, 1), ni_cache=NICache("edge_ni"))
        for complex_ in (self.core0, self.core1, self.edge_ni):
            self.protocol.register_complex(complex_)

    def access(self, complex_, kind, addr, write):
        """Run one access to completion and return its AccessResult."""
        results = []
        self.protocol.access(complex_.entity_id, kind, addr, write, results.append)
        self.sim.run()
        assert len(results) == 1, "access did not complete exactly once"
        return results[0]


BLOCK = 64 * 7  # home tile 7


class TestBasicTransactions:
    def test_read_miss_served_from_llc(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        result = h.access(h.core0, "core", BLOCK, write=False)
        assert not result.served_locally
        assert result.latency > 0
        assert h.core0.state(BLOCK) is CacheState.SHARED
        assert h.directory.entry(BLOCK).sharers == {("tile", 0)}

    def test_read_miss_without_llc_copy_fetches_memory(self):
        h = Harness()
        result = h.access(h.core0, "core", BLOCK, write=False)
        assert h.directory.memory_fetches == 1
        # The fallback memory latency (100 cycles) must show up in the latency.
        assert result.latency > 100

    def test_write_miss_gets_modified_state(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        result = h.access(h.core0, "core", BLOCK, write=True)
        assert h.core0.state(BLOCK) is CacheState.MODIFIED
        assert h.directory.entry(BLOCK).owner == ("tile", 0)
        assert not result.served_locally

    def test_local_hit_after_install(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        h.access(h.core0, "core", BLOCK, write=True)
        result = h.access(h.core0, "core", BLOCK, write=True)
        assert result.served_locally
        assert result.latency == pytest.approx(3)  # L1 hit

    def test_unknown_entity_rejected(self):
        h = Harness()
        with pytest.raises(CoherenceError):
            h.protocol.access("nobody", "core", BLOCK, True, lambda r: None)

    def test_duplicate_registration_rejected(self):
        h = Harness()
        with pytest.raises(CoherenceError):
            h.protocol.register_complex(h.core0)


class TestInvalidationPath:
    """Fig. 2a: a core writing a WQ block that an edge NI cache polls on."""

    def test_write_invalidates_remote_sharer(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        entry = h.directory.entry(BLOCK)
        entry.record_shared({h.edge_ni.entity_id})
        h.edge_ni.install(BLOCK, CacheState.SHARED, into="ni")
        result = h.access(h.core0, "core", BLOCK, write=True)
        assert h.edge_ni.state(BLOCK) is CacheState.INVALID
        assert h.core0.state(BLOCK) is CacheState.MODIFIED
        assert h.protocol.invalidations_sent == 1
        assert entry.owner == ("tile", 0)
        assert result.latency > 20  # multiple NOC crossings

    def test_invalidation_cost_exceeds_plain_miss(self):
        """Invalidating the polling NI makes the write slower than an unshared write."""
        shared = Harness()
        shared.protocol.prewarm(BLOCK)
        shared.directory.entry(BLOCK).record_shared({shared.edge_ni.entity_id})
        shared.edge_ni.install(BLOCK, CacheState.SHARED, into="ni")
        with_sharer = shared.access(shared.core0, "core", BLOCK, write=True).latency

        unshared = Harness()
        unshared.protocol.prewarm(BLOCK)
        without_sharer = unshared.access(unshared.core0, "core", BLOCK, write=True).latency
        assert with_sharer > without_sharer


class TestForwardingPath:
    """Fig. 2b: the NI reading a WQ block that is modified in the core's L1."""

    def test_read_forwarded_from_modified_owner(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        h.access(h.core1, "core", BLOCK, write=True)  # core1 now owns the block
        result = h.access(h.edge_ni, "ni", BLOCK, write=False)
        assert h.protocol.forwards_sent == 1
        assert h.core1.state(BLOCK) is CacheState.SHARED
        assert h.edge_ni.state(BLOCK) is CacheState.SHARED
        assert h.directory.entry(BLOCK).in_llc is True
        assert result.latency > 20

    def test_write_forward_invalidates_previous_owner(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        h.access(h.core1, "core", BLOCK, write=True)
        h.access(h.core0, "core", BLOCK, write=True)
        assert h.core1.state(BLOCK) is CacheState.INVALID
        assert h.core0.state(BLOCK) is CacheState.MODIFIED
        assert h.directory.entry(BLOCK).owner == ("tile", 0)


class TestBlockingDirectory:
    def test_concurrent_accesses_to_one_block_serialize(self):
        h = Harness()
        h.protocol.prewarm(BLOCK)
        results = []
        h.protocol.access(h.core0.entity_id, "core", BLOCK, True, results.append)
        h.protocol.access(h.core1.entity_id, "core", BLOCK, True, results.append)
        h.sim.run()
        assert len(results) == 2
        assert h.directory.transactions_queued == 1
        # Whoever finished last owns the block.
        last = max(results, key=lambda r: r.complete_time)
        first = min(results, key=lambda r: r.complete_time)
        assert last.complete_time > first.complete_time
        assert h.directory.entry(BLOCK).owner is not None


class TestDirectoryEntryStorage:
    def test_unshared_entries_share_one_empty_set_until_a_sharer_joins(self):
        directory = DirectoryController(home_tile_count=4)
        first, second = directory.entry(0), directory.entry(64)
        first.record_exclusive(("tile", 0))
        assert first.sharers is NO_SHARERS and second.sharers is NO_SHARERS
        assert first.pending is None
        second.add_sharer(("tile", 1))
        second.add_sharer(("tile", 2))
        assert second.sharers == {("tile", 1), ("tile", 2)}
        assert first.sharers is NO_SHARERS and not NO_SHARERS
        first.queue("txn-a")
        first.queue("txn-b")
        assert first.pending == ["txn-a", "txn-b"] and second.pending is None


class TestOwnedStateWritebackPath:
    def test_disabled_owned_state_costs_an_llc_roundtrip(self):
        fast = Harness(owned_state=True)
        fast.protocol.prewarm(BLOCK)
        fast.access(fast.core0, "ni", BLOCK, write=True)        # NI cache holds the block dirty
        fast_read = fast.access(fast.core0, "core", BLOCK, write=False)

        slow = Harness(owned_state=False)
        slow.protocol.prewarm(BLOCK)
        slow.access(slow.core0, "ni", BLOCK, write=True)
        slow_read = slow.access(slow.core0, "core", BLOCK, write=False)

        assert fast_read.served_locally and slow_read.served_locally
        assert slow_read.latency > fast_read.latency
        assert slow.protocol.local_writeback_roundtrips == 1
        assert slow.directory.entry(BLOCK).in_llc is True


class TestMessageTypes:
    def test_payloads_are_per_member_constants(self):
        data = {CoherenceMessageType.MISS_NOTIFY_DATA, CoherenceMessageType.DATA_REPLY,
                CoherenceMessageType.WRITEBACK}
        for msg_type in CoherenceMessageType:
            assert msg_type.carries_data is (msg_type in data)
            assert msg_type.payload_bytes == (
                CACHE_BLOCK_BYTES if msg_type in data else CONTROL_PAYLOAD_BYTES)
            assert hash(msg_type) == object.__hash__(msg_type)

    def test_message_classes(self):
        types = CoherenceMessageType
        assert message_class(types.GET_EXCLUSIVE, False) is MessageClass.COHERENCE_REQUEST
        assert message_class(types.INV_ACK, False) is MessageClass.COHERENCE_RESPONSE
        assert message_class(types.FWD_GET, False) is MessageClass.DIRECTORY_SOURCED
        assert message_class(types.UNBLOCK, True) is MessageClass.DIRECTORY_SOURCED
