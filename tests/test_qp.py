"""Tests for the queue-pair layer."""

import pytest

from repro.errors import QueueError
from repro.qp.entries import CompletionQueueEntry, RemoteOp, WorkQueueEntry
from repro.qp.manager import QPManager
from repro.qp.queues import CompletionQueue, WorkQueue


def read_entry(length=64, offset=0):
    return WorkQueueEntry(op=RemoteOp.READ, ctx_id=0, dst_node=1,
                          remote_offset=offset, local_buffer=0x1000, length=length)


class TestEntries:
    def test_invalid_entries_rejected(self):
        with pytest.raises(QueueError):
            WorkQueueEntry(RemoteOp.READ, 0, 1, 0, 0, length=0)
        with pytest.raises(QueueError):
            WorkQueueEntry(RemoteOp.READ, 0, -1, 0, 0, length=64)
        with pytest.raises(QueueError):
            CompletionQueueEntry(wq_index=-1)


class TestWorkQueue:
    def test_post_and_pop_fifo(self):
        wq = WorkQueue(4, base_addr=0)
        indices = [wq.post(read_entry(offset=i * 64)) for i in range(3)]
        assert indices == [0, 1, 2]
        assert wq.count == 3
        assert wq.pop().remote_offset == 0
        assert wq.count == 2

    def test_full_queue_raises(self):
        wq = WorkQueue(2, base_addr=0)
        wq.post(read_entry())
        wq.post(read_entry())
        assert wq.is_full()
        with pytest.raises(QueueError):
            wq.post(read_entry())
        assert wq.full_stalls == 1

    def test_empty_queue_raises(self):
        wq = WorkQueue(2, base_addr=0)
        assert wq.peek() is None
        with pytest.raises(QueueError):
            wq.pop()

    def test_wraparound(self):
        wq = WorkQueue(2, base_addr=0)
        for round_ in range(3):
            wq.post(read_entry(offset=round_ * 64))
            assert wq.pop().remote_offset == round_ * 64

    def test_entry_block_addresses_pack_two_entries_per_block(self):
        wq = WorkQueue(8, base_addr=0x1000)
        assert wq.entries_per_block == 2
        assert wq.entry_block_address(0) == wq.entry_block_address(1)
        assert wq.entry_block_address(2) == 0x1040
        assert wq.footprint_blocks() == 4

    def test_head_and_tail_block_addresses(self):
        wq = WorkQueue(4, base_addr=0x1000)
        assert wq.head_block_address() == 0x1000
        wq.post(read_entry())
        wq.post(read_entry())
        assert wq.tail_block_address() == 0x1040

    def test_misaligned_base_rejected(self):
        with pytest.raises(QueueError):
            WorkQueue(4, base_addr=10)

    def test_out_of_range_index_rejected(self):
        wq = WorkQueue(4, base_addr=0)
        with pytest.raises(QueueError):
            wq.entry_address(4)

    @pytest.mark.parametrize("index", [-1, 4, 100])
    def test_out_of_range_block_index_rejected(self, index):
        wq = WorkQueue(4, base_addr=0x1000)
        with pytest.raises(QueueError, match=r"^WQ@0x1000 index %d out of range$" % index):
            wq.entry_block_address(index)
        cq = CompletionQueue(4, base_addr=0x2000)
        with pytest.raises(QueueError, match="out of range"):
            cq.entry_block_address(index)

    def test_block_address_is_the_entry_address_aligned(self):
        for queue in (WorkQueue(16, base_addr=0x1000), CompletionQueue(16, base_addr=0x2000)):
            for index in range(queue.capacity):
                address = queue.entry_address(index)
                assert queue.entry_block_address(index) == address - address % 64


class TestCompletionQueue:
    def test_post_sets_no_index_on_entry(self):
        cq = CompletionQueue(4, base_addr=0x2000)
        index = cq.post(CompletionQueueEntry(wq_index=3))
        assert index == 0
        assert cq.pop().wq_index == 3


class TestQPManager:
    def test_create_allocates_disjoint_block_ranges(self):
        manager = QPManager(wq_entries=8, cq_entries=8)
        qp0 = manager.create(owner_core=0)
        qp1 = manager.create(owner_core=1)
        blocks0 = set(qp0.qp_blocks())
        blocks1 = set(qp1.qp_blocks())
        assert blocks0.isdisjoint(blocks1)
        assert len(manager) == 2

    def test_duplicate_core_rejected(self):
        manager = QPManager()
        manager.create(owner_core=0)
        with pytest.raises(QueueError):
            manager.create(owner_core=0)

    def test_lookup_by_core_and_id(self):
        manager = QPManager()
        qp = manager.create(owner_core=5, servicing_ni="ni[0]")
        assert manager.for_core(5) is qp
        assert manager.get(qp.qp_id) is qp
        assert qp.servicing_ni == "ni[0]"
        with pytest.raises(QueueError):
            manager.for_core(6)
        with pytest.raises(QueueError):
            manager.get(999)

    def test_all_pairs_ordered(self):
        manager = QPManager()
        for core in (3, 1, 2):
            manager.create(owner_core=core)
        assert [qp.qp_id for qp in manager.all_pairs()] == [0, 1, 2]
