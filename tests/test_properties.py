"""Property-based tests (hypothesis) for core data structures and invariants."""

import heapq
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MessageClass, NocConfig, RoutingAlgorithm
from repro.errors import ConfigurationError
from repro.core.assembly import BaseNIDesign
from repro.fabric.torus import Torus3D
from repro.memory.address import AddressMap
from repro.noc.mesh import MeshTopology
from repro.noc.routing import manhattan_distance, mesh_route
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.qp.queues import WorkQueue
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.sim.stats import StatAccumulator
from repro.sonuma.unroll import block_count, unroll_blocks

coords = st.tuples(st.integers(0, 7), st.integers(0, 7))
policies = st.sampled_from(list(RoutingAlgorithm))
classes = st.sampled_from(list(MessageClass))


class TestRoutingProperties:
    @given(policies, coords, coords, classes, st.integers(0, 1000))
    @settings(max_examples=150)
    def test_routes_are_minimal_and_connected(self, policy, src, dst, msg_class, packet_id):
        path = mesh_route(policy, src, dst, msg_class, packet_id)
        assert path[0] == src and path[-1] == dst
        assert len(path) == manhattan_distance(src, dst) + 1
        for a, b in zip(path, path[1:]):
            assert manhattan_distance(a, b) == 1

    @given(coords, coords, classes)
    def test_mesh_topology_route_matches_hop_count(self, src, dst, msg_class):
        mesh = MeshTopology(8, NocConfig())
        links = mesh.route(src, dst, msg_class)
        assert len(links) == mesh.hop_count(src, dst)


class TestTorusProperties:
    @given(st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=150)
    def test_distance_is_a_metric(self, a, b):
        torus = Torus3D((8, 8, 8))
        d = torus.hop_count(a, b)
        assert d == torus.hop_count(b, a)
        assert (d == 0) == (a == b)
        assert d <= torus.max_hop_count()

    @given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=75)
    def test_triangle_inequality(self, a, b, c):
        torus = Torus3D((8, 8, 8))
        assert torus.hop_count(a, c) <= torus.hop_count(a, b) + torus.hop_count(b, c)

    @given(st.integers(0, 511))
    def test_coordinate_round_trip(self, node):
        torus = Torus3D((8, 8, 8))
        assert torus.node_id(torus.coord(node)) == node


class TestAddressMapProperties:
    @given(st.integers(0, 2 ** 40))
    @settings(max_examples=150)
    def test_block_alignment_and_ranges(self, addr):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        block = amap.block_address(addr)
        assert block % 64 == 0
        assert block <= addr < block + 64
        assert 0 <= amap.home_llc_slice(addr) < 64
        assert 0 <= amap.memory_controller(addr) < 8
        assert 0 <= amap.rrpp_for_offset(addr) < 8

    @given(st.integers(0, 2 ** 40), st.integers(1, 128), st.integers(1, 16),
           st.integers(1, 4096))
    @settings(max_examples=200)
    def test_one_decode_equals_the_single_field_helpers(self, addr, slices, controllers,
                                                        block_bytes):
        amap = AddressMap(llc_slices=slices, memory_controllers=controllers, rrpps=1,
                          block_bytes=block_bytes)
        assert amap.home_and_controller(addr) == (amap.home_llc_slice(addr),
                                                  amap.mc_for_addr(addr))

    @given(st.integers(max_value=-1), st.integers(1, 128), st.integers(1, 16))
    @settings(max_examples=50)
    def test_one_decode_rejects_negative_addresses(self, addr, slices, controllers):
        amap = AddressMap(llc_slices=slices, memory_controllers=controllers, rrpps=1)
        with pytest.raises(ConfigurationError, match="addresses cannot be negative"):
            amap.home_and_controller(addr)

    @given(st.integers(0, 2 ** 30), st.integers(1, 1 << 16))
    @settings(max_examples=100)
    def test_blocks_in_cover_exactly_the_requested_range(self, offset, length):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        blocks = list(amap.blocks_in(offset, length))
        assert blocks[0] <= offset
        assert blocks[-1] + 64 >= offset + length
        assert blocks == sorted(set(blocks))
        assert all(b2 - b1 == 64 for b1, b2 in zip(blocks, blocks[1:]))


class TestUnrollProperties:
    @given(st.integers(1, 1 << 16), st.integers(0, 2 ** 20))
    @settings(max_examples=150)
    def test_unroll_covers_the_transfer_exactly_once(self, length, offset_blocks):
        offset = offset_blocks * 64
        entry = WorkQueueEntry(RemoteOp.READ, 0, 1, offset, 0, length)
        requests = unroll_blocks(entry, src_node=0, transfer_id=1)
        assert len(requests) == block_count(length)
        offsets = [r.offset for r in requests]
        assert offsets == sorted(offsets)
        assert offsets[0] == offset
        assert all(b - a == 64 for a, b in zip(offsets, offsets[1:]))
        assert all(r.total_blocks == len(requests) for r in requests)
        assert [r.block_index for r in requests] == list(range(len(requests)))


class TestQueueProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_work_queue_is_fifo_under_any_interleaving(self, offsets):
        wq = WorkQueue(capacity=16, base_addr=0)
        posted = []
        popped = []
        for offset in offsets:
            if wq.is_full():
                popped.append(wq.pop().remote_offset)
            entry = WorkQueueEntry(RemoteOp.READ, 0, 1, offset * 64, 0, 64)
            wq.post(entry)
            posted.append(offset * 64)
        while not wq.is_empty():
            popped.append(wq.pop().remote_offset)
        assert popped == posted
        assert wq.posts == len(posted) and wq.pops == len(popped)

    @given(st.integers(1, 256), st.integers(0, 255))
    def test_entry_block_addresses_are_block_aligned_and_ordered(self, capacity, index):
        wq = WorkQueue(capacity=capacity, base_addr=0x10000)
        index = index % capacity
        addr = wq.entry_block_address(index)
        assert addr % 64 == 0
        assert 0x10000 <= addr < 0x10000 + capacity * 32 + 64


class TestStatProperties:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_accumulator_matches_reference_mean_and_bounds(self, values):
        acc = StatAccumulator()
        for value in values:
            acc.add(value)
        assert acc.count == len(values)
        assert acc.minimum == min(values)
        assert acc.maximum == max(values)
        assert abs(acc.mean - sum(values) / len(values)) < 1e-6 * max(1.0, abs(sum(values)))
        assert acc.variance >= -1e-9

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=100),
           st.integers(1, 99))
    @settings(max_examples=100)
    def test_merge_is_equivalent_to_sequential_adds(self, values, split_point):
        split_point = split_point % (len(values) - 1) + 1
        reference = StatAccumulator()
        for value in values:
            reference.add(value)
        left, right = StatAccumulator(), StatAccumulator()
        for value in values[:split_point]:
            left.add(value)
        for value in values[split_point:]:
            right.add(value)
        left.merge(right)
        assert left.count == reference.count
        assert abs(left.mean - reference.mean) < 1e-6 * max(1.0, abs(reference.mean))


#: One grant request: (cycles the clock advances first, occupancy, earliest
#: relative to the clock or None).  Half-cycle steps keep the arithmetic exact.
grant_requests = st.tuples(
    st.integers(0, 12).map(lambda n: n / 2),
    st.integers(0, 16).map(lambda n: n / 2),
    st.none() | st.integers(-10, 60).map(lambda n: n / 2),
)


#: Service latencies of each RRPP, for zero to eight RRPPs.
rrpp_samples = st.lists(st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    max_size=6), max_size=8)


def two_sum_average(rrpps):
    """The remote-service average as two generator sums: the reference the
    one-pass loop must match bit for bit."""
    samples = [rrpp.service_latency for rrpp in rrpps if rrpp.service_latency.count]
    if not samples:
        return 0.0
    total = sum(acc.total for acc in samples)
    count = sum(acc.count for acc in samples)
    return total / count


class TestRrppAverageProperties:
    @given(rrpp_samples)
    @example([])
    @example([[], [], []])
    @example([[], [208.5, 0.1], []])
    @example([[0.1, 0.2], [1e9, 0.3], [], [1e-9]])
    @settings(max_examples=200)
    def test_one_pass_average_is_the_two_sums_bit_for_bit(self, per_rrpp):
        rrpps = []
        for values in per_rrpp:
            accumulator = StatAccumulator()
            for value in values:
                accumulator.add(value)
            rrpps.append(SimpleNamespace(service_latency=accumulator))
        average = BaseNIDesign.average_rrpp_latency(SimpleNamespace(rrpps=rrpps))
        assert average.hex() == two_sum_average(rrpps).hex()


class TestResourceProperties:
    @given(st.lists(grant_requests, max_size=40), st.integers(0, 80).map(lambda n: n / 2))
    @settings(max_examples=300)
    def test_in_flight_busy_cycles_is_every_grants_overlap_after_the_reset(
            self, requests, reset_after):
        sim = Simulator()
        resource = Resource(sim, "r")
        grants = []
        for advance, occupancy, earliest in requests:
            sim.run(until=sim.now + advance)
            if earliest is not None:
                earliest += sim.now
            start = resource.acquire(occupancy, earliest=earliest)
            grants.append((start, start + occupancy))
        reset_at = sim.now + reset_after
        sim.run(until=reset_at)
        expected = sum(max(0.0, end - max(start, reset_at)) for start, end in grants)
        assert resource.in_flight_busy_cycles() == expected
        resource.reset_stats()
        assert resource.busy_cycles == expected
        assert resource.grants == 0


class HeapKernel:
    """Reference model: the one-heap-entry-per-event kernel, ordered by (time, seq)."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = itertools.count()
        self.peak_pending_events = 0

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        heapq.heappush(self.queue, (time, next(self.seq), callback, args))
        self.peak_pending_events = max(self.peak_pending_events, len(self.queue))

    @property
    def pending_events(self):
        return len(self.queue)

    def next_event_time(self):
        return self.queue[0][0] if self.queue else None

    def run(self, until=None):
        horizon = float("inf") if until is None else until
        while self.queue:
            if self.queue[0][0] > horizon:
                self.now = max(self.now, until)
                break
            self.now, _seq, callback, args = heapq.heappop(self.queue)
            callback(*args)
        if until is not None and not self.queue and self.now < until:
            self.now = until
        return self.now


#: Delays and absolute-time offsets: zero and repeated values make same-time
#: events common; 0.1/0.2/0.3 make float sums that only nearly tie.
event_offsets = st.sampled_from([0, 0, 0.5, 1, 1.5, 2, 0.1, 0.2, 0.3])
#: One scheduled event: (relative delay or absolute time, offset, children it
#: schedules when it runs).
event_trees = st.recursive(
    st.tuples(st.sampled_from(["delay", "at"]), event_offsets, st.just(())),
    lambda children: st.tuples(st.sampled_from(["delay", "at"]), event_offsets,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=25,
)
#: One run call: its horizon kind and offset, then the events scheduled after it returns.
run_steps = st.tuples(st.sampled_from([None, "past", "pending", "ahead"]), event_offsets,
                      st.lists(event_trees, max_size=3))


def trace_program(kernel, roots, steps):
    """Run one random program; record the kernel's state at every callback and return."""
    trace = []
    tags = itertools.count()

    def observe(tag):
        trace.append((tag, kernel.now, kernel.pending_events, kernel.next_event_time(),
                      kernel.peak_pending_events))

    def fire(tag, children):
        observe(tag)
        place(children)

    def place(trees):
        for kind, offset, children in trees:
            if kind == "at":
                kernel.schedule_at(kernel.now + offset, fire, next(tags), children)
            else:
                kernel.schedule(offset, fire, next(tags), children)

    place(roots)
    for horizon, offset, later in steps:
        head = kernel.next_event_time()
        if horizon == "past":
            until = kernel.now - 1 - offset
        elif horizon == "pending":
            # Exactly a pending time when offset is 0, else between or past them.
            until = (kernel.now if head is None else head) + offset
        elif horizon == "ahead":
            until = kernel.now + 1 + offset
        else:
            until = None
        returned = kernel.run(until)
        observe(("run", until, returned))
        place(later)
    kernel.run()
    observe("drained")
    return trace


class TestKernelOrderOracle:
    """The time-bucketed kernel matches the (time, seq) heap kernel event for event."""

    @given(st.lists(event_trees, max_size=6), st.lists(run_steps, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_same_order_clock_and_queue_state_as_the_heap_kernel(self, roots, steps):
        expected = trace_program(HeapKernel(), roots, steps)
        sim = Simulator()
        assert trace_program(sim, roots, steps) == expected
        assert sim.events_executed == sum(
            1 for record in expected if isinstance(record[0], int))
