"""Tests for the DRAM, memory-controller and address-map models."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.memory.dram import DramModel
from repro.sim.engine import Simulator


class TestDram:
    def test_fixed_latency_plus_serialization(self):
        sim = Simulator()
        dram = DramModel(sim, latency_cycles=100, bandwidth_bytes_per_cycle=64)
        done = []
        dram.access(64, is_write=False, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [101.0]

    def test_bandwidth_serializes_consecutive_accesses(self):
        sim = Simulator()
        dram = DramModel(sim, latency_cycles=100, bandwidth_bytes_per_cycle=8)
        done = []
        dram.access(64, False, lambda: done.append(sim.now))
        dram.access(64, False, lambda: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(108.0)
        assert done[1] == pytest.approx(116.0)

    def test_read_write_counters(self):
        sim = Simulator()
        dram = DramModel(sim, 100, 64)
        dram.access(64, False)
        dram.access(128, True)
        assert dram.reads == 1 and dram.writes == 1
        assert dram.bytes_read == 64 and dram.bytes_written == 128
        assert dram.accesses == 2

    def test_finish_is_grant_plus_occupancy_plus_latency_to_the_bit(self):
        # A bandwidth whose occupancies are inexact floats: any other
        # association of the sum would show in the last bits.
        bandwidth = 32 / 3
        sim = Simulator()
        dram = DramModel(sim, latency_cycles=100, bandwidth_bytes_per_cycle=bandwidth)
        finished = []
        expected = []
        for burst_at, burst in ((0.0, [(64, False), (64, True), (100, False)]),
                                (517.25, [(7, True), (4096, False)])):
            sim.run(until=burst_at)
            for nbytes, is_write in burst:
                grant = max(sim.now, dram.channel.free_at)
                finish = dram.access(nbytes, is_write,
                                     lambda: finished.append(sim.now))
                assert finish == grant + nbytes / bandwidth + 100
                assert finish == grant + dram.channel.serialization_cycles(nbytes) + 100
                expected.append(sim.now + (finish - sim.now))
        sim.run()
        assert finished == expected
        assert (dram.reads, dram.writes) == (3, 2)
        assert (dram.bytes_read, dram.bytes_written) == (64 + 100 + 4096, 64 + 7)
        assert dram.channel.grants == 5

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            DramModel(sim, -1, 64)
        with pytest.raises(ConfigurationError):
            DramModel(sim, 100, 0)
        with pytest.raises(ConfigurationError):
            DramModel(sim, 100, 64).access(0, False)


class TestMemoryController:
    def test_service_completes_after_dram_latency(self):
        sim = Simulator()
        mc = MemoryController(sim, 0, (7, 0), DramModel(sim, 100, 64))
        done = []
        mc.service(64, is_write=False, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done and done[0] >= 100
        assert mc.requests == 1

    def test_scheduler_serializes_requests(self):
        sim = Simulator()
        mc = MemoryController(sim, 0, (7, 0), DramModel(sim, 10, 64))
        done = []
        for _ in range(3):
            mc.service(64, False, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 3
        assert done == sorted(done)
        assert mc.utilization() > 0.0

    def test_negative_index_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            MemoryController(sim, -1, (7, 0), DramModel(sim, 10, 64))


class TestAddressMap:
    def test_block_alignment(self):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        assert amap.block_address(130) == 128
        assert amap.block_index(130) == 2

    def test_home_slice_interleaving(self):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        assert amap.home_llc_slice(0) == 0
        assert amap.home_llc_slice(64) == 1
        assert amap.home_llc_slice(64 * 64) == 0

    def test_rrpp_is_row_aligned_with_home_slice(self):
        """§4.3: the RRPP serving an offset sits on the home slice's mesh row."""
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        for block in range(256):
            offset = block * 64
            home_row = amap.home_llc_slice(offset) // 8
            assert amap.rrpp_for_offset(offset) == home_row

    def test_mc_interleave_is_block_granular(self):
        """Channels interleave at block granularity and cycle over all MCs."""
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        seen = {amap.mc_for_addr(block * 64) for block in range(64)}
        assert seen == set(range(8))
        assert amap.mc_for_addr(0) == 0
        assert amap.mc_for_addr(9 * 64) == 1

    def test_blocks_in_covers_the_range(self):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        blocks = list(amap.blocks_in(100, 200))
        assert blocks[0] == 64
        assert blocks[-1] == 256
        assert all(b % 64 == 0 for b in blocks)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap(llc_slices=0, memory_controllers=8, rrpps=8)
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        with pytest.raises(ConfigurationError):
            amap.block_index(-1)
        with pytest.raises(ConfigurationError):
            list(amap.blocks_in(0, 0))
