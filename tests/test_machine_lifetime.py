"""A finished machine dies by reference counting, and a closed one keeps its counters.

Whoever builds a :class:`ManycoreSoc` closes it when its run returns
(:meth:`ManycoreSoc.close`), which cuts the machine's internal reference
cycles.  Each census below runs one driver with the cyclic collector off and
requires that nothing is left for a collection to find.  A loaded machine's
event backlog holds no bound methods: continuations are plain functions with
their owner as an argument (lint rule REP011 is the static half).
"""

import gc
import types

import pytest

from helpers import cyclic_garbage, small_config

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.load.driver import OpenLoopDriver
from repro.node.soc import ManycoreSoc
from repro.numa.machine import NumaMachine
from repro.scenario.builder import MachineBuilder
from repro.scenario.spec import ScenarioSpec
from repro.workloads.microbench import (
    RemoteReadBandwidthBenchmark,
    RemoteReadLatencyBenchmark,
    UniformRandomReadWorkload,
)

PAPER = SystemConfig.paper_defaults()
RW_MIX = ScenarioSpec(design="split", workload="rw_mix")


def latency_run():
    RemoteReadLatencyBenchmark(PAPER.with_design("split"), iterations=2, warmup=1).run(1024)


def bandwidth_run(design, size):
    bench = RemoteReadBandwidthBenchmark(PAPER.with_design(design),
                                         warmup_cycles=300, measure_cycles=600)
    return lambda: bench.run(size)


def open_loop_cell():
    OpenLoopDriver.from_spec(RW_MIX, 20.0, warmup_cycles=1000, measure_cycles=3000).run()


def chaos_cell():
    result = OpenLoopDriver.from_spec(
        RW_MIX, 20.0, warmup_cycles=1000, measure_cycles=3000, faults="router_degrade",
        fault_params={"intensity": 0.5, "cascade": "slow_node", "cascade_probability": 1.0,
                      "cascade_delay_cycles": 150, "blast_decay": 0.6},
    ).run()
    assert result.fault_profile["cascade"]["triggered"] > 0


def scenario_run():
    MachineBuilder(ScenarioSpec(design="split", workload="hotspot",
                                workload_params={"active_cores": 2, "ops_per_core": 4})).run()


def numa_read():
    NumaMachine(PAPER).simulate_remote_read_cycles()


class TestMachineCensus:
    @pytest.mark.parametrize("run", [
        pytest.param(latency_run, id="latency"),
        pytest.param(bandwidth_run("edge", 64), id="bandwidth-edge-64B"),
        pytest.param(bandwidth_run("split", 4096), id="bandwidth-split-4096B"),
        pytest.param(open_loop_cell, id="open-loop-rw_mix"),
        pytest.param(chaos_cell, id="chaos-router_degrade-slow_node-cascade"),
        pytest.param(scenario_run, id="machine-builder"),
        pytest.param(numa_read, id="numa"),
    ])
    def test_run_leaves_no_cyclic_garbage(self, run):
        assert cyclic_garbage(run) == 0


def stopped_machine():
    """A 16-core NIsplit machine stopped mid-run, with events still pending."""
    soc = ManycoreSoc(small_config("split"))
    workload = UniformRandomReadWorkload(soc.config, transfer_bytes=1024)
    workload.setup(soc)
    cores = workload.driven_cores
    for core in cores:
        core.start(workload.request_stream(core.core_id), max_outstanding=4)
    soc.run(until=1500)
    soc.fabric.reset_stats()
    soc.run(until=3000)
    return soc, cores


def counters(soc, cores):
    """Every counter perfbench's ``read_counts`` and the benchmark drivers read."""
    fabric = soc.fabric
    ni = soc.ni
    return {
        "fabric": (fabric.packets_sent, fabric.wire_bytes_sent, fabric.fused_hops,
                   fabric.max_link_utilization()),
        "channels": {key: (channel.grants, channel.busy_cycles)
                     for key, channel in fabric._channels.items()},
        "ni": (ni.total_blocks_completed(), ni.total_payload_bytes_completed(),
               ni.total_rrpp_payload_bytes(), ni.average_rrpp_latency(),
               sum(backend.blocks_injected for backend in ni.backends),
               sum(rrpp.requests_received for rrpp in ni.rrpps),
               sum(frontend.doorbells for frontend in ni.frontends.values())),
        "transfers": (ni.transfers.created, ni.transfers.retired, ni.transfers.in_flight),
        "qp": [(queue.posts, queue.pops, queue.full_stalls)
               for pair in soc.qp_manager.all_pairs() for queue in (pair.wq, pair.cq)],
        "coherence": (soc.coherence.local_hits, soc.coherence.remote_transactions,
                      soc.coherence.invalidations_sent, soc.coherence.forwards_sent),
        "memory": [(mc.requests, mc.dram.reads, mc.dram.writes)
                   for mc in soc.memory_controllers],
        "llc": soc.llc_bank_utilization(),
        "offchip": (soc.offchip_request_bytes, soc.offchip_response_bytes),
        "sim": (soc.sim.now, soc.sim.pending_events, soc.sim.events_executed),
        "cores": [(core.issued_ops, core.completed_ops, core.completed_bytes)
                  for core in cores],
    }


class TestClosedMachine:
    def test_counters_keep_their_values(self):
        soc, cores = stopped_machine()
        before = counters(soc, cores)
        assert soc.sim.pending_events > 0 and soc.ni.transfers.in_flight > 0
        assert before["fabric"][0] > 0 and before["ni"][0] > 0
        soc.close()
        assert counters(soc, cores) == before

    def test_close_twice_is_a_no_op(self):
        soc, cores = stopped_machine()
        soc.close()
        after_first = counters(soc, cores)
        soc.close()
        assert counters(soc, cores) == after_first

    def test_run_after_close_raises(self):
        soc, _ = stopped_machine()
        now = soc.sim.now
        soc.close()
        with pytest.raises(SimulationError, match="closed"):
            soc.run()
        with pytest.raises(SimulationError, match="closed"):
            soc.run(until=now + 100)
        assert soc.sim.now == now

    def test_dropped_closed_machine_leaves_no_cyclic_garbage(self):
        def build_stop_close():
            soc, _ = stopped_machine()
            soc.close()
        assert cyclic_garbage(build_stop_close) == 0

    def test_caller_built_machine_stays_open(self):
        spec = ScenarioSpec(design="split", workload="uniform_random",
                            workload_params={"active_cores": 2, "ops_per_core": 2})
        scenario = MachineBuilder(spec, base_config=small_config()).build()
        scenario.run()
        scenario.machine.run()  # still open: Scenario.run leaves closing to the caller
        scenario.machine.close()


def bound_methods() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is types.MethodType)


class TestEventBacklog:
    def test_fig7_backlog_holds_no_bound_methods(self):
        """The NIsplit 4 KiB Fig. 7 point's backlog at cycle 1,000: each
        queued event costs its argument tuple, not a bound method too."""
        before = bound_methods()
        soc = ManycoreSoc(PAPER.with_design("split"))
        try:
            outstanding = RemoteReadBandwidthBenchmark(soc.config).max_outstanding_for(4096)
            workload = UniformRandomReadWorkload(soc.config, transfer_bytes=4096,
                                                 max_outstanding=outstanding)
            workload.setup(soc)
            for core in workload.driven_cores:
                core.start(workload.request_stream(core.core_id), max_outstanding=outstanding)
            soc.run(until=1000)
            assert soc.sim.pending_events > 20_000
            assert bound_methods() - before < 200
        finally:
            soc.close()
