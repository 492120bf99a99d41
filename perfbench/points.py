"""The benchmark's simulation points and the counters read after each one.

Each workload is a list of :class:`Point` objects.  A point has a set-up
call (building machines and drivers) and a work call (one public simulator
entry point), and returns its simulated outputs.  After the work call the
point's layer counters are read from the objects the model exposes.

The paper's benchmark drivers (``RemoteReadBandwidthBenchmark.run``,
``RemoteReadLatencyBenchmark.run``, ``OpenLoopDriver.run``) build their
``ManycoreSoc`` and ``CoreModel`` objects internally.  :class:`Capture` wraps
those constructors and ``create_queue_pair`` while the benchmark runs, so
the counters on those objects can be read afterwards and their build time can
be charged to set-up instead of to the work call.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.config import NIDesign, SystemConfig
from repro.load.driver import OpenLoopDriver
from repro.node.core_model import CoreModel
from repro.node.soc import ManycoreSoc
from repro.numa.machine import NumaMachine
from repro.scenario.spec import ScenarioSpec
from repro.sim import perf
from repro.workloads.microbench import RemoteReadBandwidthBenchmark, RemoteReadLatencyBenchmark

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The seed whose ``rw_open`` outputs are committed in the reference.  The
#: other workloads draw nothing from the seed but their point order.
REFERENCE_SEED = 1

CONFIG = SystemConfig.paper_defaults()

#: Fig. 7 window.  At 3 k + 8 k cycles NIsplit at 4096 B reaches ~253 GBps;
#: longer windows converge towards the paper's 214 GBps but cost seconds.
BW_WARMUP_CYCLES = 3_000.0
BW_MEASURE_CYCLES = 8_000.0
#: Table 3's simulated cross-check settings (one warm-up read, four measured).
LAT_ITERATIONS = 4
LAT_WARMUP = 1
#: ``load_sweep``'s default window; the rw_mix knee sits near 9.5 req/kcycle.
RW_WARMUP_CYCLES = 4_000.0
RW_MEASURE_CYCLES = 20_000.0
RW_LOADS = (5.0, 20.0)

#: Counters that depend on how the simulator executes the model, not on what
#: it models: a pure speed-up may change them, so the reference omits them.
#: They must still repeat exactly from run to run.
EXECUTION_COUNTS = frozenset({
    "sim.events", "sim.fast_events", "sim.peak_pending", "noc.fused_hops", "noc.hop_events",
})
#: Counters aggregated over a round by maximum instead of sum.
MAX_COUNTS = frozenset({"sim.peak_pending", "noc.max_link_util", "memory.llc_util"})


@dataclass
class Point:
    """One simulation point: ``build()`` sets up and returns the work call."""

    name: str
    build: Callable[[], Callable[[], dict]]
    #: Paper value and the output it is compared with (Table 3 / Fig. 7).
    paper: Optional[float] = None
    paper_output: str = ""
    #: "soc" reads its counters from the captured machines.  "open_loop" adds
    #: the ``load`` counters of its OpenLoopResult.  "numa" has no
    #: ManycoreSoc: it is one remote read whose length is its ``cycles`` output.
    kind: str = "soc"


@dataclass
class PointRun:
    """What one execution of a point produced."""

    name: str
    outputs: dict = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    work_s: float = 0.0
    sim_cycles: float = 0.0
    ops: int = 0
    error: Optional[str] = None

    def reference_entry(self) -> dict:
        """The simulated statistics the committed reference pins."""
        model_counts = {key: value for key, value in sorted(self.counts.items())
                        if key not in EXECUTION_COUNTS}
        return {"outputs": self.outputs, "counts": model_counts}


@dataclass
class Workload:
    name: str
    make_points: Callable[[int], List[Point]]
    #: Whether the simulated outputs depend on the seed (beyond point order).
    seed_dependent: bool = False

    def points(self, seed: int) -> List[Point]:
        """The workload's points, in an order drawn from ``seed``."""
        points = self.make_points(seed)
        random.Random(seed).shuffle(points)
        return points


# ----------------------------------------------------------------------
# Capturing the objects the benchmark drivers build
# ----------------------------------------------------------------------
class Capture:
    """Records machines, core models and build time while installed."""

    def __init__(self) -> None:
        self.socs: List[ManycoreSoc] = []
        self.cores: List[CoreModel] = []
        self.build_s = 0.0
        self._saved: list = []

    def __enter__(self) -> "Capture":
        self._wrap(ManycoreSoc, "__init__", timed=True, keep="socs")
        self._wrap(ManycoreSoc, "create_queue_pair", timed=True)
        self._wrap(CoreModel, "__init__", keep="cores")
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []

    def reset(self) -> None:
        self.socs = []
        self.cores = []
        self.build_s = 0.0

    def _wrap(self, cls, name: str, timed: bool = False, keep: Optional[str] = None) -> None:
        original = cls.__dict__[name]
        capture = self

        def wrapper(obj, *args, **kwargs):
            start = perf_counter()
            result = original(obj, *args, **kwargs)
            if timed:
                capture.build_s += perf_counter() - start
            if keep is not None:
                getattr(capture, keep).append(obj)
            return result

        self._saved.append((cls, name, original))
        setattr(cls, name, wrapper)


# ----------------------------------------------------------------------
# Running one point
# ----------------------------------------------------------------------
def run_point(point: Point, capture: Capture, profiler=None) -> PointRun:
    """Set up and run ``point``; read its outputs and counters.

    Build time inside the work call (the drivers build their own machines)
    moves from ``work_s`` to ``setup_s``.  ``profiler``, when given, is
    enabled around set-up and work only.
    """
    run = PointRun(point.name)
    capture.reset()
    try:
        with perf.session() as session:
            if profiler is not None:
                profiler.enable()
            try:
                start = perf_counter()
                work = point.build()
                built = perf_counter()
                capture.build_s = 0.0  # already inside the set-up span
                outputs = work()
                done = perf_counter()
            finally:
                if profiler is not None:
                    profiler.disable()
        run.setup_s = built - start + capture.build_s
        run.work_s = done - built - capture.build_s
        # Normalize through JSON so runs compare equal to the stored reference.
        run.outputs = json.loads(json.dumps(outputs))
        run.counts = read_counts(session, capture)
        if point.kind == "numa":
            run.sim_cycles = float(outputs["cycles"])
            run.ops = 1
        else:
            run.sim_cycles = sum(soc.sim.now for soc in capture.socs)
            run.ops = sum(soc.ni.transfers.retired for soc in capture.socs)
        if point.kind == "open_loop":
            run.counts.update({
                "load.arrived": outputs["arrived"],
                "load.injected": outputs["injected"],
                "load.completed": outputs["completed"],
                "load.dropped": outputs["dropped"],
                "load.queue_depth_sum": outputs["mean_queue_depth"] * outputs["arrived"],
            })
    except Exception as exc:  # a failing point is counted, not fatal
        run.error = "%s: %s" % (type(exc).__name__, exc)
    return run


def read_counts(session, capture: Capture) -> Dict[str, float]:
    """Layer counters of one point (NOC figures cover the fabric's stats window)."""
    counts: Counter = Counter()
    counts["sim.events"] = session.events
    counts["sim.fast_events"] = session.fast_events
    counts["sim.peak_pending"] = session.peak_pending_events
    for soc in capture.socs:
        fabric = soc.fabric
        # Per-link grants are the only count of link traversals; the fabric
        # keeps its channels in a private dict (the Fig. 7 driver reads it too).
        traversals = sum(channel.grants for channel in fabric._channels.values())
        counts["noc.packets"] += fabric.packets_sent
        counts["noc.wire_bytes"] += fabric.wire_bytes_sent
        counts["noc.link_traversals"] += traversals
        counts["noc.fused_hops"] += fabric.fused_hops
        counts["noc.hop_events"] += traversals - fabric.fused_hops
        counts["noc.max_link_util"] = max(counts["noc.max_link_util"],
                                          fabric.max_link_utilization())
        ni = soc.ni
        frontends = {id(frontend): frontend for frontend in ni.frontends.values()}
        counts["core.blocks_injected"] += sum(b.blocks_injected for b in ni.backends)
        counts["core.blocks_completed"] += ni.total_blocks_completed()
        counts["core.rrpp_requests"] += sum(r.requests_received for r in ni.rrpps)
        counts["core.doorbells"] += sum(f.doorbells for f in frontends.values())
        for pair in soc.qp_manager.all_pairs():
            for queue in (pair.wq, pair.cq):
                counts["qp.posts"] += queue.posts
                counts["qp.pops"] += queue.pops
                counts["qp.full_stalls"] += queue.full_stalls
        counts["sonuma.transfers"] += ni.transfers.created
        coherence = soc.coherence
        counts["coherence.local_hits"] += coherence.local_hits
        counts["coherence.remote_transactions"] += coherence.remote_transactions
        counts["coherence.invalidations"] += coherence.invalidations_sent
        counts["coherence.forwards"] += coherence.forwards_sent
        for controller in soc.memory_controllers:
            counts["memory.requests"] += controller.requests
            counts["memory.dram_reads"] += controller.dram.reads
            counts["memory.dram_writes"] += controller.dram.writes
        counts["memory.llc_util"] = max(counts["memory.llc_util"], soc.llc_bank_utilization())
        counts["node.offchip_bytes"] += soc.offchip_request_bytes + soc.offchip_response_bytes
    for core in capture.cores:
        counts["node.issued_ops"] += core.issued_ops
        counts["node.completed_ops"] += core.completed_ops
    return dict(counts)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _bandwidth_point(design: NIDesign, size: int, paper: Optional[float] = None) -> Point:
    def build():
        bench = RemoteReadBandwidthBenchmark(
            CONFIG.with_design(design),
            warmup_cycles=BW_WARMUP_CYCLES,
            measure_cycles=BW_MEASURE_CYCLES,
        )

        def work() -> dict:
            result = bench.run(size)
            return {
                "application_gbps": result.application_gbps,
                "noc_wire_gbps": result.noc_wire_gbps,
                "rcp_payload_bytes": result.rcp_payload_bytes,
                "rrpp_payload_bytes": result.rrpp_payload_bytes,
                "noc_wire_bytes": result.noc_wire_bytes,
                "max_link_utilization": result.max_link_utilization,
                "llc_bank_utilization": result.llc_bank_utilization,
                "completed_transfers": result.completed_transfers,
            }
        return work

    return Point("%s/%dB" % (design.value, size), build, paper=paper,
                 paper_output="application_gbps" if paper is not None else "")


def _latency_point(design: NIDesign, size: int, paper: Optional[float] = None) -> Point:
    def build():
        bench = RemoteReadLatencyBenchmark(
            CONFIG.with_design(design), iterations=LAT_ITERATIONS, warmup=LAT_WARMUP
        )

        def work() -> dict:
            result = bench.run(size)
            return {"mean_cycles": result.mean_cycles, "samples_cycles": result.samples_cycles}
        return work

    return Point("%s/%dB" % (design.value, size), build, paper=paper,
                 paper_output="mean_cycles" if paper is not None else "")


def _numa_point() -> Point:
    def build():
        machine = NumaMachine(CONFIG)
        return lambda: {"cycles": machine.simulate_remote_read_cycles()}

    return Point("numa/64B", build, paper=395.0, paper_output="cycles", kind="numa")


def _open_loop_point(rate: float, seed: int) -> Point:
    spec = ScenarioSpec(design="split", topology="mesh", workload="rw_mix")

    def build():
        driver = OpenLoopDriver.from_spec(
            spec, rate,
            warmup_cycles=RW_WARMUP_CYCLES,
            measure_cycles=RW_MEASURE_CYCLES,
            seed=seed,
        )
        return lambda: driver.run().to_dict()

    return Point("split/rw_mix@%g" % rate, build, kind="open_loop")


def bw_mesh_points(seed: int) -> List[Point]:
    return [
        _bandwidth_point(NIDesign.EDGE, 64),
        _bandwidth_point(NIDesign.SPLIT, 4096, paper=214.0),
    ]


#: Table 3 totals for a single-block (64 B) read.
TABLE3_CYCLES = {NIDesign.EDGE: 710.0, NIDesign.PER_TILE: 445.0, NIDesign.SPLIT: 447.0}


def lat_zero_load_points(seed: int) -> List[Point]:
    points = [
        _latency_point(design, size, paper=TABLE3_CYCLES[design] if size == 64 else None)
        for design in (NIDesign.EDGE, NIDesign.PER_TILE, NIDesign.SPLIT)
        for size in (64, 1024, 8192)
    ]
    points.append(_numa_point())
    return points


def rw_open_points(seed: int) -> List[Point]:
    # The open-loop outputs have no paper value; the zero-load NIsplit read
    # anchors the same design against Table 3.
    points = [_open_loop_point(rate, seed) for rate in RW_LOADS]
    points.append(_latency_point(NIDesign.SPLIT, 64, paper=TABLE3_CYCLES[NIDesign.SPLIT]))
    return points


WORKLOADS: Dict[str, Workload] = {
    "bw_mesh": Workload("bw_mesh", bw_mesh_points),
    "lat_zero_load": Workload("lat_zero_load", lat_zero_load_points),
    "rw_open": Workload("rw_open", rw_open_points, seed_dependent=True),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)
