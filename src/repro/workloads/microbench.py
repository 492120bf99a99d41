"""The paper's remote-read microbenchmarks (§5).

Two drivers are provided:

* :class:`RemoteReadLatencyBenchmark` — a single core issues *synchronous*
  remote reads of a given size in an otherwise unloaded system; the measured
  end-to-end latency (WQ-entry creation through CQ-entry consumption)
  reproduces Figures 6 and 9.
* :class:`RemoteReadBandwidthBenchmark` — all 64 cores issue *asynchronous*
  remote reads while the remote-end emulator mirrors the outgoing request
  rate back as incoming requests; the measured application bandwidth (data
  written to local buffers by RCPs plus data streamed out by RRPPs)
  reproduces Figures 7 and 10.

Both drivers operate on a fresh :class:`~repro.node.soc.ManycoreSoc` per run
so that results for different transfer sizes and designs are independent,
and close it when the run returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.node.core_model import CoreModel
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import CTX_ID, REGION_BYTES, Workload
from repro.sim.stats import WindowedMonitor

#: Base address of the local destination buffers.
LOCAL_BUFFER_BASE = 0x8000_0000
#: Per-core stride between local buffer regions.
LOCAL_BUFFER_STRIDE = 16 * 1024 * 1024


@dataclass
class LatencyResult:
    """Outcome of one synchronous-latency run."""

    design: str
    transfer_bytes: int
    hops: int
    samples_cycles: List[float]
    frequency_ghz: float

    @property
    def mean_cycles(self) -> float:
        if not self.samples_cycles:
            return 0.0
        return sum(self.samples_cycles) / len(self.samples_cycles)

    @property
    def mean_ns(self) -> float:
        return self.mean_cycles / self.frequency_ghz


@dataclass
class BandwidthResult:
    """Outcome of one asynchronous-bandwidth run."""

    design: str
    transfer_bytes: int
    measure_cycles: float
    rcp_payload_bytes: int
    rrpp_payload_bytes: int
    noc_wire_bytes: int
    frequency_ghz: float
    max_link_utilization: float = 0.0
    llc_bank_utilization: float = 0.0
    completed_transfers: int = 0
    #: Number of measurement windows taken (0 for fixed-window runs).
    measurement_windows: int = 0
    #: Whether the windowed metric met the tolerance criterion (None for
    #: fixed-window runs, False when the window budget ran out first).
    converged_naturally: Optional[bool] = None
    #: Human-readable warning when measurement stopped without converging.
    convergence_warning: Optional[str] = None

    @property
    def application_bytes(self) -> int:
        """Application data moved during the measurement window (§6.2 definition)."""
        return self.rcp_payload_bytes + self.rrpp_payload_bytes

    @property
    def application_gbps(self) -> float:
        if self.measure_cycles <= 0:
            return 0.0
        return self.application_bytes / self.measure_cycles * self.frequency_ghz

    @property
    def noc_wire_gbps(self) -> float:
        if self.measure_cycles <= 0:
            return 0.0
        return self.noc_wire_bytes / self.measure_cycles * self.frequency_ghz

    @property
    def wire_expansion(self) -> float:
        """NOC traffic per application byte (the paper reports ~2.7x at peak)."""
        if self.application_bytes == 0:
            return 0.0
        return self.noc_wire_bytes / self.application_bytes


def _read_entries(count: Optional[int], transfer_bytes: int, core_id: int,
                  region_bytes: int = REGION_BYTES) -> Iterator[WorkQueueEntry]:
    """Generate remote-read WQ entries walking the remote region."""
    if transfer_bytes <= 0:
        raise WorkloadError("transfer size must be positive")
    local_base = LOCAL_BUFFER_BASE + core_id * LOCAL_BUFFER_STRIDE
    produced = 0
    offset = (core_id * 8191 * transfer_bytes) % region_bytes
    while count is None or produced < count:
        if offset + transfer_bytes > region_bytes:
            offset = 0
        yield WorkQueueEntry(
            op=RemoteOp.READ,
            ctx_id=CTX_ID,
            dst_node=1,
            remote_offset=offset,
            local_buffer=local_base + (produced * transfer_bytes) % LOCAL_BUFFER_STRIDE,
            length=transfer_bytes,
        )
        offset += transfer_bytes
        produced += 1


@register_workload("uniform_random")
class UniformRandomReadWorkload(Workload):
    """Asynchronous uniform-random remote reads from the active cores.

    The scenario-lifecycle form of the paper's bandwidth microbenchmark:
    every active core streams bounded asynchronous remote reads over the
    64 MB remote region while the remote-end emulator rate-matches incoming
    traffic, so both the RCP (local completions) and RRPP (remote servicing)
    paths carry load.
    """

    name = "uniform_random"
    param_defaults = {
        "transfer_bytes": 512,
        "active_cores": 0,  # 0 = every core of the configured chip
        "ops_per_core": 32,
        "max_outstanding": 8,
        "hops": 1,
    }

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        transfer_bytes: int = 512,
        active_cores: int = 0,
        ops_per_core: int = 32,
        max_outstanding: int = 8,
        hops: int = 1,
    ) -> None:
        super().__init__(config)
        if transfer_bytes <= 0:
            raise WorkloadError("transfer size must be positive")
        if active_cores < 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [0, %d]" % self.config.cores.count)
        if ops_per_core <= 0:
            raise WorkloadError("need at least one operation per core")
        if max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        self.transfer_bytes = transfer_bytes
        self.active_cores = active_cores
        self.ops_per_core = ops_per_core
        self.max_outstanding = max_outstanding
        self.hops = hops

    def entries(self, core_id: int, count: Optional[int]) -> Iterator[WorkQueueEntry]:
        return _read_entries(count, self.transfer_bytes, core_id)

    def metrics(self) -> dict:
        stats = self.core_traffic_metrics()
        stats.update({
            "transfer_bytes": self.transfer_bytes,
            "active_cores": len(self._cores),
            "noc_wire_bytes": self.machine.fabric.wire_bytes_sent,
            "max_link_utilization": self.machine.fabric.max_link_utilization(),
        })
        return stats


class RemoteReadLatencyBenchmark:
    """Synchronous remote reads from a single core (Figures 6 and 9)."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        hops: int = 1,
        iterations: int = 12,
        warmup: int = 2,
        tile_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        if iterations <= 0:
            raise WorkloadError("need at least one measured iteration")
        if warmup < 0:
            raise WorkloadError("warmup cannot be negative")
        self.hops = hops
        self.iterations = iterations
        self.warmup = warmup
        if tile_ids is None:
            # Default to a central tile so on-chip distances are representative
            # of the average ((3, 3) on the 8x8 mesh of the paper).
            side = self.config.mesh_side
            central = (side // 2 - 1) * side + (side // 2 - 1)
            tile_ids = (max(0, central),)
        self.tile_ids = tuple(tile_ids)

    def run(self, transfer_bytes: int) -> LatencyResult:
        """Measure the zero-load end-to-end latency for one transfer size."""
        samples: List[float] = []
        for tile_id in self.tile_ids:
            samples.extend(self._run_single_tile(tile_id, transfer_bytes))
        return LatencyResult(
            design=self.config.ni.design,
            transfer_bytes=transfer_bytes,
            hops=self.hops,
            samples_cycles=samples,
            frequency_ghz=self.config.cores.frequency_ghz,
        )

    def sweep(self, transfer_sizes: Sequence[int]) -> List[LatencyResult]:
        """Latency for each size in ``transfer_sizes`` (the Figure-6 x-axis)."""
        return [self.run(size) for size in transfer_sizes]

    def _run_single_tile(self, tile_id: int, transfer_bytes: int) -> List[float]:
        soc = ManycoreSoc(self.config)
        soc.register_context(CTX_ID, REGION_BYTES)
        RemoteEndEmulator(soc, hops=self.hops, rate_match_incoming=False)
        qp = soc.create_queue_pair(tile_id)
        core = CoreModel(tile_id, soc, qp)
        total_ops = self.iterations + self.warmup
        core.start(
            _read_entries(total_ops, transfer_bytes, tile_id),
            max_outstanding=1,
        )
        try:
            soc.run()
        finally:
            soc.close()
        if core.completed_ops != total_ops:
            raise WorkloadError(
                "latency run finished %d of %d operations" % (core.completed_ops, total_ops)
            )
        return core.latency.samples[self.warmup:]


class RemoteReadBandwidthBenchmark:
    """Asynchronous remote reads from every core (Figures 7 and 10).

    Every core binds to the machine through
    :meth:`UniformRandomReadWorkload.setup` and reads its endless
    :meth:`~repro.scenario.workload.Workload.request_stream`.
    """

    #: Per-core bytes kept in flight; enough to cover the round-trip latency
    #: at full bandwidth while keeping the event count tractable.
    TARGET_OUTSTANDING_BYTES = 16 * 1024

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        hops: int = 1,
        warmup_cycles: float = 10_000,
        measure_cycles: float = 40_000,
        converge: bool = False,
        tolerance: float = 0.01,
        max_windows: int = 8,
    ) -> None:
        self.config = config if config is not None else SystemConfig.paper_defaults()
        if warmup_cycles < 0 or measure_cycles <= 0:
            raise WorkloadError("invalid warmup/measurement window")
        if max_windows < 2:
            raise WorkloadError("convergence needs at least two measurement windows")
        self.hops = hops
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        #: When True, ``measure_cycles`` becomes the §5 window size and the
        #: run measures window after window until the application-bandwidth
        #: metric converges (or ``max_windows`` is exhausted, which the
        #: result flags as non-natural convergence).
        self.converge = converge
        self.tolerance = tolerance
        self.max_windows = max_windows

    def max_outstanding_for(self, transfer_bytes: int) -> int:
        """In-flight transfers per core (bounded by the 128-entry WQ)."""
        if transfer_bytes <= 0:
            raise WorkloadError("transfer size must be positive")
        wanted = self.TARGET_OUTSTANDING_BYTES // transfer_bytes
        return max(4, min(self.config.ni.wq_entries, wanted))

    def run(self, transfer_bytes: int) -> BandwidthResult:
        """Measure the aggregate application bandwidth for one transfer size."""
        soc = ManycoreSoc(self.config)
        try:
            return self._measure(soc, transfer_bytes)
        finally:
            soc.close()

    def _measure(self, soc: ManycoreSoc, transfer_bytes: int) -> BandwidthResult:
        """Drive every core of ``soc`` through the warm-up and measurement windows."""
        outstanding = self.max_outstanding_for(transfer_bytes)
        workload = UniformRandomReadWorkload(
            self.config, transfer_bytes=transfer_bytes, max_outstanding=outstanding,
            hops=self.hops,
        )
        workload.setup(soc)
        cores = workload.driven_cores
        for core in cores:
            core.start(workload.request_stream(core.core_id), max_outstanding=outstanding)
        # Warm up, then measure (§5 monitors fixed-size windows until
        # convergence; the default is a single shortened window so the
        # pure-Python model stays fast, ``converge=True`` enables the full
        # windowed methodology).
        soc.run(until=self.warmup_cycles)
        soc.fabric.reset_stats()
        rcp_base = soc.ni.total_payload_bytes_completed()
        rrpp_base = soc.ni.total_rrpp_payload_bytes()
        transfers_base = soc.ni.transfers.retired + soc.ni.transfers.in_flight
        start = soc.sim.now
        monitor: Optional[WindowedMonitor] = None
        if self.converge:
            monitor = WindowedMonitor(
                window_cycles=self.measure_cycles,
                tolerance=self.tolerance,
                max_windows=self.max_windows,
            )
            # Cumulative counters sampled at each window boundary — bytes
            # (rcp, rrpp, wire) plus per-link and per-LLC-bank busy cycles —
            # so every reported figure can cover exactly the two windows the
            # convergence criterion accepted (matching WindowedMonitor.value)
            # instead of averaging in the transient.
            window_marks: List[Tuple[int, int, int]] = []
            busy_marks: List[Tuple[dict, List[float]]] = []
            while not monitor.converged:
                soc.run(until=start + (monitor.windows_seen + 1) * monitor.window_cycles)
                rcp = soc.ni.total_payload_bytes_completed() - rcp_base
                rrpp = soc.ni.total_rrpp_payload_bytes() - rrpp_base
                window_marks.append((rcp, rrpp, soc.fabric.wire_bytes_sent))
                busy_marks.append((
                    {key: channel.busy_cycles
                     for key, channel in soc.fabric._channels.items()},
                    [bank.busy_cycles for bank in soc.llc_banks],
                ))
                previous = window_marks[-2][0] + window_marks[-2][1] if len(window_marks) > 1 else 0
                monitor.record_window((rcp + rrpp - previous) / monitor.window_cycles)
        else:
            soc.run(until=self.warmup_cycles + self.measure_cycles)
        elapsed = soc.sim.now - start
        for core in cores:
            core.stop()
        if monitor is not None:
            # Report over the final two windows only (min_windows guarantees
            # at least two): the converged value of the §5 methodology.
            window_base = window_marks[-3] if len(window_marks) >= 3 else (0, 0, 0)
            rcp_bytes = window_marks[-1][0] - window_base[0]
            rrpp_bytes = window_marks[-1][1] - window_base[1]
            wire_bytes = window_marks[-1][2] - window_base[2]
            elapsed = 2 * monitor.window_cycles
            # Utilizations over the same two windows (channels created after
            # the base snapshot fall back to zero prior busy cycles).
            link_base, bank_base = (
                busy_marks[-3] if len(busy_marks) >= 3 else ({}, [0.0] * len(soc.llc_banks))
            )
            max_link_utilization = max(
                (
                    (channel.busy_cycles - link_base.get(key, 0.0)) / elapsed
                    for key, channel in soc.fabric._channels.items()
                ),
                default=0.0,
            )
            llc_utilization = max(
                (
                    (bank.busy_cycles - bank_base[i]) / elapsed
                    for i, bank in enumerate(soc.llc_banks)
                ),
                default=0.0,
            )
        else:
            rcp_bytes = soc.ni.total_payload_bytes_completed() - rcp_base
            rrpp_bytes = soc.ni.total_rrpp_payload_bytes() - rrpp_base
            wire_bytes = soc.fabric.wire_bytes_sent
            max_link_utilization = soc.fabric.max_link_utilization()
            llc_utilization = soc.llc_bank_utilization()
        return BandwidthResult(
            design=self.config.ni.design,
            transfer_bytes=transfer_bytes,
            measure_cycles=elapsed,
            rcp_payload_bytes=rcp_bytes,
            rrpp_payload_bytes=rrpp_bytes,
            noc_wire_bytes=wire_bytes,
            frequency_ghz=self.config.cores.frequency_ghz,
            max_link_utilization=min(1.0, max_link_utilization),
            llc_bank_utilization=min(1.0, llc_utilization),
            completed_transfers=(soc.ni.transfers.retired + soc.ni.transfers.in_flight)
            - transfers_base,
            measurement_windows=monitor.windows_seen if monitor is not None else 0,
            converged_naturally=monitor.converged_naturally if monitor is not None else None,
            convergence_warning=monitor.warning() if monitor is not None else None,
        )

    def sweep(self, transfer_sizes: Sequence[int]) -> List[BandwidthResult]:
        """Bandwidth for each size in ``transfer_sizes`` (the Figure-7 x-axis)."""
        return [self.run(size) for size in transfer_sizes]
