"""Figures 6, 7, 9 and 10: the §5 transfer-size microbenchmarks on both chips.

Figures 6 and 9 sweep the latency of synchronous remote reads that a single
core issues in an unloaded system (64 B to 16 KB).  Figures 7 and 10 sweep
the aggregate application bandwidth of asynchronous remote reads from all 64
cores while the remote-end emulator mirrors the outgoing request rate back as
incoming requests.  Figures 6 and 7 run on the 8×8 mesh; Figures 9 and 10 run
on NOC-Out (§6.3), an LLC row interconnected by a flattened butterfly with
per-column core trees.  Each sweep measures every (design, size) point before
it builds the table; the four registered runners only supply their title,
chip, figure-specific column and the paper's finding.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.numa.machine import NumaMachine
from repro.scenario.registry import NI_DESIGNS
from repro.workloads.microbench import (
    BandwidthResult,
    RemoteReadBandwidthBenchmark,
    RemoteReadLatencyBenchmark,
)

#: The transfer sizes on the Figure-6/9 x-axis.
FIG6_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)

#: The transfer sizes on the Figure-7/10 x-axis.
FIG7_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Column order of the paper's figures (edge, split, per-tile).
FIGURE_DESIGN_ORDER = ("edge", "split", "per_tile")

#: The two chips, named as the result descriptions name them.
_MESH = "the mesh NOC"
_NOC_OUT = "NOC-Out"


def select_designs(design: Optional[object]) -> Tuple[str, ...]:
    """The messaging designs an experiment sweeps: all three, or just one."""
    if design is None:
        return FIGURE_DESIGN_ORDER
    return (NI_DESIGNS.resolve(design),)


def design_label(design: str) -> str:
    """The paper's display name for a design (its registered ``label``)."""
    return NI_DESIGNS.entry(design).metadata.get("label", design)


def _simulated_config(chip: str, config: Optional[SystemConfig]) -> SystemConfig:
    """The config a figure simulates on ``chip``.

    The mesh figures run the caller's config as given.  The NOC-Out figures
    run ``noc_out_defaults()`` and keep only the caller's calibration, NI
    and rack, so a mesh config never reaches a NOC-Out figure.
    """
    if chip == _MESH:
        return config if config is not None else SystemConfig.paper_defaults()
    noc_out = SystemConfig.noc_out_defaults()
    if config is None:
        return noc_out
    return noc_out.replace(calibration=config.calibration, ni=config.ni, rack=config.rack)


_DESIGN = Parameter("design", str, default=None,
                    choices=lambda: NI_DESIGNS.names(messaging=True),
                    help="restrict the sweep to one messaging design (default: all three)")

_LATENCY_PARAMETERS = (
    _DESIGN,
    Parameter("sizes", int, default=FIG6_SIZES, repeated=True,
              help="transfer sizes in bytes (x-axis)"),
    Parameter("hops", int, default=1, help="inter-node network hops per direction"),
    Parameter("iterations", int, default=5, help="measured reads per size"),
    Parameter("warmup", int, default=2, help="discarded warm-up reads per size"),
)

_BANDWIDTH_PARAMETERS = (
    _DESIGN,
    Parameter("sizes", int, default=FIG7_SIZES, repeated=True,
              help="transfer sizes in bytes (x-axis)"),
    Parameter("warmup_cycles", float, default=5_000.0,
              help="cycles simulated before measurement starts"),
    Parameter("measure_cycles", float, default=15_000.0,
              help="cycles in the measurement window"),
)


def _latency_sweep(title: str, chip: str, note: str, config: Optional[SystemConfig],
                   design: Optional[str], sizes: Sequence[int], hops: int, iterations: int,
                   warmup: int, numa_projection: bool = False) -> ExperimentResult:
    """Mean synchronous remote-read latency per design and transfer size."""
    simulated = _simulated_config(chip, config)
    designs = select_designs(design)
    latency: Dict[Tuple[str, int], float] = {}
    for d in designs:
        bench = RemoteReadLatencyBenchmark(
            simulated.with_design(d), hops=hops, iterations=iterations, warmup=warmup
        )
        for size in sizes:
            latency[d, size] = bench.run(size).mean_ns

    distance = "one network hop" if hops == 1 else "%d network hops" % hops
    result = ExperimentResult(
        name=title,
        description="End-to-end latency (ns) of synchronous remote reads on %s, %s per "
                    "direction." % (chip, distance),
        headers=["Transfer (B)"]
                + ["%s (ns)" % design_label(d) for d in designs]
                + (["NUMA projection (ns)"] if numa_projection else []),
    )
    numa = NumaMachine(simulated)
    for size in sizes:
        row = [size] + [latency[d, size] for d in designs]
        if numa_projection:
            row.append(simulated.cycles_to_ns(numa.transfer_latency_cycles(size, hops)))
        result.add_row(*row)
    result.metadata.config_fingerprint = simulated.fingerprint()
    result.metadata.events["latency_samples"] = (warmup + iterations) * len(sizes) * len(designs)
    result.add_note(note)
    return result


def _bandwidth_sweep(title: str, chip: str, note: str, column: Tuple[str, str],
                     config: Optional[SystemConfig], design: Optional[str],
                     sizes: Sequence[int], warmup_cycles: float, measure_cycles: float,
                     converge: bool = False, max_windows: int = 8,
                     tolerance: float = 0.01) -> ExperimentResult:
    """Aggregate application bandwidth per design and transfer size.

    ``column`` is the figure's last column: a header template that takes a
    design label, and the :class:`BandwidthResult` field it reports.
    """
    simulated = _simulated_config(chip, config)
    designs = select_designs(design)
    runs: Dict[Tuple[str, int], BandwidthResult] = {}
    for d in designs:
        bench = RemoteReadBandwidthBenchmark(
            simulated.with_design(d), warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
            converge=converge, max_windows=max_windows, tolerance=tolerance,
        )
        for size in sizes:
            runs[d, size] = bench.run(size)

    # The last column follows NIsplit in the paper; when the sweep is
    # restricted to another design it reports that design's.
    column_design = "split" if "split" in designs else designs[0]
    header, metric = column
    result = ExperimentResult(
        name=title,
        description="Aggregate application bandwidth (GBps) for asynchronous remote reads "
                    "on %s with rate-matched incoming traffic." % chip,
        headers=["Transfer (B)"]
                + ["%s (GBps)" % design_label(d) for d in designs]
                + [header % design_label(column_design)],
    )
    for size in sizes:
        result.add_row(size, *[runs[d, size].application_gbps for d in designs],
                       getattr(runs[column_design, size], metric))
    result.metadata.warnings.extend(
        "%s, %d B: %s" % (design_label(d), size, run.convergence_warning)
        for (d, size), run in runs.items() if run.convergence_warning
    )
    result.metadata.config_fingerprint = simulated.fingerprint()
    result.metadata.events["bandwidth_runs"] = len(sizes) * len(designs)
    result.add_note(note)
    return result


@experiment(
    name="fig6",
    title="Figure 6",
    description="Synchronous remote-read latency vs. transfer size on the mesh NOC.",
    parameters=_LATENCY_PARAMETERS,
    tags=("simulated", "latency", "mesh"),
)
def run_fig6(config: Optional[SystemConfig] = None, design: Optional[str] = None,
             sizes: Sequence[int] = FIG6_SIZES, hops: int = 1, iterations: int = 5,
             warmup: int = 2) -> ExperimentResult:
    """Regenerate the Figure-6 latency sweep using the discrete-event simulator."""
    return _latency_sweep(
        "Figure 6", _MESH,
        "paper: NIsplit tracks NIper-tile for small sizes, NIedge carries a ~130 ns constant "
        "penalty, and NIper-tile becomes the slowest design at 8-16 KB",
        config, design, sizes, hops, iterations, warmup, numa_projection=True)


@experiment(
    name="fig7",
    title="Figure 7",
    description="Asynchronous remote-read application bandwidth vs. transfer size "
                "on the mesh NOC.",
    parameters=_BANDWIDTH_PARAMETERS + (
        Parameter("converge", bool, default=False,
                  help="measure window after window until the bandwidth converges "
                       "(the paper's §5 methodology) instead of one fixed window"),
        Parameter("max_windows", int, default=8,
                  help="window budget when converging; running out is flagged as a "
                       "measurement warning"),
        Parameter("tolerance", float, default=0.01,
                  help="relative window-to-window change below which the metric "
                       "counts as converged"),
    ),
    tags=("simulated", "bandwidth", "mesh"),
)
def run_fig7(config: Optional[SystemConfig] = None, design: Optional[str] = None,
             sizes: Sequence[int] = FIG7_SIZES, warmup_cycles: float = 5_000,
             measure_cycles: float = 15_000, converge: bool = False, max_windows: int = 8,
             tolerance: float = 0.01) -> ExperimentResult:
    """Regenerate the Figure-7 bandwidth sweep using the discrete-event simulator."""
    return _bandwidth_sweep(
        "Figure 7", _MESH,
        "paper: NIedge/NIsplit peak at 214 GBps; NIper-tile reaches only ~25% of NIedge for "
        "8 KB transfers; NOC traffic is ~2.7x the application bandwidth",
        ("NOC wire traffic, %s (GBps)", "noc_wire_gbps"),
        config, design, sizes, warmup_cycles, measure_cycles,
        converge=converge, max_windows=max_windows, tolerance=tolerance)


@experiment(
    name="fig9",
    title="Figure 9",
    description="Synchronous remote-read latency vs. transfer size on NOC-Out.",
    parameters=_LATENCY_PARAMETERS,
    default_config=SystemConfig.noc_out_defaults,
    tags=("simulated", "latency", "noc-out"),
)
def run_fig9(config: Optional[SystemConfig] = None, design: Optional[str] = None,
             sizes: Sequence[int] = FIG6_SIZES, hops: int = 1, iterations: int = 5,
             warmup: int = 2) -> ExperimentResult:
    """Regenerate the Figure-9 latency sweep on NOC-Out."""
    return _latency_sweep(
        "Figure 9", _NOC_OUT,
        "paper: NOC-Out lowers small-transfer latency by up to 30% vs the mesh; NIedge "
        "remains up to 30% slower than NIsplit",
        config, design, sizes, hops, iterations, warmup)


@experiment(
    name="fig10",
    title="Figure 10",
    description="Asynchronous remote-read application bandwidth vs. transfer size "
                "on NOC-Out.",
    parameters=_BANDWIDTH_PARAMETERS,
    default_config=SystemConfig.noc_out_defaults,
    tags=("simulated", "bandwidth", "noc-out"),
)
def run_fig10(config: Optional[SystemConfig] = None, design: Optional[str] = None,
              sizes: Sequence[int] = FIG7_SIZES, warmup_cycles: float = 5_000,
              measure_cycles: float = 15_000) -> ExperimentResult:
    """Regenerate the Figure-10 bandwidth sweep on NOC-Out."""
    return _bandwidth_sweep(
        "Figure 10", _NOC_OUT,
        "paper: trends match the mesh but the peak is significantly lower because the "
        "8-bank LLC row is highly contended",
        ("LLC bank utilization, %s", "llc_bank_utilization"),
        config, design, sizes, warmup_cycles, measure_cycles)
