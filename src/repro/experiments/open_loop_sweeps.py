"""The open-loop sweeps: ``load_sweep`` and ``chaos_sweep``.

The paper's headline methodology is latency *under load*: each NI design is
judged by how far offered load can climb before the latency distribution
degrades.  Both experiments drive any registered scenario open loop
(:class:`~repro.load.driver.OpenLoopDriver`) over a ladder of offered loads,
one fresh machine per (load, intensity) cell.  ``load_sweep`` reports exact
p50/p95/p99/p99.9 per load (full-stream histograms, not sampled
reservoirs).  ``chaos_sweep`` runs each load fault-free (the twin: same
spec, seed and arrival schedule), then once per fault intensity with a
seeded :class:`~repro.faults.injector.FaultInjector` driving the chosen
fault model on an MTBF/MTTR window schedule; per cell it reports queue vs
fault drops, the p99's *tail amplification* over the twin and the mean
*recovery transient* (cycles from each fault window's recovery until the
rolling p99 is back within tolerance of the twin's).

Both sweeps measure every cell before they build the table, and judge it
by one SLO — p99 <= slo_factor x the mean latency of the lowest fault-free
load that completed requests, with a drop fraction of at most
:data:`DROP_LIMIT` — and one saturation walk over each row set
(``load_sweep``'s ladder, ``chaos_sweep``'s twin and each intensity): the
*saturation throughput* is the highest achieved throughput meeting the SLO
below the first violating load.  Explore objectives and the campaign digest
parse the resulting notes back, so their prefixes and parsers live here.
Both sweep like any experiment::

    repro-experiments run load_sweep --set workload=kvstore --set design=split
    repro-experiments sweep load_sweep --set design=edge,split,per_tile \\
        --set arrivals=deterministic,poisson,bursty --parallel 4
    repro-experiments run chaos_sweep --set faults=link_down
    repro-experiments sweep chaos_sweep --set design=edge,split \\
        --set faults=router_degrade,ni_stall --parallel 4
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fault_profile import render_fault_profile
from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.scenario_run import (
    DESIGN, TOPOLOGY, WORKLOAD, WORKLOAD_PARAMS, parse_workload_params,
)
from repro.experiments.spec import Parameter, experiment
from repro.faults.metrics import recovery_transient_cycles, tail_amplification
from repro.load.driver import OpenLoopDriver, OpenLoopResult
from repro.scenario.registry import ARRIVALS, FAULT_MODELS
from repro.scenario.spec import ScenarioSpec

#: ``load_sweep``'s offered-load ladder in requests per kcycle; brackets the
#: saturation knee of the default scenario (kvstore on the split design).
DEFAULT_LOADS = (2.0, 5.0, 10.0, 20.0, 40.0)
#: ``chaos_sweep``'s offered loads, bracketing the default scenario's
#: healthy operating range.
CHAOS_LOADS = (5.0, 20.0)
#: Fault intensities walked per offered load (the fault-free twin always
#: runs and is reported as intensity 0.0).
DEFAULT_INTENSITIES = (0.25, 0.5)
#: Largest acceptable fraction of dropped (queue-overflow) arrivals.
DROP_LIMIT = 0.01

#: ``load_sweep``'s saturation note starts with this prefix.
SATURATION_NOTE_PREFIX = "saturation throughput"
#: ``chaos_sweep``'s resilience digests start with this prefix: one per
#: fault intensity plus the twin's ``resilience baseline:`` digest.
RESILIENCE_NOTE_PREFIX = "resilience"
#: Matches ``load_sweep``'s saturation note and ``chaos_sweep``'s baseline
#: digest, in both their measured and ``not met`` forms.
_SATURATION_NOTE = re.compile(
    r"(?:saturation throughput|fault-free saturation):? "
    r"(?:(?P<throughput>[0-9.]+) req/kcycle|not met)"
)
#: Matches one per-intensity resilience digest, e.g. ``resilience:
#: link_down intensity 0.50: degraded saturation 4.93 req/kcycle (offered
#: 5.00); ...`` — or its ``SLO not met at any measured load`` form.
_RESILIENCE_NOTE = re.compile(
    r"^resilience: \S+ intensity (?P<intensity>[0-9.]+): "
    r"(?:degraded saturation (?P<throughput>[0-9.]+) req/kcycle|SLO not met)"
)


def saturation_from_notes(notes: Sequence[str]) -> Optional[float]:
    """The (fault-free) saturation throughput a result's notes report.

    Reads ``load_sweep``'s saturation note or ``chaos_sweep``'s baseline
    digest: 0.0 when the SLO was not met at any measured load, None when
    the notes carry neither.
    """
    for note in notes:
        match = _SATURATION_NOTE.search(note)
        if match is not None:
            throughput = match.group("throughput")
            return float(throughput) if throughput is not None else 0.0
    return None


def degraded_saturation_points(notes: Sequence[str]) -> Dict[float, float]:
    """Per-intensity degraded saturation parsed from ``chaos_sweep`` notes.

    Maps each fault intensity to the SLO-preserving degraded throughput its
    resilience digest reports (0.0 when the note says the SLO was not met at
    any measured load).  Intensity 0.0 — the fault-free baseline digest —
    is not a resilience note and is therefore never included.
    """
    points: Dict[float, float] = {}
    for note in notes:
        match = _RESILIENCE_NOTE.match(note)
        if match is None:
            continue
        throughput = match.group("throughput")
        points[float(match.group("intensity"))] = \
            float(throughput) if throughput is not None else 0.0
    return points


def worst_degraded_saturation(notes: Sequence[str]) -> Optional[float]:
    """The lowest degraded saturation across every reported fault intensity.

    This is the conservative resilience number a design-space search should
    maximize: the throughput the design still sustains under its *worst*
    injected intensity while meeting the fault-free SLO.  Returns None when
    the notes carry no resilience digests at all.
    """
    points = degraded_saturation_points(notes)
    if not points:
        return None
    return min(points[intensity] for intensity in sorted(points))


_SCENARIO_AXES = (
    DESIGN, TOPOLOGY, replace(WORKLOAD, default="kvstore"),
    Parameter("arrivals", str, default="poisson",
              choices=lambda: ARRIVALS.names(),
              help="open-loop arrival process (from the ARRIVALS registry)"),
)
_LOADS = Parameter("loads", float, default=DEFAULT_LOADS, repeated=True,
                   help="offered loads to walk, in requests per kcycle")
_SLO_FACTOR = Parameter("slo_factor", float, default=5.0,
                        help="SLO: p99 must stay within this multiple of the "
                             "lowest-load mean latency")
_WINDOW_AND_QUEUES = (
    Parameter("warmup_cycles", float, default=4_000.0,
              help="cycles simulated before measurement starts"),
    Parameter("measure_cycles", float, default=20_000.0,
              help="measurement window length in cycles"),
    Parameter("queue_depth", int, default=64,
              help="bounded per-core arrival queue (overflow = drop)"),
    Parameter("max_outstanding", int, default=8,
              help="in-flight operations per core"),
)
_SEED = Parameter("seed", int, default=1,
                  help="arrival-process seed (schedules are reproducible)")
_ARRIVAL_PARAMS = Parameter("arrival_params", str, default=(), repeated=True,
                            help="arrival-process parameter overrides as key=value pairs")

#: Measured cells keyed by (offered load, fault intensity or None for the
#: fault-free twin), in run order.
_Cells = Dict[Tuple[float, Optional[float]], OpenLoopResult]


def _ladder(values: Sequence[float], experiment_name: str, what: str) -> Tuple[float, ...]:
    points = tuple(sorted(set(float(value) for value in values)))
    if not points:
        raise ExperimentError("%s needs at least one %s" % (experiment_name, what))
    return points


def _measure_cells(config: Optional[SystemConfig], load_points: Tuple[float, ...],
                   intensity_points: Tuple[float, ...], design: str, topology: str,
                   workload: str, params: Sequence[str], arrivals: str,
                   arrival_params: Sequence[str], faults: Optional[str] = None,
                   fault_params: Optional[Dict[str, object]] = None,
                   **driver_options: object) -> Tuple[SystemConfig, _Cells]:
    """Run every (load, intensity) cell; return the machine config and the cells.

    Loads ascend, and within each load the fault-free twin runs first, then
    the intensities ascending; obs streams, simulator indices and packet ids
    follow this order.  A fresh machine per cell (``from_spec`` runs
    MachineBuilder) keeps cells from contaminating each other through
    residual queue, cache or fault-target state, and the same seed
    everywhere keeps arrival schedules identical across the grid, so a
    faulted cell differs from its twin only by the injected fault.
    """
    spec = ScenarioSpec(
        design=design, topology=topology, workload=workload,
        workload_params=parse_workload_params(params),
        arrivals=arrivals, arrival_params=parse_workload_params(arrival_params),
    )
    machine: Optional[SystemConfig] = None
    cells: _Cells = {}
    for offered in load_points:
        for intensity in (None,) + intensity_points:
            fault = {} if intensity is None else {
                "faults": faults, "fault_params": dict(fault_params or {}, intensity=intensity),
            }
            driver = OpenLoopDriver.from_spec(spec, offered, base_config=config,
                                              **driver_options, **fault)
            machine = machine or driver.scenario.config
            cells[offered, intensity] = driver.run()
    return machine, cells


@dataclass
class _Walk:
    """SLO verdicts and the saturation point of one row set."""

    verdicts: Dict[float, bool] = field(default_factory=dict)
    #: (achieved, offered) of the highest SLO-meeting load below the first violation.
    saturation: Optional[Tuple[float, float]] = None
    first_violation: Optional[float] = None
    #: Loads that completed nothing in the window: no verdict either way.
    empty: List[float] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def _judge(cells: _Cells, load_points: Tuple[float, ...], intensity_points: Tuple[float, ...],
           slo_factor: float) -> Tuple[Optional[float], Dict[Optional[float], _Walk]]:
    """The grid's SLO reference (cycles) and one saturation walk per row set."""
    # The lowest fault-free load that completed requests defines the
    # reference; a load too sparse to finish anything in the window must not
    # poison the SLO with a zero reference.
    reference = next((cells[offered, None].latency_cycles["mean"] for offered in load_points
                      if cells[offered, None].latency_cycles.get("count", 0) > 0), None)
    walks: Dict[Optional[float], _Walk] = {}
    for intensity in (None,) + intensity_points:
        walk = walks[intensity] = _Walk()
        for offered in load_points:
            point = cells[offered, intensity]
            latency = point.latency_cycles
            measured = latency.get("count", 0) > 0
            meets_slo = walk.verdicts[offered] = (
                reference is not None
                and measured
                and latency.get("p99", 0.0) <= slo_factor * reference
                and point.drop_fraction <= DROP_LIMIT
            )
            if not measured:
                walk.empty.append(offered)
            elif meets_slo and walk.first_violation is None:
                walk.saturation = (point.achieved_per_kcycle, offered)
            elif meets_slo:
                # A higher load passing after a lower one violated does not
                # extend the saturation claim — flag the non-monotone tail.
                walk.warnings.append(
                    "load %g meets the SLO although %g already violated it; "
                    "tail behaviour is non-monotone — lengthen measure_cycles"
                    % (offered, walk.first_violation)
                )
            elif walk.first_violation is None:
                walk.first_violation = offered
    return reference, walks


def _tail_windows(profile: Dict[str, object]) -> Tuple[object, object, float]:
    """A fault profile's per-window p99 rows, fault windows and window length."""
    return (profile.get("window_p99", ()), profile.get("windows", ()),
            float(profile.get("tail_window_cycles", 0.0) or 1.0))


@experiment(
    name="load_sweep",
    title="Open-loop saturation sweep",
    description="Tail latency vs. offered load; saturation throughput under an SLO.",
    parameters=(*_SCENARIO_AXES, _LOADS, _SLO_FACTOR, *_WINDOW_AND_QUEUES, _SEED,
                WORKLOAD_PARAMS, _ARRIVAL_PARAMS),
    tags=("simulated", "load"),
)
def run_load_sweep(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    topology: str = "mesh",
    workload: str = "kvstore",
    arrivals: str = "poisson",
    loads: Sequence[float] = DEFAULT_LOADS,
    slo_factor: float = 5.0,
    warmup_cycles: float = 4_000.0,
    measure_cycles: float = 20_000.0,
    queue_depth: int = 64,
    max_outstanding: int = 8,
    seed: int = 1,
    params: Sequence[str] = (),
    arrival_params: Sequence[str] = (),
) -> ExperimentResult:
    """Walk the load ladder, tabulate exact tails, find the saturation point."""
    load_points = _ladder(loads, "load_sweep", "load point")
    result = ExperimentResult(
        name="Load sweep %s@%s/%s [%s arrivals]" % (workload, design, topology, arrivals),
        description=(
            "Open-loop offered-load sweep: exact tail percentiles per load point; "
            "saturation is the highest achieved throughput meeting the SLO "
            "(p99 <= %.1fx lowest-load mean, drops <= %.0f%%)."
            % (slo_factor, DROP_LIMIT * 100.0)
        ),
        headers=[
            "Offered (req/kcycle)", "Injected (req/kcycle)", "Achieved (req/kcycle)",
            "Drop fraction", "Mean (ns)", "p50 (ns)", "p95 (ns)", "p99 (ns)",
            "p99.9 (ns)", "Queue at arrival", "SLO ok",
        ],
    )
    machine, cells = _measure_cells(
        config, load_points, (), design, topology, workload, params, arrivals,
        arrival_params, queue_depth=queue_depth, max_outstanding=max_outstanding,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles, seed=seed,
    )
    reference, walks = _judge(cells, load_points, (), slo_factor)
    walk = walks[None]
    for offered in load_points:
        point = cells[offered, None]
        result.add_row(
            offered,
            round(point.injected_per_kcycle, 3),
            round(point.achieved_per_kcycle, 3),
            round(point.drop_fraction, 4),
            *(round(point.latency_ns(stat), 1) for stat in ("mean", "p50", "p95", "p99", "p99.9")),
            round(point.mean_queue_depth, 2),
            walk.verdicts[offered],
        )
    warnings = result.metadata.warnings
    warnings.extend(walk.warnings)
    if walk.saturation is not None:
        # The built scenario's clock is the one every per-row ns conversion used.
        slo_limit_ns = slo_factor * reference / machine.cores.frequency_ghz
        result.add_note(
            "%s: %.2f req/kcycle (achieved at offered %.2f req/kcycle; SLO p99 "
            "<= %.1f ns, drops <= %.0f%%)" % (SATURATION_NOTE_PREFIX, *walk.saturation,
                                             slo_limit_ns, DROP_LIMIT * 100.0)
        )
    else:
        result.add_note("%s: not met at any measured load" % SATURATION_NOTE_PREFIX)
        if reference is None:
            warnings.append("no load point completed any request; lengthen "
                            "measure_cycles or raise the sweep's loads")
        else:
            warnings.append("every load point violates the SLO; lower the sweep's "
                            "starting load")
    if walk.empty:
        warnings.append(
            "load point(s) %s completed no requests within the window; "
            "lengthen measure_cycles" % ", ".join("%g" % point for point in walk.empty)
        )
    if walk.first_violation is None and walk.saturation is not None:
        warnings.append(
            "no load point violates the SLO; saturation lies beyond "
            "%.2f req/kcycle — extend the sweep" % load_points[-1]
        )
    result.add_note(
        "percentiles are exact (full-stream HDR histograms); latency is "
        "measured from the open-loop arrival instant, queueing included"
    )
    result.metadata.config_fingerprint = machine.fingerprint()
    result.metadata.events["load_points"] = len(load_points)
    result.metadata.events["requests_injected"] = sum(p.injected for p in cells.values())
    result.metadata.events["requests_completed"] = sum(p.completed for p in cells.values())
    return result


@experiment(
    name="chaos_sweep",
    title="Fault-injection resilience sweep",
    description="Tail amplification, degraded throughput and recovery "
                "transients over a fault intensity x offered load grid.",
    parameters=(
        *_SCENARIO_AXES,
        Parameter("faults", str, default="router_degrade",
                  choices=lambda: FAULT_MODELS.names(),
                  help="fault model to inject (from the FAULT_MODELS registry)"),
        Parameter("intensities", float, default=DEFAULT_INTENSITIES, repeated=True,
                  help="fault intensities to walk (each in [0, 1]; the "
                       "fault-free baseline always runs)"),
        replace(_LOADS, default=CHAOS_LOADS),
        replace(_SLO_FACTOR, help="SLO: p99 must stay within this multiple of the "
                                  "fault-free lowest-load mean latency"),
        *_WINDOW_AND_QUEUES,
        replace(_SEED, help="seed pinning arrivals, fault schedule and fault "
                            "targets (runs are reproducible)"),
        Parameter("mtbf_cycles", float, default=6_000.0,
                  help="mean cycles between fault-window activations"),
        Parameter("mttr_cycles", float, default=1_500.0,
                  help="mean fault-window length in cycles"),
        Parameter("recovery_tolerance", float, default=1.5,
                  help="recovery: rolling p99 back within this multiple of "
                       "the baseline p99"),
        WORKLOAD_PARAMS,
        _ARRIVAL_PARAMS,
        Parameter("fault_params", str, default=(), repeated=True,
                  help="fault-model/schedule parameter overrides as "
                       "key=value pairs (e.g. multiplier=8)"),
    ),
    tags=("simulated", "load", "faults"),
)
def run_chaos_sweep(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    topology: str = "mesh",
    workload: str = "kvstore",
    arrivals: str = "poisson",
    faults: str = "router_degrade",
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    loads: Sequence[float] = CHAOS_LOADS,
    slo_factor: float = 5.0,
    warmup_cycles: float = 4_000.0,
    measure_cycles: float = 20_000.0,
    queue_depth: int = 64,
    max_outstanding: int = 8,
    seed: int = 1,
    mtbf_cycles: float = 6_000.0,
    mttr_cycles: float = 1_500.0,
    recovery_tolerance: float = 1.5,
    params: Sequence[str] = (),
    arrival_params: Sequence[str] = (),
    fault_params: Sequence[str] = (),
) -> ExperimentResult:
    """Walk the intensity x load grid against per-load fault-free twins."""
    fault_name = FAULT_MODELS.resolve(faults)
    load_points = _ladder(loads, "chaos_sweep", "load point")
    intensity_points = _ladder(intensities, "chaos_sweep", "fault intensity")
    schedule = {"mtbf_cycles": mtbf_cycles, "mttr_cycles": mttr_cycles}
    schedule.update(parse_workload_params(fault_params))
    result = ExperimentResult(
        name="Chaos sweep %s@%s/%s [%s faults]"
             % (workload, design, topology, fault_name),
        description=(
            "Fault intensity x offered load grid vs per-load fault-free "
            "baselines: tail amplification, queue vs fault drops, recovery "
            "transients; degraded saturation is the highest achieved "
            "throughput meeting the fault-free SLO (p99 <= %.1fx lowest-load "
            "mean, drops <= %.0f%%)." % (slo_factor, DROP_LIMIT * 100.0)
        ),
        headers=[
            "Offered (req/kcycle)", "Intensity", "Achieved (req/kcycle)",
            "Queue drops", "Fault drops", "p99 (ns)", "Tail amplification",
            "Recovery (cycles)", "SLO ok",
        ],
    )
    machine, cells = _measure_cells(
        config, load_points, intensity_points, design, topology, workload, params,
        arrivals, arrival_params, faults=fault_name, fault_params=schedule,
        queue_depth=queue_depth, max_outstanding=max_outstanding,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles, seed=seed,
    )
    reference, walks = _judge(cells, load_points, intensity_points, slo_factor)
    fault_fingerprint = ""
    amplification: Dict[Tuple[float, float], float] = {}
    transients: Dict[float, List[float]] = {intensity: [] for intensity in intensity_points}
    for (offered, intensity), point in cells.items():
        amplified, transient = 1.0, None  # the twin row
        if intensity is not None:
            twin_p99 = cells[offered, None].latency_cycles.get("p99", 0.0)
            fault_fingerprint = fault_fingerprint or point.fault_profile.get("fingerprint", "")
            amplified = amplification[offered, intensity] = tail_amplification(
                point.latency_cycles.get("p99", 0.0), twin_p99)
            transient = recovery_transient_cycles(
                *_tail_windows(point.fault_profile), twin_p99, tolerance=recovery_tolerance)
            if transient is not None:
                transients[intensity].append(transient)
        result.add_row(
            offered,
            intensity or 0.0,
            round(point.achieved_per_kcycle, 3),
            point.dropped,
            point.fault_dropped,
            round(point.latency_ns("p99"), 1),
            round(amplified, 3),
            round(transient, 1) if transient is not None else 0.0,
            walks[intensity].verdicts[offered],
        )

    for intensity, walk in walks.items():
        row_set = "fault-free" if intensity is None else "intensity %.2f" % intensity
        result.metadata.warnings.extend("%s: %s" % (row_set, line) for line in walk.warnings)
    for intensity in intensity_points:
        degraded = walks[intensity].saturation
        if degraded is not None:
            degraded_text = (
                "degraded saturation %.2f req/kcycle (offered %.2f)"
                % (degraded[0], degraded[1])
            )
        else:
            degraded_text = "SLO not met at any measured load"
        amp = max(amplification[offered, intensity] for offered in load_points)
        amp_text = ("max tail amplification %.2fx" % amp) if amp else \
            "tail amplification unmeasurable (empty baseline tail)"
        recovered = transients[intensity]
        if recovered:
            recovery_text = (
                "mean recovery transient %.0f cycles"
                % (sum(recovered) / len(recovered))
            )
        else:
            recovery_text = "no measured recovery within the window"
        result.add_note(
            "%s: %s intensity %.2f: %s; %s; %s"
            % (RESILIENCE_NOTE_PREFIX, fault_name, intensity, degraded_text,
               amp_text, recovery_text)
        )
    healthy = walks[None].saturation
    if healthy is not None:
        healthy_text = "%.2f req/kcycle (offered %.2f)" % healthy
    else:
        healthy_text = "not met at any measured load"
    result.add_note(
        "%s baseline: fault-free saturation %s" % (RESILIENCE_NOTE_PREFIX, healthy_text)
    )
    if reference is None:
        result.metadata.warnings.append(
            "no fault-free load point completed any request; lengthen "
            "measure_cycles or raise the sweep's loads"
        )
    fault_windows = sum(point.fault_windows for point in cells.values())
    if fault_windows == 0:
        result.metadata.warnings.append(
            "no fault window activated within the measured horizon; lower "
            "mtbf_cycles or lengthen measure_cycles"
        )
    result.add_note(
        "each faulted cell runs against a fault-free twin (same seed, same "
        "arrival schedule); fault schedule fingerprint %s"
        % (fault_fingerprint or "n/a")
    )
    # The fault_profile figure renders the grid's most stressed cell
    # (highest load x highest intensity) against its twin's p99.
    profile = cells[load_points[-1], intensity_points[-1]].fault_profile
    cascade_doc = profile.get("cascade")
    result.add_note(
        "fault_profile: %s intensity %.2f at the highest measured load%s"
        % (
            fault_name, intensity_points[-1],
            " (cascade: %s p=%.2f, %d triggered)" % (
                cascade_doc["model"], cascade_doc["probability"],
                cascade_doc["triggered"],
            ) if cascade_doc else "",
        )
    )
    for line in render_fault_profile(
        *_tail_windows(profile),
        baseline_p99=cells[load_points[-1], None].latency_cycles.get("p99", 0.0),
        tolerance=recovery_tolerance,
        cascade_windows=(cascade_doc or {}).get("windows", ()),
    ):
        result.add_note("fault_profile: %s" % line)
    result.metadata.config_fingerprint = machine.fingerprint()
    result.metadata.events["load_points"] = len(load_points)
    result.metadata.events["fault_intensities"] = len(intensity_points)
    result.metadata.events["requests_injected"] = sum(p.injected for p in cells.values())
    result.metadata.events["requests_completed"] = sum(p.completed for p in cells.values())
    result.metadata.events["fault_windows"] = fault_windows
    result.metadata.events["fault_drops"] = sum(p.fault_dropped for p in cells.values())
    return result
