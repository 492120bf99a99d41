"""Open-loop load generation over any registered scenario.

:class:`OpenLoopDriver` replaces a workload's closed-loop injection
(``inject()``'s pull iterators, where request N+1 waits for request N) with
an *arrival clock*: a seeded :class:`~repro.load.arrivals.ArrivalProcess`
fires at its own pace and each firing feeds one request — pulled from the
workload's :meth:`~repro.scenario.workload.Workload.request_stream` — to one
of the workload's cores.  Requests wait in a bounded per-core queue when the
core is saturated and are *dropped* (and accounted) when the queue is full,
so the driver exposes exactly the latency-under-load behaviour the paper's
headline figures are about: end-to-end latency is measured from the arrival
instant, queueing included, into exact-histogram recorders.

Multi-tenant mixes partition the workload's cores between
:class:`TenantLoad` entries, each with its own arrival process and share of
the offered load; results carry per-tenant breakdowns next to the
machine-wide aggregate.

A ``faults`` name (``FAULT_MODELS`` registry) runs the load under seeded
fault injection: a :class:`~repro.faults.injector.FaultInjector` is installed
for the run's horizon, arrivals shed by an active ``ni_stall`` fault are
accounted as *fault-induced* drops (separate from queue-overflow drops), and
completions additionally feed a :class:`~repro.faults.metrics.WindowedTails`
recorder so results carry per-window p99 rows for recovery analysis.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import WorkloadError
from repro.load.arrivals import ArrivalProcess
from repro.obs import hooks as obs_hooks
from repro.scenario.registry import ARRIVALS, FAULT_MODELS
from repro.sim.stats import LatencyHistogram, StatAccumulator

#: Default bound on requests waiting per core before arrivals are dropped.
DEFAULT_QUEUE_DEPTH = 64

#: Default :class:`~repro.faults.metrics.WindowedTails` bucket width used for
#: per-window tail rows on faulted runs (overridable via the
#: ``tail_window_cycles`` fault parameter).
DEFAULT_TAIL_WINDOW_CYCLES = 500.0


@dataclass(frozen=True)
class TenantLoad:
    """One tenant of a multi-tenant open-loop mix.

    ``weight`` sets both the tenant's share of the total offered load and its
    share of the workload's cores (each tenant gets at least one core).  An
    unset ``arrivals`` inherits the driver's process.
    """

    name: str
    weight: float = 1.0
    arrivals: Optional[str] = None
    arrival_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tenant name must be non-empty")
        if self.weight <= 0:
            raise WorkloadError("tenant weight must be positive")


class _TenantState:
    """Mutable bookkeeping for one tenant while the driver runs."""

    def __init__(self, tenant: TenantLoad, process: ArrivalProcess, cores: List) -> None:
        self.tenant = tenant
        self.process = process
        self.cores = cores
        self.gaps: Iterator[float] = process.gaps()
        self.streams: Dict[int, Iterator] = {}
        self.next_core = 0
        #: Set when the measurement window closes: in-flight arrival events
        #: become no-ops and the clock stops rescheduling itself (scheduled
        #: events cannot be removed from the queue).
        self.frozen = False
        self.exhausted = False  # a non-looping trace ran out of arrivals
        self.reset_counters()

    def reset_counters(self) -> None:
        #: Arrival-clock firings (fed + dropped).
        self.arrived = 0
        #: Arrivals shed because the per-core queue was full.
        self.dropped = 0
        #: Arrivals shed by an active fault (e.g. ``ni_stall``) — reported
        #: separately so chaos sweeps can tell load shedding from overload.
        self.fault_dropped = 0
        #: Completions of requests *fed during the measurement window* (so
        #: achieved throughput never counts warm-up carryover and can never
        #: exceed the injected rate).
        self.completed = 0
        #: Queue depth sampled at arrival instants: the backlog each arriving
        #: request joins.  Deliberately *not* a time average — bursty arrivals
        #: land when queues are deep, and that is the depth they experience
        #: (PASTA makes the two coincide only for Poisson arrivals).
        self.queue_depth = StatAccumulator("%s-queue-depth" % self.tenant.name)

    def merged_histogram(self) -> LatencyHistogram:
        merged = LatencyHistogram("%s-latency" % self.tenant.name)
        for core in self.cores:
            histogram = core.latency.histogram
            if histogram is not None:
                merged.merge(histogram)
        return merged


@dataclass
class OpenLoopResult:
    """Measurement-window metrics of one open-loop run.

    Counter semantics: ``arrived`` is every arrival-clock firing in the
    window; ``injected`` the subset actually fed to a core (arrived minus
    dropped); ``completed`` the completions of *window-fed* requests, so
    achieved throughput never counts warm-up carryover and can never exceed
    the injected rate.  ``latency_cycles`` covers every completion observed
    in the window — including requests fed just before it, whose (long)
    waits are legitimate steady-state samples — so its ``count`` may exceed
    ``completed``.
    """

    rate_per_kcycle: float
    arrivals: str
    warmup_cycles: float
    measure_cycles: float
    queue_depth: int
    max_outstanding: int
    frequency_ghz: float
    arrived: int = 0
    injected: int = 0
    completed: int = 0
    dropped: int = 0
    final_backlog: int = 0
    #: Fault model driven during the run (None on fault-free runs; the
    #: fault_* fields below are only meaningful — and only serialized —
    #: when set).
    faults: Optional[str] = None
    #: Arrivals shed by an active fault, separate from queue-bound drops.
    fault_dropped: int = 0
    #: Fault windows that activated during the run.
    fault_windows: int = 0
    #: Fault hook invocations that actually perturbed the simulation.
    fault_hits: int = 0
    #: Fault identity and per-window tail rows (model, intensity,
    #: fingerprints, realized windows, windowed p99 latencies).
    fault_profile: Dict[str, object] = field(default_factory=dict)
    #: Mean queue depth *seen by arriving requests* (not a time average;
    #: the two coincide only for Poisson arrivals).
    mean_queue_depth: float = 0.0
    #: Whole-stream latency statistics in cycles: count/mean/min/max plus
    #: exact p50/p95/p99/p99.9 from the merged histograms.
    latency_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per-tenant breakdowns (same shape as the top-level fields).
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def injected_per_kcycle(self) -> float:
        if self.measure_cycles <= 0:
            return 0.0
        return self.injected / self.measure_cycles * 1000.0

    @property
    def achieved_per_kcycle(self) -> float:
        if self.measure_cycles <= 0:
            return 0.0
        return self.completed / self.measure_cycles * 1000.0

    @property
    def drop_fraction(self) -> float:
        """Fraction of arrivals shed for any reason (queue-bound or fault)."""
        if not self.arrived:
            return 0.0
        return (self.dropped + self.fault_dropped) / self.arrived

    def latency_ns(self, key: str) -> float:
        """One latency statistic converted from cycles to nanoseconds."""
        return self.latency_cycles.get(key, 0.0) / self.frequency_ghz

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "rate_per_kcycle": self.rate_per_kcycle,
            "arrivals": self.arrivals,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "queue_depth": self.queue_depth,
            "max_outstanding": self.max_outstanding,
            "frequency_ghz": self.frequency_ghz,
            "arrived": self.arrived,
            "injected": self.injected,
            "completed": self.completed,
            "dropped": self.dropped,
            "drop_fraction": self.drop_fraction,
            "injected_per_kcycle": self.injected_per_kcycle,
            "achieved_per_kcycle": self.achieved_per_kcycle,
            "mean_queue_depth": self.mean_queue_depth,
            "final_backlog": self.final_backlog,
            "latency_cycles": dict(self.latency_cycles),
            "tenants": {name: dict(stats) for name, stats in self.tenants.items()},
        }
        # Fault-free results serialize exactly as before fault injection
        # existed (same contract as ScenarioSpec.to_dict).
        if self.faults is not None:
            document["faults"] = self.faults
            document["fault_dropped"] = self.fault_dropped
            document["fault_windows"] = self.fault_windows
            document["fault_hits"] = self.fault_hits
            document["fault_profile"] = dict(self.fault_profile)
        return document


class OpenLoopDriver:
    """Drives a built :class:`~repro.scenario.builder.Scenario` open loop."""

    def __init__(
        self,
        scenario,
        rate_per_kcycle: float,
        arrivals: str = "poisson",
        arrival_params: Optional[Mapping[str, object]] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_outstanding: int = 8,
        warmup_cycles: float = 5_000.0,
        measure_cycles: float = 30_000.0,
        seed: int = 1,
        tenants: Optional[Sequence[TenantLoad]] = None,
        faults: Optional[str] = None,
        fault_params: Optional[Mapping[str, object]] = None,
    ) -> None:
        if rate_per_kcycle <= 0:
            raise WorkloadError("offered load must be positive (requests per kcycle)")
        if queue_depth <= 0:
            raise WorkloadError("queue depth must be positive")
        if max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        if warmup_cycles < 0 or measure_cycles <= 0:
            raise WorkloadError("invalid warmup/measurement window")
        self.scenario = scenario
        self.machine = scenario.machine
        self.workload = scenario.workload
        self.rate_per_kcycle = float(rate_per_kcycle)
        self.arrivals = ARRIVALS.resolve(arrivals)
        self.arrival_params = dict(arrival_params or {})
        self.queue_depth = queue_depth
        self.max_outstanding = max_outstanding
        self.warmup_cycles = float(warmup_cycles)
        self.measure_cycles = float(measure_cycles)
        self.seed = int(seed)
        self.tenants = list(tenants) if tenants else [TenantLoad("default")]
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError("tenant names must be unique, got %s" % (names,))
        self.faults = FAULT_MODELS.resolve(faults) if faults is not None else None
        if self.faults is None and fault_params:
            raise WorkloadError("fault_params given without a fault model name")
        self.fault_params = dict(fault_params or {})
        if self.faults is not None:
            # Typos in fault parameters fail here, before any simulation
            # work (spec-built runs validate at spec resolution too).
            from repro.faults.injector import validate_fault_params

            validate_fault_params(self.faults, self.fault_params)
        self._states: List[_TenantState] = []
        self._measure_start = math.inf
        self._injector = None
        self._fault_state = None
        self._window_tails = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec, rate_per_kcycle: float, base_config=None,
                  **kwargs: object) -> "OpenLoopDriver":
        """Build the scenario from a :class:`ScenarioSpec` and wrap it.

        The spec's ``arrivals``/``arrival_params`` (and
        ``faults``/``fault_params``) fields, when set, become the driver
        defaults (explicit keyword arguments still win).
        """
        from repro.scenario.builder import MachineBuilder

        scenario = MachineBuilder(spec, base_config=base_config).build()
        if spec.arrivals is not None and "arrivals" not in kwargs:
            # Only inherit the spec's params together with its process: a
            # caller-overridden process may not accept them at all.
            kwargs["arrivals"] = spec.arrivals
            kwargs.setdefault("arrival_params", spec.arrival_params)
        if spec.faults is not None and "faults" not in kwargs:
            # Same contract as arrivals: params travel with their model.
            kwargs["faults"] = spec.faults
            kwargs.setdefault("fault_params", spec.fault_params)
        return cls(scenario, rate_per_kcycle, **kwargs)

    def _tenant_process(self, tenant: TenantLoad, share: float) -> ArrivalProcess:
        name = ARRIVALS.resolve(tenant.arrivals) if tenant.arrivals else self.arrivals
        if tenant.arrival_params:
            params = dict(tenant.arrival_params)
        elif tenant.arrivals is None:
            # The tenant inherits the driver's process wholesale; a tenant
            # that names its own process gets that process's defaults instead
            # (the driver's params may not even validate against it).
            params = dict(self.arrival_params)
        else:
            params = {}
        process_cls = ARRIVALS.get(name)
        seed = self.seed * 1_000_003 + zlib.crc32(tenant.name.encode("utf-8"))
        return process_cls.from_params(self.rate_per_kcycle * share, seed=seed, **params)

    def _partition_cores(self, cores: List) -> List[List]:
        """Split the workload's cores between tenants by weight (each >= 1)."""
        if len(cores) < len(self.tenants):
            raise WorkloadError(
                "workload drives %d core(s) but the mix declares %d tenant(s)"
                % (len(cores), len(self.tenants))
            )
        total = sum(tenant.weight for tenant in self.tenants)
        counts = [max(1, int(len(cores) * tenant.weight / total)) for tenant in self.tenants]
        # Distribute the rounding remainder (positive or negative) over the
        # heaviest tenants so the counts sum to the core count exactly.
        order = sorted(range(len(counts)), key=lambda i: -self.tenants[i].weight)
        index = 0
        while sum(counts) != len(cores):
            step = 1 if sum(counts) < len(cores) else -1
            candidate = order[index % len(order)]
            if counts[candidate] + step >= 1:
                counts[candidate] += step
            index += 1
        partitions: List[List] = []
        start = 0
        for count in counts:
            partitions.append(cores[start:start + count])
            start += count
        return partitions

    # ------------------------------------------------------------------
    # Arrival clock
    # ------------------------------------------------------------------
    def _schedule_next(self, state: _TenantState) -> None:
        gap = next(state.gaps, None)
        if gap is None:  # a non-looping trace ran out
            state.exhausted = True
            return
        self.machine.sim.schedule(gap, self._arrive, state)

    def _completion_counter(self, state: _TenantState):
        """A per-tenant completion listener attributing ops to the window."""
        def on_complete(core) -> None:
            posted_at = core.last_completion_posted_at
            if posted_at is not None and posted_at >= self._measure_start:
                state.completed += 1
            tails = self._window_tails
            if tails is not None and posted_at is not None:
                now = self.machine.sim.now
                tails.record(now, now - posted_at)
        return on_complete

    def _arrive(self, state: _TenantState) -> None:
        if state.frozen:
            return
        core = state.cores[state.next_core % len(state.cores)]
        state.next_core += 1
        state.arrived += 1
        faults = self._fault_state
        if faults is not None and faults.core_rejects(core.core_id):
            # The NI frontend sheds this arrival outright; the request never
            # joins a queue, so no depth sample either.
            state.fault_dropped += 1
            self._schedule_next(state)
            return
        state.queue_depth.add(core.queued)
        if core.queued >= self.queue_depth:
            state.dropped += 1
        else:
            core.feed(next(state.streams[core.core_id]))
        self._schedule_next(state)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> OpenLoopResult:
        """Warm up, measure, and report tail-latency/throughput metrics."""
        machine = self.machine
        workload = self.workload
        workload.setup(machine)
        cores = workload.driven_cores
        if not cores:
            raise WorkloadError(
                "workload %r drives no cores after setup()" % (workload.name,)
            )
        partitions = self._partition_cores(cores)
        total_weight = sum(tenant.weight for tenant in self.tenants)
        self._states = []
        for tenant, tenant_cores in zip(self.tenants, partitions):
            process = self._tenant_process(tenant, tenant.weight / total_weight)
            state = _TenantState(tenant, process, tenant_cores)
            state.streams = {
                core.core_id: workload.request_stream(core.core_id)
                for core in tenant_cores
            }
            self._states.append(state)
        self._measure_start = math.inf  # nothing counts until warm-up ends
        if self.faults is not None:
            from repro.faults import build_fault_injector
            from repro.faults.metrics import WindowedTails

            params = dict(self.fault_params)
            tail_window = float(
                params.pop("tail_window_cycles", DEFAULT_TAIL_WINDOW_CYCLES)
            )
            if tail_window <= 0:
                raise WorkloadError("tail_window_cycles must be positive")
            self._window_tails = WindowedTails(tail_window)
            self._injector = build_fault_injector(
                machine, self.faults, params, seed=self.seed,
                core_ids=[core.core_id for core in cores],
            )
            self._injector.install(horizon=self.warmup_cycles + self.measure_cycles)
            self._fault_state = self._injector.state
        else:
            self._injector = None
            self._fault_state = None
            self._window_tails = None
        obs = obs_hooks.active()
        if obs is not None:
            # Probes sample at the session's cadence over the known run
            # horizon (warm-up + measurement); lazily imported so runs with
            # observability disabled never touch the obs machinery.
            from repro.obs.sampler import attach_driver_sampler

            attach_driver_sampler(obs, self)
        for state in self._states:
            for core in state.cores:
                core.use_exact_latency()
                core.open_loop(
                    max_outstanding=self.max_outstanding,
                    on_op_complete=self._completion_counter(state),
                )
        for state in self._states:
            self._schedule_next(state)
        # Warm up, then measure from a clean slate (§5 methodology).
        machine.run(until=self.warmup_cycles)
        for core in cores:
            core.reset_measurements()
        for state in self._states:
            state.reset_counters()
        self._measure_start = machine.sim.now
        machine.run(until=self.warmup_cycles + self.measure_cycles)
        # Freeze the arrival clocks and stop the cores issuing.
        for state in self._states:
            state.frozen = True
        for core in cores:
            core.stop()
        return self._collect(cores)

    def _collect(self, cores: List) -> OpenLoopResult:
        result = OpenLoopResult(
            rate_per_kcycle=self.rate_per_kcycle,
            arrivals=self.arrivals,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            queue_depth=self.queue_depth,
            max_outstanding=self.max_outstanding,
            frequency_ghz=self.machine.config.cores.frequency_ghz,
            faults=self.faults,
        )
        overall = LatencyHistogram("open-loop-latency")
        depth = StatAccumulator("queue-depth")
        for state in self._states:
            tenant_hist = state.merged_histogram()
            overall.merge(tenant_hist)
            depth.merge(state.queue_depth)
            completed = state.completed
            result.arrived += state.arrived
            result.injected += state.arrived - state.dropped - state.fault_dropped
            result.completed += completed
            result.dropped += state.dropped
            result.fault_dropped += state.fault_dropped
            share_backlog = sum(core.queued for core in state.cores)
            result.final_backlog += share_backlog
            tenant_stats = {
                "weight": state.tenant.weight,
                "arrivals": state.process.name,
                "cores": len(state.cores),
                "arrived": state.arrived,
                "injected": state.arrived - state.dropped - state.fault_dropped,
                "completed": completed,
                "dropped": state.dropped,
                "drop_fraction": state.dropped / state.arrived if state.arrived else 0.0,
                "mean_queue_depth": state.queue_depth.mean,
                "final_backlog": share_backlog,
                "exhausted": state.exhausted,
                "latency_cycles": tenant_hist.as_dict(),
            }
            if self.faults is not None:
                # Added only on faulted runs so fault-free per-tenant dicts
                # stay byte-identical to pre-fault results.
                tenant_stats["fault_dropped"] = state.fault_dropped
                tenant_stats["fault_drop_fraction"] = (
                    state.fault_dropped / state.arrived if state.arrived else 0.0
                )
            result.tenants[state.tenant.name] = tenant_stats
        result.mean_queue_depth = depth.mean
        result.latency_cycles = overall.as_dict()
        injector = self._injector
        if injector is not None:
            fstate = self._fault_state
            tails = self._window_tails
            result.fault_windows = fstate.windows
            result.fault_hits = fstate.hits
            result.fault_profile = {
                "model": injector.model.name,
                "intensity": injector.model.intensity,
                "fingerprint": injector.fingerprint(),
                "schedule_fingerprint": injector.schedule.schedule_fingerprint(),
                "windows": [[on, off] for on, off in injector.windows],
                "tail_window_cycles": tails.window_cycles,
                "window_p99": [list(row) for row in tails.window_percentiles(99.0)],
            }
            coherence = getattr(self.machine, "coherence", None)
            if coherence is not None:
                result.fault_profile["directory_retries"] = coherence.directory_retries
                result.fault_profile["retry_backoff_cycles"] = (
                    coherence.retry_backoff_cycles
                )
            if injector.cascade is not None and injector.cascade_model is not None:
                # Cascade sub-document only on cascading runs, so plain
                # faulted results keep their pre-cascade byte layout.
                result.fault_profile["cascade"] = {
                    "model": injector.cascade_model.name,
                    "intensity": injector.cascade_model.intensity,
                    "probability": injector.cascade.probability,
                    "delay_cycles": injector.cascade.delay_cycles,
                    "triggered": injector.triggered,
                    "windows": [[on, off] for on, off in injector.cascade_windows],
                    "fingerprint": injector.cascade.cascade_fingerprint(injector.windows),
                }
        return result
