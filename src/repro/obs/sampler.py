"""Sim-time cadence sampling: the bridge from a session to its probes.

A :class:`Sampler` ticks on a simulator's own event queue, bounded by an
explicit *horizon*: the tick at or before the horizon is the last one
scheduled, so attaching a sampler never keeps an otherwise-drained simulator
alive (``Simulator.run()`` with no ``until`` must still terminate).  Hosts
that drive time in batches with drain-to-quiescence runs (the benchmark
harness) skip :meth:`install` and call :meth:`sample_now` between batches
instead.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.probes import ProbeContext


class Sampler:
    """Samples a session's probes against one simulator at a fixed cadence."""

    __slots__ = ("session", "sim", "context", "horizon", "cadence", "probes", "sim_index")

    def __init__(self, session: Any, sim: Any, context: ProbeContext, horizon: float) -> None:
        self.session = session
        self.sim = sim
        self.context = context
        self.horizon = float(horizon)
        self.cadence = session.sample_cycles
        self.probes = session.build_probes()
        index = getattr(sim, "_obs_index", None)
        self.sim_index = session.register_simulator(sim) if index is None else index

    def install(self) -> None:
        """Schedule the first tick (no-op when the horizon is too close)."""
        if self.sim.now + self.cadence <= self.horizon:
            self.sim.schedule(self.cadence, self._tick)

    def sample_now(self) -> None:
        """Sample every probe at the current sim time (no rescheduling)."""
        now = self.sim.now
        emit = self.session.emit_sample
        for probe in self.probes:
            data = probe.sample(self.context)
            if data is not None:
                emit(probe.name, self.sim_index, now, data)

    def _tick(self) -> None:
        self.sample_now()
        if self.sim.now + self.cadence <= self.horizon:
            self.sim.schedule(self.cadence, self._tick)


def attach_driver_sampler(session: Any, driver: Any) -> Sampler:
    """Attach probes to an :class:`~repro.load.driver.OpenLoopDriver` run.

    Called from ``OpenLoopDriver.run()`` once per run, after fault
    installation and before the warm-up window, with the run horizon known
    (warm-up + measurement cycles).  On fault-free runs where the
    ``rolling_tails`` probe is selected, installs a ``WindowedTails`` at the
    probe's window so rolling tails are observable without an injector —
    recording into it is pure bookkeeping and never feeds back into the
    simulation, preserving obs-off byte-identity.
    """
    from repro.faults.metrics import WindowedTails

    sim = driver.machine.sim
    horizon = sim.now + driver.warmup_cycles + driver.measure_cycles
    context = ProbeContext(
        sim=sim,
        fabric=driver.machine.fabric,
        driver=driver,
        states=driver._states,
        tails=None,
        fault_state=driver._fault_state,
    )
    sampler = Sampler(session, sim, context, horizon)
    for probe in sampler.probes:
        if probe.name == "rolling_tails" and driver._window_tails is None:
            driver._window_tails = WindowedTails(probe.window_cycles)
    context.tails = driver._window_tails
    sampler.install()
    return sampler
