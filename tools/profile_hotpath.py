#!/usr/bin/env python
"""cProfile recipe for the simulation hot path.

Profiles either a deterministic all-to-all packet mix injected into the 8x8
mesh NOC (at a chosen load regime) or any registered experiment spec, and
prints the top functions by internal time.  This is the tool that found the
wins behind lookahead hop fusion and the allocation-free event path — start
here before optimising anything.

Under the table it prints the exact work counter: the profiled region's
Python-level calls (cProfile's entries for builtins left out) and those
calls per executed event.  Unlike a time, it is the same on every run of
the same work, so a change that removes calls shows it exactly.

Then it prints the pauses of CPython's cyclic garbage collector
per generation (seconds and collections, timed through ``gc.callbacks``).
cProfile charges a pause to whichever function was allocating when it
started, so a large self time on an allocating function may be collector
time; a full (generation 2) collection walks every live tracked object.

Then it prints how many events share each distinct event time.  The kernel
pays one heap push and one pop per distinct time, not per event, so this
ratio is what the time-bucketed queue saves on a workload.

Last, for ``--experiment``, it prints the cyclic garbage the run left: the
objects one ``gc.collect()`` frees after the run's result is dropped,
outside the profiled region.  A finished machine is closed and freed by
reference counting, so this reads 0; anything else is a new reference
cycle that keeps dead machines alive until a full collection.

``--obs-overhead`` profiles nothing: it runs the contended mix (40,000
packets, 64 per drain) ``OBS_PAIRS`` times with and without an obs session
that samples the ``throughput`` and ``heap_health`` probes after every
drain, interleaved in one process and alternating which side runs first.
It prints every pair and the median [q1, q3] of ``1 - obs/plain``
packets/s, and exits 1 when q1 exceeds ``OBS_OVERHEAD_BOUND``.

Examples::

    # Low-load injection (one packet in flight, fusion fully engaged):
    python tools/profile_hotpath.py

    # Contended injection (64 packets per batch, fusion falls back):
    python tools/profile_hotpath.py --batch 64

    # Fusion force-disabled, for before/after comparisons:
    REPRO_HOP_FUSION=0 python tools/profile_hotpath.py

    # A whole experiment through the spec registry:
    python tools/profile_hotpath.py --experiment fig6 --set sizes=64,1024 \
        --set iterations=2 --sort cumtime

    # The contended Fig. 7 path (NIsplit, 4 KiB transfers, 64 cores):
    python tools/profile_hotpath.py --experiment fig7 --set design=split \
        --set sizes=4096 --set warmup_cycles=1000 --set measure_cycles=2000

    # What streaming telemetry costs the contended mix (about 15 s):
    python tools/profile_hotpath.py --obs-overhead
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import statistics
import sys
import tempfile
from time import perf_counter

#: Interleaved (plain, obs) pairs the ``--obs-overhead`` check runs.
OBS_PAIRS = 21
#: Largest share of the plain mix's packets/s that sampling may cost, at q1.
OBS_OVERHEAD_BOUND = 0.05
#: The ``--obs-overhead`` mix: packets, and packets sent per drain.
OBS_PACKETS = 40_000
OBS_BATCH = 64


class CollectorPauses:
    """Wall seconds and count of cyclic-collector runs per generation.

    Installed in ``gc.callbacks`` for the span of a ``with`` block.
    """

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += perf_counter() - self._started
        self.collections[generation] += 1

    def __enter__(self) -> "CollectorPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)

    def report(self) -> str:
        rows = ["gen%d %.3f s in %d" % (generation, seconds, count)
                for generation, (seconds, count)
                in enumerate(zip(self.seconds, self.collections))]
        return "collector pauses: %s; total %.3f s" % ("; ".join(rows), sum(self.seconds))


def python_calls(profiler: cProfile.Profile) -> int:
    """Python-level calls in ``profiler``'s region: an exact work counter.

    Builtins (cProfile's file ``~``) are left out, and so are the runs of
    :class:`CollectorPauses`: how often the collector runs depends on the
    heap before the profile, not on the profiled work.
    """
    pauses = CollectorPauses.__call__.__code__
    skipped = (pauses.co_filename, pauses.co_firstlineno, pauses.co_name)
    return sum(entry[1] for key, entry in pstats.Stats(profiler).stats.items()
               if key[0] != "~" and key != skipped)


def injection_mix(packets: int):
    """The all-to-all mix on a fresh 8x8 mesh: ``(plan, sim, fabric)``.

    ``plan`` holds one ``(src, dst, bytes, class)`` per packet.
    """
    from repro.config import MessageClass, SystemConfig
    from repro.noc.fabric import NocFabric
    from repro.noc.mesh import MeshTopology
    from repro.sim.engine import Simulator

    config = SystemConfig.paper_defaults()
    classes = list(MessageClass)
    topology = MeshTopology(8, config.noc)
    plan = [
        (topology.tile_coord(i % 64), topology.tile_coord((i * 7 + 13) % 64),
         64 * (1 + i % 4), classes[i % len(classes)])
        for i in range(packets)
    ]
    sim = Simulator()
    return plan, sim, NocFabric(sim, topology, config.noc)


def inject(plan, sim, fabric, batch: int, after_batch=None) -> None:
    """Send ``plan`` and run it until every packet is delivered.

    With ``batch <= 1`` each delivery injects the next packet (one packet in
    flight); otherwise ``batch`` packets go out per drain, and
    ``after_batch()`` runs after each drain.
    """
    if batch <= 1:
        requests = iter(plan)
        send = fabric.send

        def inject_next():
            request = next(requests, None)
            if request is not None:
                send(request[0], request[1], request[2], request[3], inject_next)

        inject_next()
        sim.run()
    else:
        for position, (src, dst, nbytes, cls) in enumerate(plan):
            fabric.send(src, dst, nbytes, cls)
            if position % batch == batch - 1:
                sim.run()
                if after_batch is not None:
                    after_batch()
        sim.run()
        if after_batch is not None:
            after_batch()
    assert fabric.packets_delivered == len(plan)


def profile_injection(packets: int, batch: int) -> cProfile.Profile:
    plan, sim, fabric = injection_mix(packets)
    profiler = cProfile.Profile()
    profiler.enable()
    inject(plan, sim, fabric, batch)
    profiler.disable()
    print("%d packets, %d events, %d hops fused\n"
          % (packets, sim.events_executed, fabric.lifetime_fused_hops))
    return profiler


def injection_rate(stream_path=None) -> float:
    """Packets/s of the ``--obs-overhead`` mix, sampled into ``stream_path`` if given."""
    from repro.obs.probes import ProbeContext
    from repro.obs.sampler import Sampler
    from repro.obs.session import ObsSession
    from repro.obs.stream import ObsStream

    if stream_path is None:
        plan, sim, fabric = injection_mix(OBS_PACKETS)
        gc.collect()
        started = perf_counter()
        inject(plan, sim, fabric, OBS_BATCH)
        return OBS_PACKETS / (perf_counter() - started)
    session = ObsSession(ObsStream.open(stream_path), probes=["throughput", "heap_health"])
    try:
        with session.activate(run="obs_overhead"):
            plan, sim, fabric = injection_mix(OBS_PACKETS)
            sampler = Sampler(session, sim, ProbeContext(sim=sim, fabric=fabric), horizon=0.0)
            gc.collect()
            started = perf_counter()
            inject(plan, sim, fabric, OBS_BATCH, sampler.sample_now)
            return OBS_PACKETS / (perf_counter() - started)
    finally:
        session.close()


def obs_overhead() -> int:
    """The interleaved obs-overhead check; 1 when q1 is past the bound."""
    overheads = []
    with tempfile.TemporaryDirectory(prefix="obs_overhead-") as scratch:
        stream_path = os.path.join(scratch, "obs.jsonl")
        for index in range(OBS_PAIRS):
            order = (None, stream_path) if index % 2 == 0 else (stream_path, None)
            rates = {path: injection_rate(path) for path in order}
            overheads.append(1.0 - rates[stream_path] / rates[None])
            print("pair %2d (%s first): plain %.0f, obs %.0f packets/s, overhead %+.1f%%"
                  % (index + 1, "plain" if order[0] is None else "obs", rates[None],
                     rates[stream_path], 100.0 * overheads[-1]), flush=True)
    q1, median, q3 = statistics.quantiles(overheads, n=4, method="inclusive")
    failed = q1 > OBS_OVERHEAD_BOUND
    print("obs overhead: median %.1f%% [%.1f%%, %.1f%%] over %d pairs; q1 bound %.0f%%: %s"
          % (100.0 * median, 100.0 * q1, 100.0 * q3, OBS_PAIRS,
             100.0 * OBS_OVERHEAD_BOUND, "FAILED" if failed else "ok"))
    return 1 if failed else 0


def profile_experiment(name: str, assignments: list) -> cProfile.Profile:
    from repro.experiments.registry import get_spec

    spec = get_spec(name)
    params = spec.parse_overrides(assignments)
    profiler = cProfile.Profile()
    profiler.enable()
    spec.run(**params)
    profiler.disable()
    return profiler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", help="profile a registered spec instead "
                        "of the packet mix")
    parser.add_argument("--set", dest="assignments", action="append", default=[],
                        metavar="NAME=VALUE", help="experiment parameter override "
                        "(repeatable; only with --experiment)")
    parser.add_argument("--packets", type=int, default=40_000,
                        help="packets for the injection profile (default 40000)")
    parser.add_argument("--batch", type=int, default=1,
                        help="packets injected per drain; 1 = low load (default)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort column (default tottime)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows to print (default 25)")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="run the interleaved obs-overhead check instead of "
                        "profiling (exit 1 past its bound)")
    args = parser.parse_args(argv)
    if args.obs_overhead:
        return obs_overhead()

    from repro.sim import perf

    with CollectorPauses() as pauses, perf.session() as counts:
        if args.experiment:
            profiler = profile_experiment(args.experiment, args.assignments)
        else:
            profiler = profile_injection(args.packets, args.batch)
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.limit)
    calls = python_calls(profiler)
    print("%d Python-level calls (builtins left out): %.2f per executed event"
          % (calls, calls / counts.events if counts.events else 0.0))
    print(pauses.report())
    per_time = counts.events / counts.event_times if counts.event_times else 0.0
    print("%d events at %d distinct times: %.2f events per time"
          % (counts.events, counts.event_times, per_time))
    if args.experiment:
        print("cyclic garbage left by the run: %d objects" % gc.collect())
    return 0


if __name__ == "__main__":
    sys.exit(main())
