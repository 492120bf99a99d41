#!/usr/bin/env python
"""cProfile recipe for the simulation hot path.

Profiles either the NOC packet-injection microbenchmark (the same mix the
perf baseline measures, at a chosen load regime) or any registered
experiment spec, and prints the top functions by internal time.  This is
the tool that found the wins behind lookahead hop fusion and the
allocation-free event path — start here before optimising anything.

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
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def profile_injection(packets: int, batch: int) -> cProfile.Profile:
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
    fabric = NocFabric(sim, topology, config.noc)
    profiler = cProfile.Profile()
    profiler.enable()
    if batch <= 1:
        # Self-paced chain: each delivery injects the next packet.
        requests = iter(plan)
        send = fabric.send

        def inject(_packet=None):
            request = next(requests, None)
            if request is not None:
                send(request[0], request[1], request[2], request[3], inject)

        inject()
        sim.run()
    else:
        for position, (src, dst, nbytes, cls) in enumerate(plan):
            fabric.send(src, dst, nbytes, cls)
            if position % batch == batch - 1:
                sim.run()
        sim.run()
    profiler.disable()
    assert fabric.packets_delivered == packets
    print("%d packets, %d events, %d hops fused\n"
          % (packets, sim.events_executed, fabric.lifetime_fused_hops))
    return profiler


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
                        "of the injection microbenchmark")
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
    args = parser.parse_args(argv)

    if args.experiment:
        profiler = profile_experiment(args.experiment, args.assignments)
    else:
        profiler = profile_injection(args.packets, args.batch)
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
