"""Microbenchmarks of the simulation core, recording a JSON perf baseline.

Unlike the figure benchmarks (which regenerate paper results), these measure
the *simulator itself*: raw event-kernel throughput and packet injection
through the mesh NOC fabric.  Each run writes a machine-readable baseline
(``perf_baseline.json`` next to this file, or ``$PERF_BASELINE_PATH``) so
future optimisation PRs have a trajectory to compare against; see the
"Performance methodology" section of the README for the format.

The assertions are deliberately loose sanity checks (rates must be positive
and the workloads must complete) — regressions are judged from the recorded
baselines, not by gating thresholds that would flake across machines.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from bench_params import BASELINE_SCHEMA, baseline_path as _baseline_path, \
    record_baseline as _record
from repro.config import MessageClass, SystemConfig
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.scenario.builder import MachineBuilder
from repro.scenario.spec import ScenarioSpec
from repro.sim import perf
from repro.sim.engine import Simulator

#: Events executed by the pure-kernel benchmark.
KERNEL_EVENTS = 200_000
#: Packets injected by the NOC fast-path benchmark.
INJECTED_PACKETS = 40_000
#: Operations per core driven by the scenario-composition benchmark.
SCENARIO_OPS_PER_CORE = 32


def test_bench_event_kernel():
    """Self-rescheduling callback chains: pure queue push/pop/dispatch cost."""
    sim = Simulator()
    remaining = [KERNEL_EVENTS]  # shared budget across all chains

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1, tick)

    chains = 64
    started = time.perf_counter()
    for _ in range(chains):
        sim.schedule(1, tick)
    sim.run()
    wall = time.perf_counter() - started
    assert sim.events_executed >= KERNEL_EVENTS
    events_per_s = sim.events_executed / wall
    assert events_per_s > 0
    _record("event_kernel", {
        "events": sim.events_executed,
        "wall_s": wall,
        "events_per_s": events_per_s,
        "peak_pending_events": sim.peak_pending_events,
    })
    print("\nevent kernel: %.0f events/s (%d events in %.3f s)"
          % (events_per_s, sim.events_executed, wall))


def test_bench_packet_injection():
    """Deterministic all-to-all packet mix on the 8x8 mesh (CDR-extended)."""
    config = SystemConfig.paper_defaults()
    classes = list(MessageClass)
    with perf.session() as session:
        sim = Simulator()
        topology = MeshTopology(8, config.noc)
        fabric = NocFabric(sim, topology, config.noc)
        for i in range(INJECTED_PACKETS):
            src = topology.tile_coord(i % 64)
            dst = topology.tile_coord((i * 7 + 13) % 64)
            fabric.send(src, dst, 64 * (1 + i % 4), classes[i % len(classes)])
            if i % 64 == 63:
                sim.run()
        sim.run()
    assert fabric.packets_delivered == INJECTED_PACKETS
    assert session.packets_per_s > 0
    _record("packet_injection", {
        "packets": session.packets,
        "events": session.events,
        "wall_s": session.wall_s,
        "packets_per_s": session.packets_per_s,
        "events_per_s": session.events_per_s,
        "peak_pending_events": session.peak_pending_events,
        "fused_hops": session.fused_hops,
        "fast_events": session.fast_events,
        "route_cache_entries": len(fabric._bound_routes),
    })
    print("\npacket injection: %.0f packets/s, %.0f events/s (%d packets in %.3f s)"
          % (session.packets_per_s, session.events_per_s, session.packets, session.wall_s))


def test_bench_packet_injection_obs(tmp_path):
    """The ``packet_injection`` mix with live telemetry enabled.

    Identical deterministic all-to-all src/dst/size/class mix, but sampled
    by the obs subsystem: a session with the ``throughput`` and
    ``heap_health`` probes streams JSONL to a scratch file, and the sampler
    fires between injection batches (the batched drain-to-quiescence ``run``
    calls leave no bounded horizon for self-scheduled ticks).  The baseline
    row tracks the overhead of observability on the hottest path; CI
    soft-gates the obs-enabled ``packets_per_s`` at <= 5% below the plain
    benchmark's via ``tools/check_perf_baseline.py``.
    """
    from repro.obs.probes import ProbeContext
    from repro.obs.sampler import Sampler
    from repro.obs.session import ObsSession
    from repro.obs.stream import ObsStream

    config = SystemConfig.paper_defaults()
    classes = list(MessageClass)
    stream_path = str(tmp_path / "bench_obs.jsonl")
    obs = ObsSession(
        ObsStream.open(stream_path),
        probes=["throughput", "heap_health"],
        sample_cycles=200.0,
    )
    with perf.session() as session:
        with obs.activate(run="packet_injection_obs"):
            sim = Simulator()
            topology = MeshTopology(8, config.noc)
            fabric = NocFabric(sim, topology, config.noc)
            sampler = Sampler(
                obs, sim, ProbeContext(sim=sim, fabric=fabric), horizon=0.0
            )
            for i in range(INJECTED_PACKETS):
                src = topology.tile_coord(i % 64)
                dst = topology.tile_coord((i * 7 + 13) % 64)
                fabric.send(src, dst, 64 * (1 + i % 4), classes[i % len(classes)])
                if i % 64 == 63:
                    sim.run()
                    sampler.sample_now()
            sim.run()
            sampler.sample_now()
    records = obs.stream.records
    obs.close()
    assert fabric.packets_delivered == INJECTED_PACKETS
    assert records > 0 and session.packets_per_s > 0
    _record("packet_injection_obs", {
        "packets": session.packets,
        "events": session.events,
        "wall_s": session.wall_s,
        "packets_per_s": session.packets_per_s,
        "events_per_s": session.events_per_s,
        "peak_pending_events": session.peak_pending_events,
        "fused_hops": session.fused_hops,
        "fast_events": session.fast_events,
        "obs_records": records,
    })
    print("\npacket injection (obs): %.0f packets/s, %d stream records"
          % (session.packets_per_s, records))


def test_bench_packet_injection_fused(monkeypatch):
    """Low-load injection: one packet in flight, the regime hop fusion owns.

    The same all-to-all src/dst/size/class mix as ``packet_injection``, but
    self-paced — each delivery callback injects the next packet, so the NOC
    is otherwise idle.  ``send`` acquires the first link and schedules the
    continuation, which fuses the rest of the k-hop route into the delivery
    event: at most two events per packet.  This is the regime of the paper's
    latency figures (fig6, table1).
    """
    config = SystemConfig.paper_defaults()
    classes = list(MessageClass)
    topology = MeshTopology(8, config.noc)
    plan = [
        (topology.tile_coord(i % 64), topology.tile_coord((i * 7 + 13) % 64),
         64 * (1 + i % 4), classes[i % len(classes)])
        for i in range(INJECTED_PACKETS)
    ]
    requests = iter(plan)
    with perf.session() as session:
        sim = Simulator()
        # Fusion pinned on explicitly: this benchmark *measures* the fused
        # path, so a REPRO_HOP_FUSION=0 A/B environment must not break its
        # events-per-packet assertions.
        monkeypatch.setenv("REPRO_HOP_FUSION", "1")
        fabric = NocFabric(sim, topology, config.noc)
        send = fabric.send

        def inject():
            request = next(requests, None)
            if request is not None:
                send(request[0], request[1], request[2], request[3], inject)

        inject()
        sim.run()
    assert fabric.packets_delivered == INJECTED_PACKETS
    assert session.packets_per_s > 0
    assert session.fused_hops > 0
    # Fully fused low-load injection needs at most two events per packet.
    assert session.events <= 2 * INJECTED_PACKETS
    _record("packet_injection_fused", {
        "packets": session.packets,
        "events": session.events,
        "wall_s": session.wall_s,
        "packets_per_s": session.packets_per_s,
        "events_per_s": session.events_per_s,
        "peak_pending_events": session.peak_pending_events,
        "fused_hops": session.fused_hops,
        "fast_events": session.fast_events,
    })
    print("\nfused packet injection: %.0f packets/s, %.0f events/s, %d hops fused"
          % (session.packets_per_s, session.events_per_s, session.fused_hops))


def test_bench_scenario_hotspot():
    """Registry-composed hotspot scenario on the full 64-core chip.

    Exercises the whole MachineBuilder path (spec resolution, registry
    lookups, SoC construction) plus the contended hot-window traffic of the
    new workload, so the baseline tracks scenario-composition overhead as
    well as raw simulation throughput.
    """
    spec = ScenarioSpec(
        design="split",
        workload="hotspot",
        workload_params={"active_cores": 16, "ops_per_core": SCENARIO_OPS_PER_CORE},
    )
    with perf.session() as session:
        result = MachineBuilder(spec).run()
    expected_ops = 16 * SCENARIO_OPS_PER_CORE
    assert result.metrics["completed_ops"] == expected_ops
    assert session.events_per_s > 0
    _record("scenario_hotspot", {
        "completed_ops": result.metrics["completed_ops"],
        "elapsed_cycles": result.metrics["elapsed_cycles"],
        "application_gbps": result.metrics["application_gbps"],
        "max_link_utilization": result.metrics["max_link_utilization"],
        "events": session.events,
        "wall_s": session.wall_s,
        "events_per_s": session.events_per_s,
        "fused_hops": session.fused_hops,
        "fast_events": session.fast_events,
        "scenario_fingerprint": result.scenario_fingerprint,
    })
    print("\nscenario hotspot: %.0f events/s (%d ops in %.3f s)"
          % (session.events_per_s, expected_ops, session.wall_s))


def test_baseline_file_is_valid_json():
    """A written baseline must round-trip and carry sane counters."""
    path = _baseline_path()
    if not os.path.exists(path):
        pytest.skip("no baseline written yet (benchmarks not run)")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == BASELINE_SCHEMA
    assert document["benchmarks"]
    for counters in document["benchmarks"].values():
        assert counters["wall_s"] > 0
        assert counters["events_per_s"] > 0
