"""The packet mix and the obs-overhead check of ``tools/profile_hotpath.py``."""

from __future__ import annotations

import pytest

from helpers import load_tool
from repro.obs.stream import read_stream, validate_record

hotpath = load_tool("profile_hotpath")

#: Packets per run here; the tool's own runs inject 40,000.
PACKETS = 2_000


def test_batched_injection_delivers_every_packet():
    plan, sim, fabric = hotpath.injection_mix(PACKETS)
    hotpath.inject(plan, sim, fabric, batch=64)
    assert fabric.packets_delivered == PACKETS


def test_self_paced_injection_fuses(monkeypatch):
    # Pinned on, so that a REPRO_HOP_FUSION=0 environment keeps the bound.
    monkeypatch.setenv("REPRO_HOP_FUSION", "1")
    plan, sim, fabric = hotpath.injection_mix(PACKETS)
    hotpath.inject(plan, sim, fabric, batch=1)
    assert fabric.packets_delivered == PACKETS
    assert fabric.lifetime_fused_hops > 0
    # With one packet in flight a fused walk costs at most two events.
    assert sim.events_executed <= 2 * PACKETS


@pytest.mark.parametrize("batch", [1, 64])
def test_python_call_count_is_exact(batch):
    counts = [hotpath.python_calls(hotpath.profile_injection(PACKETS, batch))
              for _ in range(2)]
    assert counts[0] == counts[1] > PACKETS


def test_sampled_injection_streams_valid_records(tmp_path, monkeypatch):
    monkeypatch.setattr(hotpath, "OBS_PACKETS", PACKETS)
    path = str(tmp_path / "obs.jsonl")
    assert hotpath.injection_rate() > 0 and hotpath.injection_rate(path) > 0
    records = read_stream(path)
    # Two probes sampled after each drain of 64 packets and after the last.
    assert len(records) == 2 * (PACKETS // hotpath.OBS_BATCH + 1)
    assert all(validate_record(record) == [] for record in records)


@pytest.mark.parametrize("obs_rate,status", [(98.0, 0), (90.0, 1)])
def test_obs_overhead_fails_past_its_bound(monkeypatch, capsys, obs_rate, status):
    monkeypatch.setattr(hotpath, "injection_rate",
                        lambda path=None: 100.0 if path is None else obs_rate)
    assert hotpath.obs_overhead() == status
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == hotpath.OBS_PAIRS + 1
    assert lines[-1].startswith("obs overhead: median %.1f%%" % (100.0 - obs_rate))
