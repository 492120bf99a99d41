"""Golden outputs: every simulated output family, pinned as sha256 digests.

A refactor of the kernel, the NOC or a model must leave these bytes alone.
Each experiment result is pinned three ways, with its wall time and perf
counters cleared: ``to_csv()``, ``format()`` and the sort-keys JSON of
``to_dict()``.  Each faulted open-loop run is pinned by the sort-keys JSON
of its ``to_dict()``.  The exact execution counters of small runs are
pinned too, and must repeat across reruns and across ``--parallel``
campaign workers.  A change that moves a digest or a count is a behaviour
change: it updates the pin and says in CHANGES.md which output moved and
why.
"""

import hashlib
import json

import pytest

from helpers import run_driver
from repro.campaign import Campaign, RunRequest
from repro.experiments.registry import get_spec

#: Experiment runs: (spec name, parameters, (csv, format, to_dict) digests).
EXPERIMENTS = {
    "fig6": ("fig6", dict(sizes=(64, 1024), iterations=2, warmup=1), (
        "94650c853681b8300042b28d7ed97148359c46f850cb4202878d935ffb7c39d8",
        "f52e96d91b5f9bd372f578d8a3846c936d0fd68f834740f581572a059b01c5a9",
        "cd89d9fe8c04fc7d14cc0ea03a131f9611fdf81d774ae3b90eb4facb5fa8fefd",
    )),
    "table1": ("table1", {}, (
        "3d2294ba63caeb3c26b3499bd1159c25f8bd499997eb4a690670b07f82e37778",
        "a43e19ef65e98cd3d712161edc92690b5bba3461c0463385251b30503ef7b587",
        "896ca453c901313e8e5dd2f9561458268d136e084d568938d5eef22072d60afc",
    )),
    "kvstore_scenario": ("scenario", dict(
        workload="kvstore", params=("active_cores=4", "gets_per_core=6")), (
        "a5c895b7b7ae8b62f3ae1b1cc77ac4e25c207d0a65dde1b4fdbdff24d5f94c9d",
        "b533ce3669f875e9550e1054ebaf02e52c627ec6fd7c8d1af7d0bc85f31e009e",
        "b60611b0a4cae77d78815fc019797ddd97f5198f04e1d3fbd33ebe4b033aa34a",
    )),
    "load_sweep": ("load_sweep", dict(
        loads=(5.0, 40.0), warmup_cycles=1000.0, measure_cycles=4000.0), (
        "6e7c2bf818015f09a1ee3b7b601e7a9f5987b74f6eb8c6d0124cf097254d4368",
        "6f924f8572a7d1a10fd1f7034289ada1e1a351ea86f45a7cf12590085be8226c",
        "8947463489990f2981fddba11cf4319c0de21694e528ab87a39697f3e5d15a1c",
    )),
    "chaos_sweep": ("chaos_sweep", dict(
        loads=(8.0,), intensities=(0.5,), warmup_cycles=1000.0,
        measure_cycles=4000.0, mtbf_cycles=1200.0, mttr_cycles=600.0), (
        "062f5792504ff8db095e8359c4c2c31e65e4fdb79027f6b601cbdee53db6e742",
        "724122178d30ce23f74f32a9f101119828f8437f80aa7d50a6f8d7df592476e6",
        "1589593977cbb68323b93497ece2f66d14edda8e0f0e9ceb1cf77df90c3c5214",
    )),
}

_WINDOWS = ((1_000.0, 3_000.0), (4_500.0, 6_000.0))

#: Faulted open-loop kvstore runs (``helpers.run_driver``: 1k warm-up + 6k
#: measured cycles, seed 1): (design, rate, fault model, fault parameters,
#: digest of ``to_dict()``).
FAULTED_RUNS = {
    "link_down": ("split", 12.0, "link_down", {"intensity": 0.5, "windows": _WINDOWS},
                  "0e0e7931a621cde1484ee14193a81ac80cb59053e531bdef2b14839327b7379d"),
    "router_degrade": ("split", 12.0, "router_degrade",
                       {"intensity": 0.5, "windows": _WINDOWS},
                       "b2714a135e45cf5ec963b9320f60642a7382a6bcc1b96bea20df30b4104a6190"),
    "packet_loss": ("split", 12.0, "packet_loss", {"intensity": 0.5, "windows": _WINDOWS},
                    "1eef51984348bbb5b9b32749d39693bc7d6913711a9e45ad123cc43edfcc6c6a"),
    "cascade": ("split", 12.0, "router_degrade", {
        "intensity": 0.5, "windows": ((1_000.0, 3_000.0),), "cascade": "slow_node",
        "cascade_probability": 1.0, "cascade_delay_cycles": 250.0},
        "fec485eeea0cfb8c63841beef76f625df3fc8acf897ac18da72e696114d725c3"),
    "blast_radius": ("split", 12.0, "router_degrade", {
        "intensity": 0.5, "windows": ((1_000.0, 3_000.0),), "blast_decay": 0.6,
        "blast_epicenter": 2},
        "cdd4e546a7dd3bd969ad378d3a8cc15382aa8410deedc92fe1f17ca52153a3fa"),
    "directory_corrupt": ("edge", 8.0, "directory_corrupt", {
        "intensity": 1.0, "windows": ((500.0, 6_000.0),)},
        "fc8bae5be3689dd5f832ec83a3cccdd90b2deb33f1c11c9e633fc274a6a001c3"),
}

#: (events, peak pending events) of small runs, from ``metadata.perf``.
#: Table 1 is analytical and runs no events (its empty perf block is checked
#: in test_perf.py), so the simulated Table 3 cross-check stands in for the
#: tables.
EVENT_COUNTS = {
    "fig6": ("fig6", dict(sizes=(64,), iterations=1, warmup=0), (183, 2)),
    "table3": ("table3", dict(simulate=True), (923, 2)),
    "load_sweep": ("load_sweep", dict(
        loads=(8.0,), warmup_cycles=1000.0, measure_cycles=4000.0), (14533, 93)),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(result):
    """The (csv, format, to_dict) digests of a result, timing cleared."""
    result.metadata.wall_time_s = 0.0
    result.metadata.perf = {}
    return (digest(result.to_csv()), digest(result.format()),
            digest(json.dumps(result.to_dict(), sort_keys=True)))


def counts(result):
    perf = result.metadata.perf
    return perf["events"], perf["peak_pending_events"]


class TestExperimentOutputs:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_outputs_pinned(self, name):
        spec_name, params, pinned = EXPERIMENTS[name]
        assert output_digests(get_spec(spec_name).run(**params)) == pinned


class TestFaultedRuns:
    @pytest.mark.parametrize("name", sorted(FAULTED_RUNS))
    def test_driver_result_pinned(self, name):
        design, rate, model, params, pinned = FAULTED_RUNS[name]
        result = run_driver(rate, design=design, faults=model, fault_params=params)
        assert result.fault_windows > 0
        assert digest(json.dumps(result.to_dict(), sort_keys=True)) == pinned


class TestPinnedEventCounts:
    """Any change that moves an event or the queue's peak changes these."""

    @pytest.mark.parametrize("name", sorted(EVENT_COUNTS))
    def test_counts_pinned(self, name):
        spec_name, params, pinned = EVENT_COUNTS[name]
        assert counts(get_spec(spec_name).run(**params)) == pinned


class TestEventDeterminism:
    """The execution counters are part of the reproducibility contract."""

    @pytest.mark.parametrize("name", ["fig6", "load_sweep"])
    def test_reruns_repeat_the_counts(self, name):
        spec_name, params, _ = EVENT_COUNTS[name]
        first = counts(get_spec(spec_name).run(**params))
        assert first[0] > 0
        assert counts(get_spec(spec_name).run(**params)) == first

    def test_parallel_campaign_workers_match_serial_run(self):
        """--parallel fans entries over processes; counters must not move."""
        def requests():
            return [
                RunRequest("fig6", {"sizes": [64], "iterations": 1, "warmup": 0}),
                RunRequest("fig6", {"sizes": [1024], "iterations": 1, "warmup": 0}),
            ]

        serial = Campaign(requests()).run()
        parallel = Campaign(requests(), max_workers=2).run()
        assert serial.succeeded == parallel.succeeded == 2
        for entry_s, entry_p in zip(serial.entries, parallel.entries):
            assert entry_s.result.rows == entry_p.result.rows
            assert counts(entry_s.result) == counts(entry_p.result)
            assert counts(entry_s.result)[0] > 0
        assert serial.simulated_events == parallel.simulated_events
