"""The shared workload lifecycle: pinned outputs and the README recipe.

Every workload binds to the machine through ``Workload.setup`` and is fed
through ``Workload.inject`` / ``Workload.request_stream``.  These tests pin
what the five registered workloads report closed loop, and what the four
streaming ones report open loop, as sha256 digests of their sort-keys JSON
documents: any change to the binding, the injection loop or a metric shows
up here.  The README's custom-workload recipe is executed verbatim and run
both ways.
"""

import hashlib
import json
import os
import re

import pytest

from repro.load import OpenLoopDriver
from repro.scenario.builder import MachineBuilder
from repro.scenario.registry import WORKLOADS
from repro.scenario.spec import ScenarioSpec

SMALL = {"cores.count": 16}

#: Closed-loop parameters and the digest of ``MachineBuilder(spec).run().metrics``.
CLOSED_LOOP = {
    "uniform_random": ({"active_cores": 2, "ops_per_core": 4},
                       "28b98f0ee22a713684d13f54ae846312ba4c1d7dfd265448379c2a146685d90a"),
    "hotspot": ({"active_cores": 2, "ops_per_core": 4},
                "a28a56a1cd560f631ea5fe61dc764f8eae20b8a6595f2f61f61c5065d1abe5b3"),
    "rw_mix": ({"active_cores": 2, "ops_per_core": 4},
               "0ad1c929d9a9b28fca2c52899d45cdce8185a16e4a10ebcdb0bb600f7628d4ea"),
    "kvstore": ({"active_cores": 2, "gets_per_core": 4, "rack_nodes": 16},
                "6c1a82a226ac2afed94e508035d709167b4ddd57b4c9b55dd348ccfaf98e56b1"),
    "graph_traversal": ({"active_cores": 2, "max_vertices": 12, "rack_nodes": 16,
                         "graph_vertices": 128, "graph_edges_per_vertex": 4},
                        "abbbee6e738941ec82f825c97b96b470a3342252eab277ec50f6776f52cf0ce3"),
}

#: Digest of ``OpenLoopDriver.from_spec(...).run().to_dict()`` at 8 req/kcycle
#: (Poisson, seed 1, 1k warm-up + 4k measured cycles, default parameters).
OPEN_LOOP = {
    "uniform_random": "141d116abfa9e1d3174289a770b1c07ddb67147efda386bd4ad76f06020c46e3",
    "hotspot": "48cfc3a11f020a4c28db7434ce500507a20fa0468872d9906045e5dd5d1319c8",
    "rw_mix": "0284ede6223869adc3db825eb9038ea9dde73d23e289ea0ef5e53389412a42ba",
    "kvstore": "fcd412907197fbd387632aa0234ff223412f43ab130ff649bb9a905dad554625",
}

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode("utf-8")).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("workload", sorted(CLOSED_LOOP))
    def test_closed_loop_metrics_pinned(self, workload):
        params, pinned = CLOSED_LOOP[workload]
        spec = ScenarioSpec(workload=workload, workload_params=params, config_overrides=SMALL)
        assert digest(MachineBuilder(spec).run().metrics) == pinned

    @pytest.mark.parametrize("workload", sorted(OPEN_LOOP))
    def test_open_loop_result_pinned(self, workload):
        spec = ScenarioSpec(workload=workload, config_overrides=SMALL)
        driver = OpenLoopDriver.from_spec(spec, 8.0, warmup_cycles=1_000, measure_cycles=4_000)
        assert digest(driver.run().to_dict()) == OPEN_LOOP[workload]


def readme_recipe() -> str:
    """The README's custom-workload code block."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    recipes = [block for block in blocks if '@register_workload("burst")' in block]
    assert len(recipes) == 1, "README must hold exactly one burst recipe"
    return recipes[0]


class TestReadmeRecipe:
    def test_recipe_runs_closed_and_open_loop(self):
        namespace = {}
        exec(compile(readme_recipe(), "README.md", "exec"), namespace)
        try:
            spec = ScenarioSpec(workload="burst", workload_params={"active_cores": 2, "ops_per_core": 8},
                                config_overrides=SMALL)
            metrics = MachineBuilder(spec).run().metrics
            assert metrics["completed_ops"] == 16
            assert metrics["burst_ops"] == 8
            assert metrics["application_gbps"] > 0
            result = OpenLoopDriver.from_spec(
                spec, 4.0, warmup_cycles=500, measure_cycles=2_000).run()
            assert result.completed > 0
            assert result.dropped == 0
        finally:
            WORKLOADS.unregister("burst")
        assert "burst" not in WORKLOADS
