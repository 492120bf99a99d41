"""A distributed graph-traversal workload (§1, §2.1).

Graph analytics is the paper's second motivating application class: graphs
are hard to partition, so once the dataset exceeds one node's memory a large
fraction of every traversal step touches adjacency lists stored on other
nodes.  Those accesses are coarse-grained (an adjacency list of a few
hundred neighbours spans kilobytes), which is exactly the regime where the
RGP's hardware unrolling and the NI backend placement matter.

The workload builds a synthetic power-law graph, hash-partitions its
vertices across the rack, and runs a bounded breadth-first traversal from
the simulated node: visiting a remote vertex issues a one-sided remote read
of that vertex's adjacency list (one WQ entry, unrolled into cache-block
requests by the RGP).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.node.core_model import CoreModel
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import Workload

GRAPH_CTX_ID = 0
PARTITION_BYTES = 64 * 1024 * 1024
LOCAL_BUFFER_BASE = 0xB000_0000
#: Bytes per encoded edge (destination vertex id).
EDGE_BYTES = 8


@dataclass
class GraphResult:
    """Outcome of one graph-traversal run."""

    design: str
    vertices_visited: int
    remote_vertex_fetches: int
    edges_traversed: int
    bytes_fetched: int
    elapsed_cycles: float
    frequency_ghz: float

    @property
    def edges_per_microsecond(self) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return self.edges_traversed / self.elapsed_cycles * self.frequency_ghz * 1e3

    @property
    def fetch_bandwidth_gbps(self) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return self.bytes_fetched / self.elapsed_cycles * self.frequency_ghz


class SyntheticPowerLawGraph:
    """A small deterministic power-law graph (preferential attachment)."""

    def __init__(self, vertices: int = 4096, edges_per_vertex: int = 16, seed: int = 3) -> None:
        if vertices <= 2 or edges_per_vertex <= 0:
            raise WorkloadError("graph needs at least 3 vertices and 1 edge per vertex")
        self.vertices = vertices
        self.edges_per_vertex = edges_per_vertex
        rng = random.Random(seed)
        self.adjacency: Dict[int, List[int]] = {0: [1], 1: [0]}
        targets: List[int] = [0, 1]
        for vertex in range(2, vertices):
            neighbours = set()
            for _ in range(min(edges_per_vertex, len(targets))):
                neighbours.add(targets[rng.randrange(len(targets))])
            self.adjacency[vertex] = sorted(neighbours)
            for neighbour in neighbours:
                targets.append(neighbour)
            targets.append(vertex)
            for neighbour in neighbours:
                self.adjacency.setdefault(neighbour, []).append(vertex)

    def degree(self, vertex: int) -> int:
        return len(self.adjacency.get(vertex, ()))

    def adjacency_bytes(self, vertex: int) -> int:
        """Size of the vertex's adjacency list in memory."""
        return max(EDGE_BYTES * self.degree(vertex), EDGE_BYTES)


@register_workload("graph_traversal")
class GraphTraversalWorkload(Workload):
    """Bounded BFS over a hash-partitioned synthetic graph."""

    name = "graph_traversal"
    param_defaults = {
        "rack_nodes": None,
        "active_cores": 4,
        "max_vertices": 200,
        "seed": 5,
        "graph_vertices": 4096,
        "graph_edges_per_vertex": 16,
        "graph_seed": 3,
    }

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        graph: Optional[SyntheticPowerLawGraph] = None,
        rack_nodes: Optional[int] = None,
        active_cores: int = 4,
        max_vertices: int = 200,
        seed: int = 5,
    ) -> None:
        super().__init__(config)
        self.graph = graph if graph is not None else SyntheticPowerLawGraph()
        self.rack_nodes = rack_nodes if rack_nodes is not None else self.config.rack.nodes
        if active_cores <= 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [1, %d]" % self.config.cores.count)
        if max_vertices <= 0:
            raise WorkloadError("must visit at least one vertex")
        self.active_cores = active_cores
        self.max_vertices = max_vertices
        self._rng = random.Random(seed)
        self._cores: List[CoreModel] = []
        self._stats = {"visited": 0, "remote": 0, "edges": 0, "bytes": 0}

    @classmethod
    def from_params(cls, config: Optional[SystemConfig] = None, **params: object) -> "GraphTraversalWorkload":
        """Scenario construction: the graph shape is part of the parameters."""
        cls.validate_params(params)
        graph = SyntheticPowerLawGraph(
            vertices=int(params.pop("graph_vertices", cls.param_defaults["graph_vertices"])),
            edges_per_vertex=int(
                params.pop("graph_edges_per_vertex", cls.param_defaults["graph_edges_per_vertex"])
            ),
            seed=int(params.pop("graph_seed", cls.param_defaults["graph_seed"])),
        )
        return cls(config=config, graph=graph, **params)

    def owner_node(self, vertex: int) -> int:
        """Hash partitioning of vertices across the rack."""
        return (vertex * 2654435761) % self.rack_nodes

    def vertex_offset(self, vertex: int) -> int:
        slots = PARTITION_BYTES // 4096
        return (vertex % slots) * 4096

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _plan_traversal(self) -> List[int]:
        """BFS order from vertex 0, bounded to ``max_vertices`` vertices."""
        frontier = [0]
        visited = {0}
        order: List[int] = []
        while frontier and len(order) < self.max_vertices:
            vertex = frontier.pop(0)
            order.append(vertex)
            for neighbour in self.graph.adjacency.get(vertex, ()):
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        return order

    def _entries_for_core(self, core_id: int, vertices: List[int], stats: dict) -> Iterator[WorkQueueEntry]:
        for index, vertex in enumerate(vertices):
            stats["visited"] += 1
            stats["edges"] += self.graph.degree(vertex)
            owner = self.owner_node(vertex)
            if owner == 0:
                continue  # local partition, no remote fetch needed
            nbytes = self.graph.adjacency_bytes(vertex)
            stats["remote"] += 1
            stats["bytes"] += nbytes
            yield WorkQueueEntry(
                op=RemoteOp.READ,
                ctx_id=GRAPH_CTX_ID,
                dst_node=owner,
                remote_offset=self.vertex_offset(vertex),
                local_buffer=LOCAL_BUFFER_BASE + core_id * (1 << 20) + index * 4096,
                length=nbytes,
            )

    # ------------------------------------------------------------------
    # Workload lifecycle
    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        self.machine = machine
        machine.register_context(GRAPH_CTX_ID, PARTITION_BYTES)
        RemoteEndEmulator(
            machine,
            hops=2,
            rate_match_incoming=True,
            incoming_ctx_id=GRAPH_CTX_ID,
            incoming_region_bytes=PARTITION_BYTES,
        )
        order = self._plan_traversal()
        self._shards = [order[i::self.active_cores] for i in range(self.active_cores)]
        self._stats = {"visited": 0, "remote": 0, "edges": 0, "bytes": 0}
        self._cores = []
        for core_id, shard in enumerate(self._shards):
            if not shard:
                continue
            qp = machine.create_queue_pair(core_id)
            self._cores.append(CoreModel(core_id, machine, qp))

    def inject(self) -> None:
        shards = {core_id: shard for core_id, shard in enumerate(self._shards) if shard}
        for core in self._cores:
            core.start(
                self._entries_for_core(core.core_id, shards[core.core_id], self._stats),
                max_outstanding=8,
            )

    def result(self) -> GraphResult:
        """The finished run as the legacy typed result record."""
        return GraphResult(
            design=self.config.ni.design,
            vertices_visited=self._stats["visited"],
            remote_vertex_fetches=self._stats["remote"],
            edges_traversed=self._stats["edges"],
            bytes_fetched=self._stats["bytes"],
            elapsed_cycles=self.machine.sim.now,
            frequency_ghz=self.config.cores.frequency_ghz,
        )

    def metrics(self) -> dict:
        result = self.result()
        return {
            "design": result.design,
            "vertices_visited": result.vertices_visited,
            "remote_vertex_fetches": result.remote_vertex_fetches,
            "edges_traversed": result.edges_traversed,
            "bytes_fetched": result.bytes_fetched,
            "elapsed_cycles": result.elapsed_cycles,
            "edges_per_microsecond": result.edges_per_microsecond,
            "fetch_bandwidth_gbps": result.fetch_bandwidth_gbps,
        }

    def run(self) -> GraphResult:
        """Traverse the graph and report edge throughput and fetch bandwidth."""
        soc = ManycoreSoc(self.config)
        self.setup(soc)
        self.inject()
        self.drain()
        return self.result()
