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
from typing import Dict, Iterator, List, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import CTX_ID, REGION_BYTES, Workload

LOCAL_BUFFER_BASE = 0xB000_0000
#: Bytes per encoded edge (destination vertex id).
EDGE_BYTES = 8


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
    """Bounded BFS over a hash-partitioned synthetic graph.

    The traversal is planned up front and dealt round-robin to the active
    cores.  It is bounded by nature, so the workload defines no endless
    :meth:`entries` stream and cannot be driven open loop.
    """

    name = "graph_traversal"
    param_defaults = {
        "rack_nodes": None,
        "active_cores": 4,
        "max_vertices": 200,
        "graph_vertices": 4096,
        "graph_edges_per_vertex": 16,
        "graph_seed": 3,
    }
    hops = 2

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        graph: Optional[SyntheticPowerLawGraph] = None,
        rack_nodes: Optional[int] = None,
        active_cores: int = 4,
        max_vertices: int = 200,
        graph_vertices: int = 4096,
        graph_edges_per_vertex: int = 16,
        graph_seed: int = 3,
    ) -> None:
        """``graph`` overrides the synthetic graph the ``graph_*`` parameters shape."""
        super().__init__(config)
        if graph is None:
            graph = SyntheticPowerLawGraph(
                int(graph_vertices), int(graph_edges_per_vertex), int(graph_seed)
            )
        self.graph = graph
        self.rack_nodes = rack_nodes if rack_nodes is not None else self.config.rack.nodes
        if active_cores <= 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [1, %d]" % self.config.cores.count)
        if max_vertices <= 0:
            raise WorkloadError("must visit at least one vertex")
        self.active_cores = active_cores
        self.max_vertices = max_vertices
        order = self._plan_traversal()
        self._shards = [order[i::active_cores] for i in range(active_cores)]
        self._stats = {"visited": 0, "remote": 0, "edges": 0, "bytes": 0}

    def owner_node(self, vertex: int) -> int:
        """Hash partitioning of vertices across the rack."""
        return (vertex * 2654435761) % self.rack_nodes

    def vertex_offset(self, vertex: int) -> int:
        slots = REGION_BYTES // 4096
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

    def _visit(self, core_id: int) -> Iterator[WorkQueueEntry]:
        """Remote adjacency-list reads for one core's shard of the traversal."""
        stats = self._stats
        for index, vertex in enumerate(self._shards[core_id]):
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
                ctx_id=CTX_ID,
                dst_node=owner,
                remote_offset=self.vertex_offset(vertex),
                local_buffer=LOCAL_BUFFER_BASE + core_id * (1 << 20) + index * 4096,
                length=nbytes,
            )

    # ------------------------------------------------------------------
    # Workload lifecycle
    # ------------------------------------------------------------------
    def core_ids(self) -> Sequence[int]:
        """Only cores whose shard holds at least one vertex."""
        return [core_id for core_id, shard in enumerate(self._shards) if shard]

    def inject(self) -> None:
        for core in self._cores:
            core.start(self._visit(core.core_id), max_outstanding=self.max_outstanding)

    def metrics(self) -> dict:
        """Traversal counts, edge throughput and adjacency fetch bandwidth."""
        stats = self._stats
        elapsed = self.machine.sim.now
        frequency = self.config.cores.frequency_ghz
        return {
            "design": self.config.ni.design,
            "vertices_visited": stats["visited"],
            "remote_vertex_fetches": stats["remote"],
            "edges_traversed": stats["edges"],
            "bytes_fetched": stats["bytes"],
            "elapsed_cycles": elapsed,
            "edges_per_microsecond": (
                stats["edges"] / elapsed * frequency * 1e3 if elapsed > 0 else 0.0
            ),
            "fetch_bandwidth_gbps": stats["bytes"] / elapsed * frequency if elapsed > 0 else 0.0,
        }
