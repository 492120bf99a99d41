"""A partitioned in-memory key-value store workload (§1, §2.1).

The paper motivates rack-scale remote memory with distributed key-value
stores whose objects are a few hundred bytes (Facebook's Memcached pools
average ~500 B), so every GET whose key lives on another node becomes a
fine-grained one-sided remote read.  This workload models exactly that:

* the key space is hash-partitioned across the rack's nodes;
* keys are drawn from a Zipf-like popularity distribution (hot keys exist,
  but they are spread over partitions by the hash);
* a GET for a remote key issues one remote read of the object's size from
  the owning node's registered context; local keys are served from local
  memory and only contribute to the local-access counter.

The driver runs on the single simulated node (the paper's methodology) and
reports GET throughput and latency percentiles per NI design.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import CTX_ID, REGION_BYTES, Workload

LOCAL_BUFFER_BASE = 0xA000_0000


class ZipfKeySampler:
    """Deterministic Zipf-like key popularity."""

    def __init__(self, keys: int, skew: float = 0.99, seed: int = 7) -> None:
        if keys <= 0:
            raise WorkloadError("key count must be positive")
        if skew < 0:
            raise WorkloadError("skew cannot be negative")
        self.keys = keys
        self.skew = skew
        self._rng = random.Random(seed)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(min(keys, 1024))]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)

    def sample(self) -> int:
        """Draw a key id; popular ranks map to the head of the key space."""
        point = self._rng.random()
        for rank, edge in enumerate(self._cdf):
            if point <= edge:
                # Spread each popularity rank over the key space deterministically.
                return (rank * 2654435761) % self.keys
        return self._rng.randrange(self.keys)


@register_workload("kvstore")
class KeyValueStoreWorkload(Workload):
    """Drives GET traffic from the cores of the simulated node."""

    name = "kvstore"
    param_defaults = {
        "value_bytes": 512,
        "keys": 1 << 20,
        "rack_nodes": None,
        "active_cores": 8,
        "gets_per_core": 20,
        "skew": 0.99,
        "seed": 11,
    }

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        value_bytes: int = 512,
        keys: int = 1 << 20,
        rack_nodes: Optional[int] = None,
        active_cores: int = 8,
        gets_per_core: int = 20,
        skew: float = 0.99,
        seed: int = 11,
    ) -> None:
        super().__init__(config)
        if value_bytes <= 0:
            raise WorkloadError("value size must be positive")
        if active_cores <= 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [1, %d]" % self.config.cores.count)
        if gets_per_core <= 0:
            raise WorkloadError("need at least one GET per core")
        self.value_bytes = value_bytes
        self.keys = keys
        self.rack_nodes = rack_nodes if rack_nodes is not None else self.config.rack.nodes
        self.active_cores = active_cores
        #: Each GET attempt is one operation of :meth:`entries`.
        self.ops_per_core = gets_per_core
        self.sampler = ZipfKeySampler(keys, skew=skew, seed=seed)
        self._stats = {"gets": 0, "remote": 0, "local": 0}

    # ------------------------------------------------------------------
    # Key partitioning
    # ------------------------------------------------------------------
    def owner_node(self, key: int) -> int:
        """Hash-partition the key space across the rack."""
        return (key * 1103515245 + 12345) % self.rack_nodes

    def key_offset(self, key: int) -> int:
        """Offset of the key's value inside its owner's partition context."""
        slots = REGION_BYTES // max(self.value_bytes, 64)
        return (key % slots) * max(self.value_bytes, 64)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def entries(self, core_id: int, count: Optional[int]) -> Iterator[WorkQueueEntry]:
        """Remote-GET entries for one core (``count`` sampled GET attempts;
        ``None`` = endless).  Local keys are counted and skipped — they are
        served from local memory and carry no remote latency."""
        stats = self._stats
        local_node = 0
        index = 0
        while count is None or index < count:
            key = self.sampler.sample()
            stats["gets"] += 1
            owner = self.owner_node(key)
            if owner != local_node:
                stats["remote"] += 1
                buffer_offset = index * self.value_bytes
                if count is None:
                    # Endless streams must stay inside this core's 1 MiB
                    # buffer window; bounded (closed-loop) runs keep the
                    # historical unwrapped addressing byte-for-byte.
                    buffer_offset %= (1 << 20)
                yield WorkQueueEntry(
                    op=RemoteOp.READ,
                    ctx_id=CTX_ID,
                    dst_node=owner,
                    remote_offset=self.key_offset(key),
                    local_buffer=LOCAL_BUFFER_BASE + core_id * (1 << 20) + buffer_offset,
                    length=self.value_bytes,
                )
            else:
                stats["local"] += 1
            index += 1

    def request_stream(self, core_id: int) -> Iterator[WorkQueueEntry]:
        """Endless remote GETs for open-loop driving (same mix as inject)."""
        if self.rack_nodes <= 1:
            # Every key is node-local: the endless generator could never
            # yield and the first arrival would spin forever.
            raise WorkloadError(
                "kvstore open-loop driving needs rack_nodes > 1 (with %d node(s) "
                "no GET is remote)" % self.rack_nodes
            )
        return super().request_stream(core_id)

    def metrics(self) -> dict:
        """GET counts, remote-GET throughput (MOPS) and latency."""
        latencies: List[float] = []
        for core in self._cores:
            latencies.extend(core.latency.samples)
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        p99 = sorted(latencies)[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
        stats = self._stats
        elapsed = self.machine.sim.now
        frequency = self.config.cores.frequency_ghz
        return {
            "design": self.config.ni.design,
            "value_bytes": self.value_bytes,
            "gets_issued": stats["gets"],
            "remote_gets": stats["remote"],
            "local_gets": stats["local"],
            "remote_fraction": stats["remote"] / stats["gets"] if stats["gets"] else 0.0,
            "elapsed_cycles": elapsed,
            "throughput_mops": (
                stats["remote"] / elapsed * frequency * 1e3 if elapsed > 0 else 0.0
            ),
            "mean_latency_ns": mean / frequency,
            "p99_latency_cycles": p99,
        }
