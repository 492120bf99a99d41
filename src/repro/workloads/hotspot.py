"""Hotspot traffic: every core hammers one small remote region.

The uniform microbenchmarks spread requests over a 64 MB region, so RRPP
steering and LLC interleaving distribute the load evenly.  Real deployments
are rarely that polite: a popular key, a hot shard or a contended lock
concentrates traffic on a handful of cache blocks.  This workload drives
asynchronous remote reads whose offsets all fall inside a ``hot_blocks``-block
window of the remote region — and rate-matched *incoming* requests target the
same window — so a single RRPP/LLC row absorbs the entire load and the NOC
links feeding it saturate first.  The reported ``max_link_utilization`` and
``llc_bank_utilization`` make that imbalance visible next to the uniform
numbers.

Registered as ``hotspot``.  It binds to the machine like every workload,
except that it narrows ``incoming_region_bytes`` to the hot window.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import CTX_ID, Workload

LOCAL_BUFFER_BASE = 0xC000_0000


@register_workload("hotspot")
class HotspotReadWorkload(Workload):
    """Asynchronous remote reads concentrated on a few hot cache blocks."""

    name = "hotspot"
    param_defaults = {
        "transfer_bytes": 512,
        "active_cores": 8,
        "ops_per_core": 32,
        "hot_blocks": 16,
        "max_outstanding": 8,
        "hops": 1,
        "seed": 13,
    }

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        transfer_bytes: int = 512,
        active_cores: int = 8,
        ops_per_core: int = 32,
        hot_blocks: int = 16,
        max_outstanding: int = 8,
        hops: int = 1,
        seed: int = 13,
    ) -> None:
        super().__init__(config)
        if transfer_bytes <= 0:
            raise WorkloadError("transfer size must be positive")
        if active_cores <= 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [1, %d]" % self.config.cores.count)
        if ops_per_core <= 0:
            raise WorkloadError("need at least one operation per core")
        if hot_blocks <= 0:
            raise WorkloadError("the hot window needs at least one block")
        if max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        self.transfer_bytes = transfer_bytes
        self.active_cores = active_cores
        self.ops_per_core = ops_per_core
        self.hot_blocks = hot_blocks
        self.max_outstanding = max_outstanding
        self.hops = hops
        self.seed = seed

    @property
    def hot_window_bytes(self) -> int:
        """Size of the contended window (grown to cover one full transfer)."""
        block = self.config.cache_block_bytes
        return max(self.hot_blocks * block, self.transfer_bytes)

    @property
    def incoming_region_bytes(self) -> int:
        """Incoming traffic is confined to the hot window too, so the local
        RRPP/LLC row serving it becomes the bottleneck."""
        return self.hot_window_bytes

    def entries(self, core_id: int, count: Optional[int]) -> Iterator[WorkQueueEntry]:
        """Hot-window read entries for one core (``count=None`` = endless)."""
        rng = random.Random(self.seed * 1000003 + core_id)
        block = self.config.cache_block_bytes
        window = self.hot_window_bytes
        slots = max(1, (window - self.transfer_bytes) // block + 1)
        local_base = LOCAL_BUFFER_BASE + core_id * (1 << 21)
        index = 0
        while count is None or index < count:
            yield WorkQueueEntry(
                op=RemoteOp.READ,
                ctx_id=CTX_ID,
                dst_node=1,
                remote_offset=rng.randrange(slots) * block,
                local_buffer=local_base + (index * self.transfer_bytes) % (1 << 21),
                length=self.transfer_bytes,
            )
            index += 1

    def metrics(self) -> dict:
        stats = self.core_traffic_metrics()
        stats.update({
            "transfer_bytes": self.transfer_bytes,
            "hot_window_bytes": self.hot_window_bytes,
            "active_cores": self.active_cores,
            "max_link_utilization": self.machine.fabric.max_link_utilization(),
            "llc_bank_utilization": self.machine.llc_bank_utilization(),
        })
        return stats
