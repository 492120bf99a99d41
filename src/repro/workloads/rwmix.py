"""Mixed one-sided read/write QP stress.

The paper's evaluation drives pure remote reads; soNUMA's WQ format also
carries one-sided *writes*, whose wire pattern is inverted (request packets
carry the payload blocks, responses are empty acknowledgements) and whose
unrolling stresses the RGP backend's outbound path instead of the RCP's
inbound path.  This workload issues a deterministic read/write mix with a
configurable write fraction from every active core, exercising both pipeline
directions — and both QP interaction patterns — at once.

Registered as ``rw_mix``.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.scenario.registry import register_workload
from repro.scenario.workload import CTX_ID, REGION_BYTES, Workload

LOCAL_BUFFER_BASE = 0xD000_0000


@register_workload("rw_mix")
class ReadWriteMixWorkload(Workload):
    """Interleaved one-sided reads and writes from the active cores."""

    name = "rw_mix"
    param_defaults = {
        "transfer_bytes": 1024,
        "active_cores": 8,
        "ops_per_core": 32,
        "write_fraction": 0.5,
        "max_outstanding": 8,
        "hops": 1,
        "seed": 17,
    }

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        transfer_bytes: int = 1024,
        active_cores: int = 8,
        ops_per_core: int = 32,
        write_fraction: float = 0.5,
        max_outstanding: int = 8,
        hops: int = 1,
        seed: int = 17,
    ) -> None:
        super().__init__(config)
        if transfer_bytes <= 0:
            raise WorkloadError("transfer size must be positive")
        if active_cores <= 0 or active_cores > self.config.cores.count:
            raise WorkloadError("active core count must be in [1, %d]" % self.config.cores.count)
        if ops_per_core <= 0:
            raise WorkloadError("need at least one operation per core")
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError("write fraction must be in [0, 1]")
        if max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        self.transfer_bytes = transfer_bytes
        self.active_cores = active_cores
        self.ops_per_core = ops_per_core
        self.write_fraction = write_fraction
        self.max_outstanding = max_outstanding
        self.hops = hops
        self.seed = seed
        self._issued = {"read": 0, "write": 0}

    def entries(self, core_id: int, count: Optional[int]) -> Iterator[WorkQueueEntry]:
        """Mixed read/write entries for one core (``count=None`` = endless)."""
        rng = random.Random(self.seed * 7919 + core_id)
        local_base = LOCAL_BUFFER_BASE + core_id * (1 << 21)
        offset = (core_id * 524287 * self.transfer_bytes) % REGION_BYTES
        index = 0
        while count is None or index < count:
            if offset + self.transfer_bytes > REGION_BYTES:
                offset = 0
            op = RemoteOp.WRITE if rng.random() < self.write_fraction else RemoteOp.READ
            self._issued["write" if op is RemoteOp.WRITE else "read"] += 1
            yield WorkQueueEntry(
                op=op,
                ctx_id=CTX_ID,
                dst_node=1,
                remote_offset=offset,
                local_buffer=local_base + (index * self.transfer_bytes) % (1 << 21),
                length=self.transfer_bytes,
            )
            offset += self.transfer_bytes
            index += 1

    def metrics(self) -> dict:
        stats = self.core_traffic_metrics()
        stats.update({
            "transfer_bytes": self.transfer_bytes,
            "active_cores": self.active_cores,
            "write_fraction": self.write_fraction,
            "reads_issued": self._issued["read"],
            "writes_issued": self._issued["write"],
            "offchip_request_bytes": self.machine.offchip_request_bytes,
            "offchip_response_bytes": self.machine.offchip_response_bytes,
        })
        return stats
