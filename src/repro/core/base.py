"""Shared infrastructure for the NI designs.

:class:`NodeServices` is the interface the NI pipelines use to talk to the
rest of the chip — the NOC fabric, the coherence protocol, the data-path
memory system and the off-chip network port.  The single-node simulator
(:class:`repro.node.soc.ManycoreSoc`) implements it; unit tests implement
lightweight fakes.

:class:`TransferTable` is the NI-internal bookkeeping structure tracking
in-flight transfers (one entry per WQ entry being serviced), shared between
the RGP that creates entries and the RCP that retires them.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional

from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.qp.entries import WorkQueueEntry
from repro.qp.manager import QueuePair


class NodeServices(abc.ABC):
    """Chip-level services available to NI pipelines."""

    #: The simulation kernel.
    sim = None
    #: The node's :class:`~repro.config.SystemConfig`.
    config: SystemConfig = None
    #: The on-chip fabric (:class:`~repro.noc.fabric.NocFabric`).
    fabric = None
    #: The coherence protocol (:class:`~repro.coherence.protocol.CoherenceProtocol`).
    coherence = None
    #: Rack-level identifier of this node (chip).
    node_id: int = 0

    @abc.abstractmethod
    def tile_complex(self, tile_id: int):
        """The :class:`~repro.coherence.caches.TileCacheComplex` of a core tile."""

    @abc.abstractmethod
    def memory_read(self, requester_node: Hashable, addr: int, nbytes: int,
                    on_done: Callable[..., None], *args) -> None:
        """Read ``nbytes`` at ``addr`` through the LLC/MC data path; then ``on_done(*args)``."""

    @abc.abstractmethod
    def memory_write(self, requester_node: Hashable, addr: int, nbytes: int,
                     on_done: Callable[..., None], *args) -> None:
        """Write ``nbytes`` at ``addr`` through the LLC/MC data path; then ``on_done(*args)``."""

    @abc.abstractmethod
    def off_chip_send(self, message, from_node: Hashable) -> None:
        """Hand an outgoing :class:`RemoteRequest`/:class:`RemoteResponse` to the network port."""

    @abc.abstractmethod
    def network_port_node(self, near_node: Hashable) -> Hashable:
        """NOC node of the chip-to-chip network port nearest ``near_node``."""

    @abc.abstractmethod
    def translate(self, ctx_id: int, offset: int, length: int) -> int:
        """Translate a context offset to a local physical address."""

    @abc.abstractmethod
    def notify_completion(self, core_id: int) -> None:
        """Tell the core model that a new CQ entry is available to poll."""


@dataclass
class TransferRecord:
    """State of one in-flight transfer (one WQ entry being serviced)."""

    transfer_id: int
    core_id: int
    qp: QueuePair
    entry: WorkQueueEntry
    total_blocks: int
    issued_at: float
    blocks_injected: int = 0
    blocks_completed: int = 0
    completed_at: Optional[float] = None
    #: Arbitrary per-design bookkeeping (e.g. owning backend).
    metadata: dict = field(default_factory=dict)

    @property
    def is_complete(self) -> bool:
        return self.blocks_completed >= self.total_blocks


class TransferTable:
    """Chip-wide registry of in-flight transfers, indexed by transfer id."""

    def __init__(self) -> None:
        self._records: Dict[int, TransferRecord] = {}
        self._ids = itertools.count()
        self.created = 0
        self.retired = 0

    def create(self, core_id: int, qp: QueuePair, entry: WorkQueueEntry,
               total_blocks: int, issued_at: float) -> TransferRecord:
        """Allocate a record for a new transfer."""
        record = TransferRecord(
            transfer_id=next(self._ids),
            core_id=core_id,
            qp=qp,
            entry=entry,
            total_blocks=total_blocks,
            issued_at=issued_at,
        )
        self._records[record.transfer_id] = record
        self.created += 1
        return record

    def get(self, transfer_id: int) -> TransferRecord:
        try:
            return self._records[transfer_id]
        except KeyError:
            raise ProtocolError("unknown transfer id %d" % transfer_id) from None

    def retire(self, transfer_id: int) -> TransferRecord:
        """Remove a completed transfer from the table."""
        record = self.get(transfer_id)
        if not record.is_complete:
            raise ProtocolError("cannot retire incomplete transfer %d" % transfer_id)
        del self._records[transfer_id]
        self.retired += 1
        return record

    @property
    def in_flight(self) -> int:
        return len(self._records)

    def __contains__(self, transfer_id: int) -> bool:
        return transfer_id in self._records
