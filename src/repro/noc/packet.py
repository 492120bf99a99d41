"""NOC packet representation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from repro.config import MessageClass

#: Bytes of NOC header per packet (one 16-byte flit in the paper's NOC).
HEADER_BYTES = 16


def flit_count(payload_bytes: int, link_bytes: int) -> int:
    """Flits a ``payload_bytes`` packet occupies on a ``link_bytes``-wide link."""
    if payload_bytes < 0:
        raise ValueError("packet payload cannot be negative")
    return 1 + math.ceil(payload_bytes / link_bytes)


@dataclass(slots=True)
class Packet:
    """One message travelling over the on-chip network.

    ``payload_bytes`` is the application/protocol payload; the header flit is
    accounted for separately when computing the flit count.  ``packet_id``
    is the packet's send order on its fabric (O1Turn routing and
    ``packet_loss`` hash it), so a run's packets are numbered the same
    whatever the process simulated before.
    """

    src: Hashable
    dst: Hashable
    payload_bytes: int
    msg_class: MessageClass
    packet_id: int = 0

    def flits(self, link_bytes: int) -> int:
        """Number of flits occupied on a link of ``link_bytes`` width."""
        return flit_count(self.payload_bytes, link_bytes)

    def wire_bytes(self, link_bytes: int) -> int:
        """Total bytes occupied on the wire (header + padded payload)."""
        return self.flits(link_bytes) * link_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Packet(#%d %s->%s %dB %s)" % (
            self.packet_id,
            self.src,
            self.dst,
            self.payload_bytes,
            self.msg_class.value,
        )
