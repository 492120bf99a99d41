"""NOC packet representation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable

from repro.config import MessageClass

_packet_ids = itertools.count()

#: Bytes of NOC header per packet (one 16-byte flit in the paper's NOC).
HEADER_BYTES = 16


@dataclass(slots=True)
class Packet:
    """One message travelling over the on-chip network.

    ``payload_bytes`` is the application/protocol payload; the header flit is
    accounted for separately when computing the flit count.
    """

    src: Hashable
    dst: Hashable
    payload_bytes: int
    msg_class: MessageClass
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def flits(self, link_bytes: int) -> int:
        """Number of flits occupied on a link of ``link_bytes`` width."""
        if self.payload_bytes < 0:
            raise ValueError("packet payload cannot be negative")
        return 1 + math.ceil(self.payload_bytes / link_bytes)

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
