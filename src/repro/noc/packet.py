"""NOC packet sizing.

A packet is not an object: :meth:`~repro.noc.fabric.NocFabric.send` numbers
it, walks its route and hands its delivery callback the caller's arguments.
"""

from __future__ import annotations

import math

#: Bytes of NOC header per packet (one 16-byte flit in the paper's NOC).
HEADER_BYTES = 16


def flit_count(payload_bytes: int, link_bytes: int) -> int:
    """Flits a ``payload_bytes`` packet occupies on a ``link_bytes``-wide link.

    ``payload_bytes`` is the application/protocol payload; the header flit is
    counted on top of it.
    """
    if payload_bytes < 0:
        raise ValueError("packet payload cannot be negative")
    return 1 + math.ceil(payload_bytes / link_bytes)
