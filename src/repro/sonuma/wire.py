"""soNUMA wire protocol.

Remote accesses spanning multiple cache blocks are unrolled into
cache-block-sized request/response packets at the source node (§4).  Each
request packet carries a small header (context id, offset, request id, block
index); read responses and write requests additionally carry one cache block
of payload.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.config import CACHE_BLOCK_BYTES
from repro.errors import ProtocolError
from repro.qp.entries import RemoteOp

#: soNUMA request header bytes (fits in one extra flit on a 16-byte link,
#: giving the two-flit request packets described in §6.1.3).
REQUEST_HEADER_BYTES = 16
#: soNUMA response header bytes.
RESPONSE_HEADER_BYTES = 16

_request_ids = itertools.count()


class TransferStatus(enum.Enum):
    """Status of an unrolled transfer tracked by the RGP/RCP."""

    IN_FLIGHT = "in_flight"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(slots=True)
class RemoteRequest:
    """One cache-block-sized request packet.

    Slotted: under Fig. 7 load thousands are alive at once.
    """

    op: RemoteOp
    src_node: int
    dst_node: int
    ctx_id: int
    offset: int
    request_id: int = field(default_factory=_request_ids.__next__)
    #: Parent transfer (WQ entry) this block request belongs to.
    transfer_id: int = 0
    block_index: int = 0
    total_blocks: int = 1

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ProtocolError("request offset cannot be negative")
        if self.block_index < 0 or self.total_blocks <= 0:
            raise ProtocolError("invalid unroll indices")
        if self.block_index >= self.total_blocks:
            raise ProtocolError("block index %d outside transfer of %d blocks"
                                % (self.block_index, self.total_blocks))

    @property
    def wire_bytes(self) -> int:
        """Bytes this request occupies on the inter-node network."""
        payload = CACHE_BLOCK_BYTES if self.op is RemoteOp.WRITE else 0
        return REQUEST_HEADER_BYTES + payload

    def make_response(self, success: bool = True) -> "RemoteResponse":
        """Build the matching response packet."""
        return RemoteResponse(
            request_id=self.request_id,
            transfer_id=self.transfer_id,
            src_node=self.dst_node,
            dst_node=self.src_node,
            op=self.op,
            block_index=self.block_index,
            total_blocks=self.total_blocks,
            success=success,
        )


@dataclass(slots=True)
class RemoteResponse:
    """One cache-block-sized response packet."""

    request_id: int
    transfer_id: int
    src_node: int
    dst_node: int
    op: RemoteOp
    block_index: int
    total_blocks: int
    success: bool = True

    @property
    def wire_bytes(self) -> int:
        """Bytes this response occupies on the inter-node network."""
        payload = CACHE_BLOCK_BYTES if self.op is RemoteOp.READ else 0
        return RESPONSE_HEADER_BYTES + payload
