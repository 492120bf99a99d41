"""Coherence protocol messages.

Each message type carries either a control payload (8 bytes on the wire,
i.e. one extra flit on the 16-byte links) or a full cache block (64 bytes,
four extra flits).  Messages sourced by a directory/LLC slice are tagged with
the DIRECTORY_SOURCED class so the paper's extended-CDR routing can steer
them YX (§4.3).
"""

from __future__ import annotations

import enum

from repro.config import CACHE_BLOCK_BYTES, MessageClass

#: Wire payload of a control (dataless) coherence message.
CONTROL_PAYLOAD_BYTES = 8


class CoherenceMessageType(enum.Enum):
    """Message vocabulary of the 3-hop invalidation MESI protocol (§3.1)."""

    GET_EXCLUSIVE = "GetX"
    GET_READ_ONLY = "GetRO"
    INVALIDATE = "Invalidate"
    INV_ACK = "InvACK"
    MISS_NOTIFY_DATA = "MissNotifyData"
    FWD_GET = "ReadFwd"
    DATA_REPLY = "ReadReply"
    WRITEBACK = "WriteBack"
    UNBLOCK = "Unblock"

    @property
    def carries_data(self) -> bool:
        """Whether the message carries a full cache block."""
        return self in (
            CoherenceMessageType.MISS_NOTIFY_DATA,
            CoherenceMessageType.DATA_REPLY,
            CoherenceMessageType.WRITEBACK,
        )

    @property
    def payload_bytes(self) -> int:
        """Wire payload size of this message type."""
        return CACHE_BLOCK_BYTES if self.carries_data else CONTROL_PAYLOAD_BYTES


#: Message types that originate at a directory / LLC slice.
_DIRECTORY_SOURCED = frozenset(
    {
        CoherenceMessageType.INVALIDATE,
        CoherenceMessageType.MISS_NOTIFY_DATA,
        CoherenceMessageType.FWD_GET,
    }
)


def message_class(msg_type: CoherenceMessageType, from_directory: bool) -> MessageClass:
    """NOC routing class for a coherence message."""
    if from_directory or msg_type in _DIRECTORY_SOURCED:
        return MessageClass.DIRECTORY_SOURCED
    if msg_type in (CoherenceMessageType.GET_EXCLUSIVE, CoherenceMessageType.GET_READ_ONLY):
        return MessageClass.COHERENCE_REQUEST
    return MessageClass.COHERENCE_RESPONSE
