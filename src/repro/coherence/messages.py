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
#: Values of the message types that carry a full cache block.
_DATA_LABELS = frozenset({"MissNotifyData", "ReadReply", "WriteBack"})


class CoherenceMessageType(enum.Enum):
    """Message vocabulary of the 3-hop invalidation MESI protocol (§3.1).

    ``carries_data`` (whether the message carries a full cache block) and
    ``payload_bytes`` (its wire payload) are plain attributes of each
    member, set once when the class is built: every coherence send reads
    them.
    """

    #: Members are singletons, so identity hashing is correct, and C-level,
    #: unlike Enum.__hash__ (``message_class`` hashes the type into a
    #: frozenset on every coherence send).
    __hash__ = object.__hash__

    GET_EXCLUSIVE = "GetX"
    GET_READ_ONLY = "GetRO"
    INVALIDATE = "Invalidate"
    INV_ACK = "InvACK"
    MISS_NOTIFY_DATA = "MissNotifyData"
    FWD_GET = "ReadFwd"
    DATA_REPLY = "ReadReply"
    WRITEBACK = "WriteBack"
    UNBLOCK = "Unblock"

    def __init__(self, label: str) -> None:
        self.carries_data = label in _DATA_LABELS
        self.payload_bytes = CACHE_BLOCK_BYTES if self.carries_data else CONTROL_PAYLOAD_BYTES


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
