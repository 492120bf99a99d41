"""soNUMA contexts: registered remote-access memory regions.

A context is a region of a node's memory exported for one-sided remote
access; the set of contexts across nodes forms the partitioned global
address space (§4).  Contexts are identified by a small integer carried in
every request header, and the responding node validates offsets against the
registered size before touching memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import ProtocolError


@dataclass(frozen=True)
class RemoteContext:
    """A registered memory region on one node."""

    ctx_id: int
    node_id: int
    base_addr: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.ctx_id < 0 or self.node_id < 0:
            raise ProtocolError("context and node ids cannot be negative")
        if self.base_addr < 0:
            raise ProtocolError("context base address cannot be negative")
        if self.size_bytes <= 0:
            raise ProtocolError("context size must be positive")

    def contains(self, offset: int, length: int = 1) -> bool:
        """True when [offset, offset+length) falls inside the region."""
        return 0 <= offset and offset + length <= self.size_bytes

    def translate(self, offset: int) -> int:
        """Local physical address of ``offset`` within the context."""
        if not self.contains(offset):
            raise ProtocolError(
                "offset %d outside context %d of size %d" % (offset, self.ctx_id, self.size_bytes)
            )
        return self.base_addr + offset


class ContextRegistry:
    """Per-node table of registered contexts."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._contexts: Dict[int, RemoteContext] = {}

    def register(self, ctx_id: int, base_addr: int, size_bytes: int) -> RemoteContext:
        """Register (or re-register) a context."""
        if ctx_id in self._contexts:
            raise ProtocolError("context %d already registered on node %d" % (ctx_id, self.node_id))
        ctx = RemoteContext(ctx_id=ctx_id, node_id=self.node_id, base_addr=base_addr, size_bytes=size_bytes)
        self._contexts[ctx_id] = ctx
        return ctx

    def lookup(self, ctx_id: int) -> RemoteContext:
        try:
            return self._contexts[ctx_id]
        except KeyError:
            raise ProtocolError("context %d is not registered on node %d" % (ctx_id, self.node_id)) from None

    def validate(self, ctx_id: int, offset: int, length: int) -> RemoteContext:
        """Lookup + bounds-check; raises :class:`ProtocolError` on violation."""
        ctx = self.lookup(ctx_id)
        if not ctx.contains(offset, length):
            raise ProtocolError(
                "access [%d, %d) outside context %d (size %d)"
                % (offset, offset + length, ctx_id, ctx.size_bytes)
            )
        return ctx

    def translate(self, ctx_id: int, offset: int, length: int) -> int:
        """``validate(ctx_id, offset, length).translate(offset)`` in one call.

        Every RRPP request translates its offset, so the lookup, the bounds
        check and the add are done here; an access the check refuses goes
        through :meth:`validate`, which raises the same :class:`ProtocolError`.
        """
        ctx = self._contexts.get(ctx_id)
        if ctx is not None:
            size = ctx.size_bytes
            if 0 <= offset and offset + length <= size and offset + 1 <= size:
                return ctx.base_addr + offset
        return self.validate(ctx_id, offset, length).translate(offset)

    def __iter__(self) -> Iterator[RemoteContext]:
        return iter(self._contexts.values())

    def __len__(self) -> int:
        return len(self._contexts)
