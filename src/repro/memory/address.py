"""Static address-interleaving helpers.

The chip statically interleaves cache blocks across LLC slices (the block's
home tile is a pure function of its physical address, §3.1) and across
memory controllers and RRPPs (§4.3: incoming requests are distributed to
RRPPs by inspecting offset bits below the page offset, so the mapping can be
computed before translation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config import CACHE_BLOCK_BYTES
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AddressMap:
    """Interleaving of blocks over LLC slices, MCs and RRPPs."""

    llc_slices: int
    memory_controllers: int
    rrpps: int
    block_bytes: int = CACHE_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.llc_slices <= 0 or self.memory_controllers <= 0 or self.rrpps <= 0:
            raise ConfigurationError("address map needs positive slice/MC/RRPP counts")
        if self.block_bytes <= 0:
            raise ConfigurationError("block size must be positive")

    def block_index(self, addr: int) -> int:
        """Index of the cache block containing ``addr``."""
        if addr < 0:
            raise ConfigurationError("addresses cannot be negative")
        return addr // self.block_bytes

    def block_address(self, addr: int) -> int:
        """Block-aligned address."""
        return self.block_index(addr) * self.block_bytes

    def home_llc_slice(self, addr: int) -> int:
        """Home LLC slice (and directory) for the block containing ``addr``."""
        return self.block_index(addr) % self.llc_slices

    def home_and_controller(self, addr: int) -> Tuple[int, int]:
        """``(home_llc_slice(addr), mc_for_addr(addr))`` from one decode of ``addr``.

        The data path needs both for every access, so it divides once.
        """
        if addr < 0:
            raise ConfigurationError("addresses cannot be negative")
        block = addr // self.block_bytes
        return block % self.llc_slices, block % self.memory_controllers

    def memory_controller(self, addr: int) -> int:
        """Memory controller servicing the block containing ``addr``."""
        return self.block_index(addr) % self.memory_controllers

    def rrpp_for_offset(self, offset: int) -> int:
        """RRPP servicing an incoming request, chosen from the offset field.

        The interleaving aligns the RRPP with the *row* of the home LLC slice
        of the data it touches (mesh layout: slices are row-major, one RRPP
        per row), so each request reaches its home location in a minimal
        number of on-chip hops and never turns at the chip's edges (§4.3).
        """
        group = max(1, self.llc_slices // self.rrpps)
        return (self.block_index(offset) // group) % self.rrpps

    def mc_for_addr(self, addr: int) -> int:
        """Memory controller for the block containing ``addr``.

        Channels are interleaved at block granularity (the conventional DDR
        channel interleave), so a block's MC is *not* generally on the same
        mesh row as its home LLC slice — which is exactly why dimension-order
        routing congests the MC edge column and class-based routing is needed
        (§4.3).
        """
        return self.block_index(addr) % self.memory_controllers

    def blocks_in(self, offset: int, length: int):
        """Yield block-aligned offsets covering [offset, offset+length)."""
        if length <= 0:
            raise ConfigurationError("length must be positive")
        first = self.block_address(offset)
        last = self.block_address(offset + length - 1)
        block = first
        while block <= last:
            yield block
            block += self.block_bytes
