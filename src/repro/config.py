"""System configuration for the manycore NI design-space study.

This module is the single source of truth for every parameter used by the
simulator, the analytical models and the experiment harness.  Default values
reproduce Table 2 of the paper:

* 64 ARM Cortex-A15-like cores at 2 GHz, 3-wide OoO (modelled only through
  the fixed instruction-overhead costs of QP interactions),
* split 32 KB L1 caches with 3-cycle latency,
* a 16 MB shared block-interleaved NUCA LLC, one bank per tile, 6-cycle
  latency,
* a directory-based non-inclusive MESI protocol,
* 50 ns memory latency,
* a 2D mesh NOC with 16-byte links and 3 cycles per hop (or the NOC-Out
  topology: a flattened butterfly over LLC tiles at 2 tiles/cycle plus
  1 cycle/hop core reduction/dispersion trees),
* one RRPP per mesh row (8 in total),
* a fixed 35 ns inter-node network latency per hop.

The QP-interaction instruction overheads and the pipeline stage occupancies
come from the paper's Table 3 (they are properties of the RMC
microarchitecture, not of this simulator) and are grouped in
:class:`LatencyCalibration` so experiments can override or ablate them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError

#: Size of a cache block in bytes (constant throughout the paper).
CACHE_BLOCK_BYTES = 64


class NIDesign(enum.Enum):
    """The network-interface placements studied in the paper (§3).

    Configurations store registry names (:data:`repro.scenario.registry
    .NI_DESIGNS`); :meth:`SystemConfig.with_design` also accepts these
    members and stores their names.
    """

    EDGE = "edge"
    PER_TILE = "per_tile"
    SPLIT = "split"
    #: Idealized hardware NUMA with a load/store interface (baseline).
    NUMA = "numa"


class RoutingAlgorithm(enum.Enum):
    """On-chip routing policies (§4.3)."""

    XY = "xy"
    YX = "yx"
    O1TURN = "o1turn"
    #: Class-based deterministic routing [Abts et al.]: memory requests YX,
    #: responses XY.
    CDR = "cdr"
    #: The paper's extension of CDR: directory-sourced traffic gets its own
    #: YX class so that it never turns at the NI/MC edge columns.
    CDR_EXTENDED = "cdr_extended"

    @classmethod
    def coerce(cls, value: object) -> "RoutingAlgorithm":
        """Accept either a RoutingAlgorithm or its string value (CLI parameters)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigurationError(
                "unknown routing algorithm %r (expected one of %s)"
                % (value, ", ".join(r.value for r in cls))
            ) from None


class MessageClass(enum.Enum):
    """NOC packet classes used by routing policies and statistics."""

    #: Members are singletons, so identity hashing is correct — and C-level,
    #: unlike Enum.__hash__, which shows up in packet-injection profiles
    #: (every send hashes its class into per-class byte counters and the
    #: route-cache key).
    __hash__ = object.__hash__

    MEMORY_REQUEST = "memory_request"
    MEMORY_RESPONSE = "memory_response"
    COHERENCE_REQUEST = "coherence_request"
    COHERENCE_RESPONSE = "coherence_response"
    #: Traffic originating at a directory/LLC slice (extended-CDR class).
    DIRECTORY_SOURCED = "directory_sourced"
    NI_COMMAND = "ni_command"
    NI_DATA = "ni_data"


@dataclass(frozen=True)
class CoreConfig:
    """Core and L1 parameters (Table 2)."""

    count: int = 64
    frequency_ghz: float = 2.0
    l1_size_kib: int = 32
    l1_ways: int = 2
    l1_latency_cycles: int = 3
    l1_mshrs: int = 32

    def validate(self) -> None:
        if self.count <= 0:
            raise ConfigurationError("core count must be positive")
        if self.frequency_ghz <= 0:
            raise ConfigurationError("core frequency must be positive")
        if self.l1_size_kib <= 0 or self.l1_ways <= 0:
            raise ConfigurationError("L1 size/associativity must be positive")
        if self.l1_latency_cycles < 1:
            raise ConfigurationError("L1 latency must be at least one cycle")


@dataclass(frozen=True)
class LlcConfig:
    """Shared NUCA LLC parameters (Table 2)."""

    total_size_mib: int = 16
    ways: int = 16
    latency_cycles: int = 6
    #: Mesh: one bank (slice) per tile.  NOC-Out: 8 banks in a central row.
    banks_mesh: int = 64
    banks_noc_out: int = 8
    #: Bank occupancy per access (limits per-bank throughput; the source of
    #: the contended-LLC bandwidth ceiling of NOC-Out, §6.3.1).  The bank is
    #: busy for the full array access, i.e. it is not internally pipelined.
    bank_occupancy_cycles: int = 6

    def validate(self) -> None:
        if self.total_size_mib <= 0 or self.ways <= 0:
            raise ConfigurationError("LLC size/associativity must be positive")
        if self.latency_cycles < 1:
            raise ConfigurationError("LLC latency must be at least one cycle")
        if self.banks_mesh <= 0 or self.banks_noc_out <= 0:
            raise ConfigurationError("LLC bank counts must be positive")
        if self.bank_occupancy_cycles < 0:
            raise ConfigurationError("LLC bank occupancy cannot be negative")


@dataclass(frozen=True)
class NocConfig:
    """On-chip interconnect parameters (Table 2)."""

    #: Chip-scope topology name (``TOPOLOGIES`` registry).
    topology: str = "mesh"
    routing: RoutingAlgorithm = RoutingAlgorithm.CDR_EXTENDED
    link_bytes: int = 16
    mesh_hop_cycles: int = 3
    router_pipeline_cycles: int = 0
    #: NOC-Out flattened-butterfly traversal rate (tiles per cycle).
    noc_out_tiles_per_cycle: int = 2
    #: NOC-Out reduction/dispersion tree latency per hop.
    noc_out_tree_hop_cycles: int = 1

    def validate(self) -> None:
        if self.link_bytes <= 0:
            raise ConfigurationError("NOC link width must be positive")
        if self.mesh_hop_cycles < 1:
            raise ConfigurationError("mesh hop latency must be at least one cycle")
        if self.noc_out_tiles_per_cycle < 1:
            raise ConfigurationError("NOC-Out traversal rate must be >= 1 tile/cycle")
        if self.noc_out_tree_hop_cycles < 1:
            raise ConfigurationError("NOC-Out tree hop latency must be >= 1 cycle")
        if self.router_pipeline_cycles < 0:
            raise ConfigurationError("router pipeline cycles cannot be negative")


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory parameters (Table 2)."""

    latency_ns: float = 50.0
    controllers: int = 8
    #: Per-controller peak bandwidth in GBps.  The paper intentionally
    #: assumes memory is not the bottleneck (HMC-class interfaces).
    bandwidth_gbps_per_controller: float = 160.0

    def validate(self) -> None:
        if self.latency_ns <= 0:
            raise ConfigurationError("memory latency must be positive")
        if self.controllers <= 0:
            raise ConfigurationError("memory controller count must be positive")
        if self.bandwidth_gbps_per_controller <= 0:
            raise ConfigurationError("memory bandwidth must be positive")


@dataclass(frozen=True)
class NIConfig:
    """Network-interface (RMC) parameters."""

    #: NI design name (``NI_DESIGNS`` registry).
    design: str = "split"
    #: RRPPs per chip: one per mesh row in the default configuration.
    rrpp_count: int = 8
    #: Work-queue / completion-queue entries per queue pair (§5).
    wq_entries: int = 128
    cq_entries: int = 128
    #: Unroll rate: cache-block requests generated per cycle by an RGP backend.
    unroll_blocks_per_cycle: int = 1
    #: Whether the NI cache implements the owned-state optimization (§3.4).
    ni_cache_owned_state: bool = True
    #: NI cache capacity in blocks (holds QP entries only).
    ni_cache_blocks: int = 32

    def validate(self) -> None:
        if self.rrpp_count <= 0:
            raise ConfigurationError("RRPP count must be positive")
        if self.wq_entries <= 0 or self.cq_entries <= 0:
            raise ConfigurationError("queue depths must be positive")
        if self.unroll_blocks_per_cycle <= 0:
            raise ConfigurationError("unroll rate must be positive")
        if self.ni_cache_blocks <= 0:
            raise ConfigurationError("NI cache capacity must be positive")


@dataclass(frozen=True)
class RackConfig:
    """Rack-scale fabric parameters (§1, §5)."""

    nodes: int = 512
    torus_dims: Tuple[int, int, int] = (8, 8, 8)
    network_hop_ns: float = 35.0

    def validate(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("node count must be positive")
        if len(self.torus_dims) != 3 or any(d <= 0 for d in self.torus_dims):
            raise ConfigurationError("torus dimensions must be three positive integers")
        if math.prod(self.torus_dims) != self.nodes:
            raise ConfigurationError(
                "torus dimensions %r do not multiply to the node count %d"
                % (self.torus_dims, self.nodes)
            )
        if self.network_hop_ns <= 0:
            raise ConfigurationError("network hop latency must be positive")


@dataclass(frozen=True)
class LatencyCalibration:
    """Fixed microarchitectural costs from the paper's Table 3 (2 GHz cycles).

    These are not free parameters of this reproduction: they are the
    measured instruction overheads and pipeline occupancies reported by the
    paper for its detailed RMC model, and the analytical breakdown uses them
    verbatim.  The discrete-event simulator uses the *processing* constants as
    stage occupancies; the coherence-induced components (e.g. the 104-cycle
    NIedge WQ write) are not taken from here but emerge from the coherence and
    NOC models.
    """

    #: WQ-entry creation: ~a dozen arithmetic instructions plus two stores.
    wq_write_instruction_cycles: int = 13
    #: CQ poll/read: four instructions including a load.
    cq_read_instruction_cycles: int = 10
    #: Transfer of a QP entry between a core's L1 and a collocated NI cache.
    qp_entry_local_transfer_cycles: int = 5
    #: NUMA baseline: issuing a remote load/store instruction.
    numa_issue_cycles: int = 1
    #: NOC transfer between a tile and the chip edge (average, one way).
    tile_to_edge_transfer_cycles: int = 23
    #: Monolithic RGP occupancy (NIedge / NIper-tile).
    rgp_processing_cycles: int = 7
    #: Monolithic RCP occupancy (NIedge / NIper-tile).
    rcp_processing_cycles: int = 11
    #: Split-design stage occupancies.
    rgp_frontend_cycles: int = 4
    rgp_backend_cycles: int = 4
    rcp_backend_cycles: int = 4
    rcp_frontend_cycles: int = 8
    #: Remote-end servicing (RRPP + LLC miss + DRAM + NOC to/from the MC).
    rrpp_service_cycles: int = 208
    #: Coherence-dominated QP interactions for the edge design (Table 1/3).
    edge_wq_write_cycles: int = 104
    edge_wq_read_cycles: int = 95
    edge_cq_write_cycles: int = 79
    edge_cq_read_cycles: int = 84

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigurationError("calibration constant %s cannot be negative" % f.name)


def _json_value(value: object) -> object:
    """``value`` with enums replaced by their values and tuples by lists.

    A module function: a nested recursive one reaches itself through its own
    closure cell, so every call would leave a reference cycle behind.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated rack-scale node.

    Instances are immutable; use :meth:`replace` to derive variants, e.g.::

        cfg = SystemConfig.paper_defaults()
        per_tile = cfg.with_design("per_tile")
    """

    cores: CoreConfig = field(default_factory=CoreConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    ni: NIConfig = field(default_factory=NIConfig)
    rack: RackConfig = field(default_factory=RackConfig)
    calibration: LatencyCalibration = field(default_factory=LatencyCalibration)
    cache_block_bytes: int = CACHE_BLOCK_BYTES

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls) -> "SystemConfig":
        """The configuration of Table 2 (mesh NOC, extended-CDR routing)."""
        return cls()

    @classmethod
    def noc_out_defaults(cls) -> "SystemConfig":
        """The NOC-Out configuration used for Figures 9 and 10 (§6.3)."""
        base = cls()
        return base.replace(noc=dataclasses.replace(base.noc, topology="noc_out"))

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level sections replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_design(self, design: object) -> "SystemConfig":
        """Return a copy configured for the given NI design (a registry name)."""
        from repro.scenario.registry import NI_DESIGNS

        name = NI_DESIGNS.resolve(design)
        return self.replace(ni=dataclasses.replace(self.ni, design=name))

    def with_routing(self, routing: RoutingAlgorithm) -> "SystemConfig":
        """Return a copy configured for the given on-chip routing policy."""
        return self.replace(noc=dataclasses.replace(self.noc, routing=routing))

    def with_topology(self, topology: object) -> "SystemConfig":
        """Return a copy configured for the given on-chip topology (a registry name)."""
        from repro.scenario.registry import TOPOLOGIES

        name = TOPOLOGIES.resolve(topology)
        return self.replace(noc=dataclasses.replace(self.noc, topology=name))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.cores.validate()
        self.llc.validate()
        self.noc.validate()
        self.memory.validate()
        self.ni.validate()
        self.rack.validate()
        self.calibration.validate()
        if self.cache_block_bytes <= 0:
            raise ConfigurationError("cache block size must be positive")
        side = math.isqrt(self.cores.count)
        if self.noc.topology == "mesh" and side * side != self.cores.count:
            raise ConfigurationError(
                "mesh topology requires a square core count, got %d" % self.cores.count
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def mesh_side(self) -> int:
        """Number of tiles along one side of the (square) mesh."""
        return math.isqrt(self.cores.count)

    @property
    def tile_count(self) -> int:
        """Number of core tiles on the chip."""
        return self.cores.count

    @property
    def cycles_per_ns(self) -> float:
        """Core clock cycles per nanosecond."""
        return self.cores.frequency_ghz

    def ns_to_cycles(self, nanoseconds: float) -> int:
        """Convert a latency in nanoseconds to (rounded) core cycles."""
        return int(round(nanoseconds * self.cycles_per_ns))

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a latency in core cycles to nanoseconds."""
        return cycles / self.cycles_per_ns

    @property
    def memory_latency_cycles(self) -> int:
        """DRAM access latency in core cycles (50 ns -> 100 cycles at 2 GHz)."""
        return self.ns_to_cycles(self.memory.latency_ns)

    @property
    def network_hop_cycles(self) -> int:
        """Inter-node network latency per hop in core cycles (35 ns -> 70)."""
        return self.ns_to_cycles(self.rack.network_hop_ns)

    @property
    def blocks_per_noc_packet_flits(self) -> int:
        """Flits needed to move one cache block plus a header over the NOC."""
        return 1 + math.ceil(self.cache_block_bytes / self.noc.link_bytes)

    @property
    def noc_bisection_bandwidth_gbps(self) -> float:
        """Bidirectional mesh bisection bandwidth in GBps.

        An 8x8 mesh with 16-byte links clocked at the core frequency has
        8 links x 16 B x 2 GHz x 2 directions = 512 GBps, matching §6.2.
        """
        links_across_bisection = self.mesh_side
        bytes_per_second = (
            links_across_bisection
            * self.noc.link_bytes
            * self.cores.frequency_ghz
            * 1e9
        )
        return 2.0 * bytes_per_second / 1e9

    def to_dict(self) -> Dict[str, object]:
        """All parameters as a JSON-serializable nested dict (enums by value)."""
        return _json_value(dataclasses.asdict(self))

    def fingerprint(self) -> str:
        """Short content hash identifying this exact configuration.

        Two configs share a fingerprint iff every parameter (including the
        calibration constants) is equal, which makes the fingerprint usable
        as a cache key component for experiment results.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Human-readable multi-line description (used by the Table-2 experiment)."""
        lines = [
            "Cores      : %d x ARM-like OoO @ %.1f GHz" % (self.cores.count, self.cores.frequency_ghz),
            "L1 caches  : split I/D, %d KiB, %d-way, %d-cycle"
            % (self.cores.l1_size_kib, self.cores.l1_ways, self.cores.l1_latency_cycles),
            "LLC        : shared NUCA, %d MiB, %d-way, %d-cycle, %d banks (mesh)"
            % (self.llc.total_size_mib, self.llc.ways, self.llc.latency_cycles, self.llc.banks_mesh),
            "Coherence  : directory-based non-inclusive MESI",
            "Memory     : %.0f ns latency, %d MCs" % (self.memory.latency_ns, self.memory.controllers),
            "Interconnect: %s, %d-byte links, %d cycles/hop (mesh), routing=%s"
            % (
                self.noc.topology,
                self.noc.link_bytes,
                self.noc.mesh_hop_cycles,
                self.noc.routing.value,
            ),
            "NI         : design=%s, %d RRPPs, %d-entry WQ/CQ"
            % (self.ni.design, self.ni.rrpp_count, self.ni.wq_entries),
            "Rack       : %d nodes, 3D torus %r, %.0f ns/hop"
            % (self.rack.nodes, self.rack.torus_dims, self.rack.network_hop_ns),
        ]
        return "\n".join(lines)
