"""Network-on-chip substrate.

Provides the two on-chip topologies evaluated in the paper (2D mesh and
NOC-Out), the routing policies of §4.3 (XY, YX, O1Turn, CDR and the paper's
extended CDR with a directory-sourced class), and :class:`NocFabric`, the
packet-granularity contention model used by the node simulator.
Topologies are immutable; :func:`shared_topology` gives every machine of one
NOC shape the same one, so routes are derived once per process.
"""

from repro.noc.topology import Topology, Link, shared_topology
from repro.noc.mesh import MeshTopology
from repro.noc.nocout import NocOutTopology, NOCOUT_LLC, NOCOUT_CORE, NOCOUT_EDGE, NOCOUT_MC
from repro.noc.routing import mesh_route, route_class_direction
from repro.noc.fabric import NocFabric

__all__ = [
    "Topology",
    "Link",
    "shared_topology",
    "MeshTopology",
    "NocOutTopology",
    "NOCOUT_LLC",
    "NOCOUT_CORE",
    "NOCOUT_EDGE",
    "NOCOUT_MC",
    "mesh_route",
    "route_class_direction",
    "NocFabric",
]
