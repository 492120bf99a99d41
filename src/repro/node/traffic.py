"""Remote-end emulation (the paper's single-node methodology, §5).

Only one node is simulated in microarchitectural detail.  The
:class:`RemoteEndEmulator` plays the role of the rest of the rack:

* every *outgoing* request receives a response after a round trip of
  ``2 x hops x 35 ns`` plus the remote node's servicing latency, which — as
  in the paper — is taken to be the measured average servicing latency of the
  *local* RRPPs (falling back to the calibrated 208-cycle constant before any
  local sample exists);
* when rate matching is enabled (bandwidth experiments), each outgoing
  request also triggers one *incoming* request to the local node, so the
  local RRPPs service exactly as much traffic as the node generates;
  incoming requests target uniformly random block offsets of the registered
  context and are steered to RRPPs by address interleaving (§4.3).
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp
from repro.sonuma.wire import RemoteRequest, RemoteResponse


class RemoteEndEmulator:
    """Rack-side traffic model attached to a :class:`~repro.node.soc.ManycoreSoc`."""

    def __init__(
        self,
        soc,
        hops: int = 1,
        rate_match_incoming: bool = False,
        incoming_ctx_id: int = 0,
        incoming_region_bytes: Optional[int] = None,
        remote_node_id: int = 1,
        seed: int = 1,
    ) -> None:
        if hops < 0:
            raise WorkloadError("hop count cannot be negative")
        if rate_match_incoming:
            # Validate the rate-matching configuration now: discovering a
            # missing region size on the first incoming request would waste a
            # whole warm-up before failing mid-simulation.
            if incoming_region_bytes is None:
                raise WorkloadError(
                    "rate matching requires incoming_region_bytes (the exported context size)"
                )
            if incoming_region_bytes <= 0:
                raise WorkloadError(
                    "incoming_region_bytes must be positive, got %r" % (incoming_region_bytes,)
                )
        self.soc = soc
        self.sim = soc.sim
        self.config: SystemConfig = soc.config
        self.hops = hops
        #: One-way inter-node network latency for the configured hop count.
        #: The hop count and the (frozen) config never change, so it is
        #: computed once.
        self.one_way_network_cycles = hops * self.config.network_hop_cycles
        self.rate_match_incoming = rate_match_incoming
        self.incoming_ctx_id = incoming_ctx_id
        self.incoming_region_bytes = incoming_region_bytes
        self.remote_node_id = remote_node_id
        self._rng = random.Random(seed)
        soc.attach_remote_port(self)
        # Statistics
        self.outgoing_requests = 0
        self.outgoing_responses = 0
        self.incoming_generated = 0
        self.responses_delivered = 0

    # ------------------------------------------------------------------
    # Port interface (called by the SoC)
    # ------------------------------------------------------------------
    def send(self, message, from_node: Hashable) -> None:
        """The local node pushed a packet off chip."""
        if isinstance(message, RemoteRequest):
            self._handle_outgoing_request(message)
        elif isinstance(message, RemoteResponse):
            # A response produced by a local RRPP leaves for the remote
            # requester; nothing further happens on the local node.
            self.outgoing_responses += 1
        else:
            raise WorkloadError("unexpected off-chip message %r" % (message,))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle_outgoing_request(self, request: RemoteRequest) -> None:
        self.outgoing_requests += 1
        # The servicing latency charged at the emulated remote node: the
        # running average of the local RRPPs (the paper's methodology), or
        # the calibrated zero-load RRPP latency before any sample exists.
        service = self.soc.ni.average_rrpp_latency()
        if not service > 0:
            service = float(self.config.calibration.rrpp_service_cycles)
        round_trip = 2 * self.one_way_network_cycles + service
        response = request.make_response()
        self.sim.schedule(round_trip, RemoteEndEmulator._deliver_response, self, response)
        if self.rate_match_incoming:
            self._generate_incoming_request()

    def _deliver_response(self, response: RemoteResponse) -> None:
        self.responses_delivered += 1
        # Straight to the NI: ManycoreSoc.deliver_response only forwards.
        self.soc.ni.deliver_response(response)

    def _generate_incoming_request(self) -> None:
        region = self.incoming_region_bytes
        block_bytes = self.config.cache_block_bytes
        blocks = max(1, region // block_bytes)
        offset = self._rng.randrange(blocks) * block_bytes
        request = RemoteRequest(
            op=RemoteOp.READ,
            src_node=self.remote_node_id,
            dst_node=self.soc.node_id,
            ctx_id=self.incoming_ctx_id,
            offset=offset,
        )
        self.incoming_generated += 1
        ni = self.soc.ni
        self.sim.schedule(self.one_way_network_cycles, type(ni).deliver_remote_request,
                          ni, request)
