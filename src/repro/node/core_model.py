"""Core (application thread) model.

The cores of Table 2 are 3-wide OoO ARM-like cores; §6.1.1 shows that the
only software costs that matter for remote operations are the ~dozen
instructions creating a WQ entry and the handful reading a CQ entry, so the
core model reduces the application to exactly those interactions:

* issuing an operation costs :attr:`~repro.config.LatencyCalibration.wq_write_instruction_cycles`
  of execution plus a *coherent store* to the WQ block (the store is where
  the NIedge design loses ~100 cycles to QP ping-ponging);
* consuming a completion costs a *coherent load* from the CQ block plus
  :attr:`~repro.config.LatencyCalibration.cq_read_instruction_cycles`.

A core is busy while it issues or polls (one activity at a time), which
naturally produces the issue-rate throttling that limits NIedge's bandwidth
for small transfers (§6.2).  Drivers feed the core an iterator of WQ entries
(synchronous latency runs use ``max_outstanding=1``; asynchronous bandwidth
runs use the full WQ depth).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, Optional

from repro.errors import WorkloadError
from repro.qp.entries import WorkQueueEntry
from repro.qp.manager import QueuePair
from repro.sim.stats import LatencyRecorder


class CoreModel:
    """One application thread bound to one core and one queue pair."""

    def __init__(self, core_id: int, soc, qp: QueuePair) -> None:
        self.core_id = core_id
        self.soc = soc
        self.sim = soc.sim
        self.qp = qp
        self.calibration = soc.config.calibration
        self.entity = soc.tile_complex(core_id).entity_id
        self.frontend = soc.ni.frontend_for_core(core_id)
        soc.register_completion_listener(core_id, self._on_cq_notification)
        # Measurements
        #: When True, (re)created latency recorders use the exact-histogram
        #: mode so tail percentiles cover every completion (open-loop runs).
        self.latency_exact = False
        self.latency = LatencyRecorder("core%d-e2e" % core_id)
        self.issued_ops = 0
        self.completed_ops = 0
        self.completed_bytes = 0
        #: posted_at of the most recently completed operation (None when the
        #: posting time was unknown); lets on_op_complete listeners attribute
        #: the completion to a measurement window.
        self.last_completion_posted_at: Optional[float] = None
        # Internal state
        self._posted_times: Dict[int, float] = {}
        self._outstanding = 0
        self._busy = False
        self._cq_pending = 0
        self._stopped = False
        self._issue_source: Optional[Iterator[WorkQueueEntry]] = None
        #: Open-loop feed: entries pushed by a driver on its arrival clock.
        #: None in closed-loop mode (the default).
        self._open_queue: Optional[Deque[WorkQueueEntry]] = None
        self._max_outstanding = qp.wq.capacity
        self._on_op_complete: Optional[Callable[["CoreModel"], None]] = None

    # ------------------------------------------------------------------
    # Driver API
    # ------------------------------------------------------------------
    def start(
        self,
        entry_source: Iterator[WorkQueueEntry],
        max_outstanding: Optional[int] = None,
        on_op_complete: Optional[Callable[["CoreModel"], None]] = None,
    ) -> None:
        """Start issuing the entries produced by ``entry_source``.

        ``max_outstanding`` limits in-flight operations (1 reproduces the
        synchronous microbenchmark; the WQ depth reproduces the asynchronous
        one).  ``on_op_complete`` fires after every completed operation.
        """
        if max_outstanding is not None and max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        self._issue_source = entry_source
        self._open_queue = None
        self._max_outstanding = max_outstanding or self.qp.wq.capacity
        self._on_op_complete = on_op_complete
        self._stopped = False
        self.sim.schedule(0, self._try_work)

    def open_loop(
        self,
        max_outstanding: Optional[int] = None,
        on_op_complete: Optional[Callable[["CoreModel"], None]] = None,
    ) -> None:
        """Switch to open-loop mode: entries arrive via :meth:`feed`.

        Unlike :meth:`start`'s pull iterator — whose exhaustion permanently
        retires the core — an empty open-loop queue just means the core idles
        until the driver's arrival clock feeds the next request.
        """
        if max_outstanding is not None and max_outstanding <= 0:
            raise WorkloadError("max_outstanding must be positive")
        self._issue_source = None
        self._open_queue = deque()
        self._max_outstanding = max_outstanding or self.qp.wq.capacity
        self._on_op_complete = on_op_complete
        self._stopped = False

    def feed(self, entry: WorkQueueEntry) -> None:
        """Hand the core one open-loop request (stamped with its arrival time).

        The entry's ``posted_at`` is set to *now* — the arrival instant — so
        the recorded end-to-end latency includes any time spent waiting in
        the core's queue, which is exactly the component that explodes as
        offered load approaches saturation.
        """
        if self._open_queue is None:
            raise WorkloadError("core %d is not in open-loop mode" % self.core_id)
        entry.posted_at = self.sim.now
        self._open_queue.append(entry)
        self._try_work()

    @property
    def queued(self) -> int:
        """Open-loop requests accepted but not yet picked up by the core."""
        return len(self._open_queue) if self._open_queue is not None else 0

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still complete)."""
        self._stopped = True

    def reset_measurements(self) -> None:
        """Drop throughput/latency counters (end of warm-up)."""
        self.latency = LatencyRecorder("core%d-e2e" % self.core_id, exact=self.latency_exact)
        self.issued_ops = 0
        self.completed_ops = 0
        self.completed_bytes = 0

    def use_exact_latency(self) -> None:
        """Record latencies into an exact histogram from now on (drops samples)."""
        self.latency_exact = True
        self.reset_measurements()

    @property
    def outstanding(self) -> int:
        """Operations issued but not yet completed."""
        return self._outstanding

    # ------------------------------------------------------------------
    # Core activity state machine
    # ------------------------------------------------------------------
    def _try_work(self) -> None:
        if self._busy:
            return
        # Drain completions first: when the WQ is full the application spins
        # on the CQ until a completion frees an entry (§5).
        if self._cq_pending > 0 and not self.qp.cq.is_empty():
            self._begin_poll()
            return
        if self._stopped or (self._issue_source is None and self._open_queue is None):
            return
        if self._outstanding >= self._max_outstanding or self.qp.wq.is_full():
            return
        if self._open_queue is not None:
            if not self._open_queue:
                return  # idle until the next open-loop arrival
            entry = self._open_queue.popleft()
        else:
            entry = next(self._issue_source, None)
            if entry is None:
                self._issue_source = None
                return
        self._begin_issue(entry)

    # -- issue path ------------------------------------------------------
    def _begin_issue(self, entry: WorkQueueEntry) -> None:
        self._busy = True
        if self._open_queue is None:
            # Closed loop: the entry is created the instant the core issues
            # it.  Open-loop entries were already stamped at arrival (feed()).
            entry.posted_at = self.sim.now
        delay = self.calibration.wq_write_instruction_cycles
        faults = self.soc.fault_state
        if faults is not None:
            delay += faults.issue_penalty(self.core_id)
        self.sim.schedule(delay, self._store_wq_entry, entry)

    def _store_wq_entry(self, entry: WorkQueueEntry) -> None:
        index = self.qp.wq.post(entry)
        self._posted_times[index] = entry.posted_at
        block = self.qp.wq.entry_block_address(index)
        self.soc.coherence.access(
            self.entity, "core", block, write=True,
            on_done=lambda result: self._wq_stored(entry, index),
        )

    def _wq_stored(self, entry: WorkQueueEntry, index: int) -> None:
        self.issued_ops += 1
        self._outstanding += 1
        self.frontend.post_doorbell(self.qp, self.core_id, entry, index)
        self._busy = False
        self._try_work()

    # -- completion path ---------------------------------------------------
    def _on_cq_notification(self) -> None:
        self._cq_pending += 1
        self._try_work()

    def _begin_poll(self) -> None:
        self._busy = True
        block = self.qp.cq.head_block_address()
        self.soc.coherence.access(
            self.entity, "core", block, write=False,
            on_done=lambda result: self._cq_loaded(),
        )

    def _cq_loaded(self) -> None:
        self.sim.schedule(self.calibration.cq_read_instruction_cycles, self._consume_cq_entry)

    def _consume_cq_entry(self) -> None:
        cq_entry = self.qp.cq.pop()
        self._cq_pending = max(0, self._cq_pending - 1)
        if not self.qp.wq.is_empty():
            self.qp.wq.pop()  # a completion frees one WQ slot
        posted_at = self._posted_times.pop(cq_entry.wq_index, None)
        self.last_completion_posted_at = posted_at
        if posted_at is not None:
            self.latency.add(self.sim.now - posted_at)
        self._outstanding = max(0, self._outstanding - 1)
        self.completed_ops += 1
        self.completed_bytes += cq_entry.length
        self._busy = False
        if self._on_op_complete is not None:
            self._on_op_complete(self)
        self._try_work()
