"""Built-in fault models (the ``FAULT_MODELS`` registry's populate module).

A fault model describes *what* degrades while a fault window is active; the
:class:`~repro.faults.schedule.FaultSchedule` decides *when* and the
:class:`~repro.faults.injector.FaultInjector` toggles the shared
:class:`~repro.faults.injector.FaultState` the hot paths consult.  Every
model is seeded: target selection (which routers, which cores) and per-packet
decisions are deterministic functions of ``(seed, intensity)``, so faulted
runs reproduce exactly across reruns and parallel campaign workers.

``intensity`` is the model's single universal knob in ``[0, 1]``: the
fraction of routers/cores affected, or the per-packet loss probability.  An
intensity of 0 selects no targets at all — useful as the in-band "fault-free"
point of a chaos sweep.

Fault semantics deliberately *defer* packets rather than destroy them: a
dropped in-flight packet would strand coherence and NI protocol callbacks
mid-transaction.  ``link_down`` blocks affected links until the window
recovers, ``packet_loss`` charges a retransmit penalty at delivery, and real
load shedding (``ni_stall``) happens at the open-loop arrival boundary,
where the driver accounts it as a fault-induced drop.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, FrozenSet, Hashable, List, Mapping, Sequence

from repro.errors import FaultError, reject_unknown_params
from repro.faults.seeds import derive_seed
from repro.scenario.registry import register_fault_model

#: Knuth's multiplicative hash constant, used for deterministic per-packet
#: loss decisions (cheap, seed-mixed, uniform enough over packet ids).
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF

#: Shared blast-radius parameters of the targeted fault families.  With
#: ``blast_decay=0`` target selection is the legacy uniform sample (and the
#: draw sequence is bit-identical to it); a decay in ``(0, 1]`` weights each
#: candidate by ``decay ** hop_distance(epicenter, candidate)`` so faults
#: concentrate around a seeded (or pinned) epicenter — spatially-correlated
#: failures instead of independent ones.
_BLAST_PARAM_DEFAULTS: Mapping[str, object] = {
    "blast_decay": 0.0,
    "blast_epicenter": -1,
}


class FaultModel(abc.ABC):
    """One kind of degradation, bound to concrete targets per run.

    Subclasses override the hot-path hooks they perturb; every hook receives
    the live :class:`~repro.faults.injector.FaultState` (already checked to
    be *active*), so models can consult the current window's recovery time.
    """

    #: Canonical registry name, for results and error messages.
    name: str = ""
    #: Model-specific constructor parameters a caller may override, with
    #: their defaults (mirrors the workload/arrival-process protocol; the
    #: universal ``intensity`` and schedule knobs are split off upstream).
    param_defaults: Mapping[str, object] = {}

    def __init__(self, intensity: float, seed: int = 0) -> None:
        if not 0.0 <= intensity <= 1.0:
            raise FaultError("fault intensity must be in [0, 1], got %r" % (intensity,))
        self.intensity = float(intensity)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # Construction from validated parameters
    # ------------------------------------------------------------------
    @classmethod
    def from_params(cls, intensity: float, seed: int = 0, **params: object) -> "FaultModel":
        """Instantiate with validated parameters (unknown names fail loudly)."""
        reject_unknown_params("fault model %r" % (cls.name or cls.__name__,),
                              params, cls.param_defaults, FaultError)
        return cls(intensity, seed=seed, **params)

    # ------------------------------------------------------------------
    # Target binding
    # ------------------------------------------------------------------
    def bind(self, machine, core_ids: Sequence[int]) -> None:
        """Pick this run's concrete targets (deterministic in the seed)."""

    def _sample(self, population: Sequence, rng: random.Random) -> FrozenSet:
        """An intensity-sized seeded sample (at least one target when > 0)."""
        if self.intensity <= 0.0 or not population:
            return frozenset()
        count = max(1, round(self.intensity * len(population)))
        return frozenset(rng.sample(list(population), min(count, len(population))))

    def _sorted_routers(self, machine) -> List[Hashable]:
        """The topology's routers in a stable, representation-based order."""
        return sorted(machine.fabric.topology.nodes(), key=repr)

    def _blast_sample(
        self,
        population: Sequence,
        rng: random.Random,
        decay: float,
        epicenter: int,
        hop_distance: Callable[[object, object], int],
    ) -> FrozenSet:
        """A topology-distance-weighted sample around an epicenter.

        ``decay=0`` falls back to :meth:`_sample` (plain uniform targeting,
        no distance weighting — the independent-fault default).  Otherwise
        the epicenter is ``population[epicenter]`` when pinned, or a seeded
        uniform choice when ``epicenter`` is out of range, and targets are
        drawn without replacement with weight ``decay ** hops``.
        """
        if decay <= 0.0:
            return self._sample(population, rng)
        if self.intensity <= 0.0 or not population:
            return frozenset()
        candidates = list(population)
        count = min(max(1, round(self.intensity * len(candidates))), len(candidates))
        if 0 <= epicenter < len(candidates):
            origin = candidates[epicenter]
        else:
            origin = candidates[rng.randrange(len(candidates))]
        weights = [decay ** hop_distance(origin, node) for node in candidates]
        chosen: List = []
        while len(chosen) < count:
            total = sum(weights)
            if total <= 0.0:
                break
            point = rng.random() * total
            cumulative = 0.0
            index = len(candidates) - 1
            for position, weight in enumerate(weights):
                cumulative += weight
                if point < cumulative:
                    index = position
                    break
            chosen.append(candidates.pop(index))
            weights.pop(index)
        return frozenset(chosen)

    # ------------------------------------------------------------------
    # Hot-path hooks (state.active is already True when these run)
    # ------------------------------------------------------------------
    def hop_delay(self, state, link_key, arrival: float, hop_cycles: int) -> float:
        """Extra cycles before the packet may acquire this link."""
        return 0.0

    def loss_delay(self, state, packet_id: int) -> float:
        """Extra delivery cycles charged to a "lost" (retransmitted) packet."""
        return 0.0

    def issue_penalty(self, state, core_id: int) -> float:
        """Extra cycles a core spends issuing one operation."""
        return 0.0

    def core_rejects(self, state, core_id: int) -> bool:
        """Whether an open-loop arrival at this core is shed outright."""
        return False

    def directory_retry(self, state, addr: int, attempt: int) -> float:
        """Extra cycles before the directory retries acting on this block.

        A positive return makes the directory re-dispatch the transaction
        after that many cycles (bumping its ``attempt`` count); 0 lets it
        proceed.  Models must bound the retries they force — the directory
        re-asks on every attempt, so an unbounded model would livelock the
        transaction for the rest of the window.
        """
        return 0.0


def _validated_blast(decay: object, epicenter: object) -> "tuple[float, int]":
    decay = float(decay)  # type: ignore[arg-type]
    if not 0.0 <= decay <= 1.0:
        raise FaultError("blast_decay must be in [0, 1], got %r" % (decay,))
    return decay, int(epicenter)  # type: ignore[arg-type]


class _RouterTargetedFault(FaultModel):
    """Shared target selection: the outbound links of sampled routers."""

    def __init__(self, intensity: float, seed: int = 0,
                 blast_decay: float = 0.0, blast_epicenter: int = -1) -> None:
        super().__init__(intensity, seed=seed)
        self.blast_decay, self.blast_epicenter = _validated_blast(
            blast_decay, blast_epicenter
        )
        self.routers: FrozenSet[Hashable] = frozenset()

    def bind(self, machine, core_ids: Sequence[int]) -> None:
        rng = random.Random(derive_seed(self.seed, "bind", self.name))
        self.routers = self._blast_sample(
            self._sorted_routers(machine), rng,
            self.blast_decay, self.blast_epicenter,
            machine.fabric.topology.hop_count,
        )


class _CoreTargetedFault(FaultModel):
    """Shared target selection: a sampled subset of the driven cores."""

    def __init__(self, intensity: float, seed: int = 0,
                 blast_decay: float = 0.0, blast_epicenter: int = -1) -> None:
        super().__init__(intensity, seed=seed)
        self.blast_decay, self.blast_epicenter = _validated_blast(
            blast_decay, blast_epicenter
        )
        self.cores: FrozenSet[int] = frozenset()

    def bind(self, machine, core_ids: Sequence[int]) -> None:
        rng = random.Random(derive_seed(self.seed, "bind", self.name))
        cores = sorted(core_ids)
        self.cores = self._blast_sample(
            cores, rng,
            self.blast_decay, self.blast_epicenter,
            self._core_hop_distance(machine),
        )

    @staticmethod
    def _core_hop_distance(machine) -> Callable[[int, int], int]:
        """Core-to-core hop metric via the cores' home tiles (1:1 mapping)."""
        tile_nodes = machine.placement.tile_nodes
        hop_count = machine.fabric.topology.hop_count
        span = len(tile_nodes)

        def distance(a: int, b: int) -> int:
            return hop_count(tile_nodes[a % span], tile_nodes[b % span])

        return distance


@register_fault_model("link_down")
class LinkDownFault(_RouterTargetedFault):
    """Outbound links of affected routers are unusable until recovery.

    A packet reaching an affected link during a window is held and acquires
    the link only at the window's recovery time — the hard-outage model: the
    route still exists, but nothing moves over it while the fault is active.
    """

    name = "link_down"
    param_defaults: Mapping[str, object] = dict(_BLAST_PARAM_DEFAULTS)

    def hop_delay(self, state, link_key, arrival: float, hop_cycles: int) -> float:
        if link_key[0] not in self.routers:
            return 0.0
        remaining = state.window_until - arrival
        return remaining if remaining > 0.0 else 0.0


@register_fault_model("router_degrade")
class RouterDegradeFault(_RouterTargetedFault):
    """Affected routers forward at a per-hop latency multiplier.

    The soft-failure counterpart of ``link_down``: traffic still flows, but
    every hop out of an affected router costs ``multiplier`` times its
    healthy latency (the surplus is charged before link acquisition).
    """

    name = "router_degrade"
    param_defaults: Mapping[str, object] = {"multiplier": 4.0, **_BLAST_PARAM_DEFAULTS}

    def __init__(self, intensity: float, seed: int = 0, multiplier: float = 4.0,
                 **targeting: object) -> None:
        super().__init__(intensity, seed=seed, **targeting)  # type: ignore[arg-type]
        if multiplier < 1.0:
            raise FaultError("router_degrade multiplier must be >= 1")
        self.multiplier = float(multiplier)

    def hop_delay(self, state, link_key, arrival: float, hop_cycles: int) -> float:
        if link_key[0] not in self.routers:
            return 0.0
        return hop_cycles * (self.multiplier - 1.0)


@register_fault_model("ni_stall")
class NiStallFault(_CoreTargetedFault):
    """Affected cores' NIs shed open-loop arrivals while the fault is active.

    Models an NI frontend stalled in recovery: new work is rejected at the
    arrival boundary (the driver accounts these as *fault-induced* drops,
    separate from queue-overflow drops); in-flight operations complete.
    """

    name = "ni_stall"
    param_defaults: Mapping[str, object] = dict(_BLAST_PARAM_DEFAULTS)

    def core_rejects(self, state, core_id: int) -> bool:
        return core_id in self.cores


@register_fault_model("packet_loss")
class PacketLossFault(FaultModel):
    """A seeded fraction of in-window packets pay a retransmit penalty.

    Each packet delivered while a window is active is "lost" with probability
    ``intensity``, decided by a deterministic hash of the packet id, and
    redelivered ``retransmit_cycles`` later — corruption-and-retry semantics
    without stranding protocol callbacks the way a true drop would.
    """

    name = "packet_loss"
    param_defaults: Mapping[str, object] = {"retransmit_cycles": 200.0}

    def __init__(self, intensity: float, seed: int = 0,
                 retransmit_cycles: float = 200.0) -> None:
        super().__init__(intensity, seed=seed)
        if retransmit_cycles < 0:
            raise FaultError("packet_loss retransmit_cycles cannot be negative")
        self.retransmit_cycles = float(retransmit_cycles)
        self._threshold = int(self.intensity * (_HASH_MASK + 1))

    def loss_delay(self, state, packet_id: int) -> float:
        mixed = ((packet_id + self.seed) * _HASH_MULTIPLIER) & _HASH_MASK
        if mixed < self._threshold:
            return self.retransmit_cycles
        return 0.0


@register_fault_model("slow_node")
class SlowNodeFault(_CoreTargetedFault):
    """Affected cores issue operations with extra per-operation latency.

    The straggler model: a thermally-throttled or interference-laden node
    keeps serving, just slower — each issue on an affected core costs an
    extra ``penalty_cycles`` on top of the WQ-write instruction cost.
    """

    name = "slow_node"
    param_defaults: Mapping[str, object] = {"penalty_cycles": 50.0, **_BLAST_PARAM_DEFAULTS}

    def __init__(self, intensity: float, seed: int = 0,
                 penalty_cycles: float = 50.0, **targeting: object) -> None:
        super().__init__(intensity, seed=seed, **targeting)  # type: ignore[arg-type]
        if penalty_cycles < 0:
            raise FaultError("slow_node penalty_cycles cannot be negative")
        self.penalty_cycles = float(penalty_cycles)

    def issue_penalty(self, state, core_id: int) -> float:
        if core_id in self.cores:
            return self.penalty_cycles
        return 0.0


class _BlockHashFault(FaultModel):
    """Shared seeded per-block decision: the ``packet_loss`` hash over
    block addresses, so "which directory entries are bad" is a deterministic
    function of ``(seed, intensity)`` with no per-run state."""

    def __init__(self, intensity: float, seed: int = 0) -> None:
        super().__init__(intensity, seed=seed)
        self._threshold = int(self.intensity * (_HASH_MASK + 1))

    def _block_affected(self, addr: int) -> bool:
        mixed = ((addr + self.seed) * _HASH_MULTIPLIER) & _HASH_MASK
        return mixed < self._threshold


@register_fault_model("directory_corrupt")
class DirectoryCorruptFault(_BlockHashFault):
    """Seeded stale directory entries force retry round-trips at the home.

    A corrupted entry's owner pointer is stale: the directory's first
    ``max_retries`` dispatches for an affected block each bounce with a
    fixed ``retry_cycles`` re-lookup penalty before the transaction
    proceeds — the LLC-probe-miss-and-retry path of a soft directory error,
    without ever losing the transaction.
    """

    name = "directory_corrupt"
    param_defaults: Mapping[str, object] = {"retry_cycles": 40.0, "max_retries": 2}

    def __init__(self, intensity: float, seed: int = 0,
                 retry_cycles: float = 40.0, max_retries: int = 2) -> None:
        super().__init__(intensity, seed=seed)
        if retry_cycles < 0:
            raise FaultError("directory_corrupt retry_cycles cannot be negative")
        if int(max_retries) < 1:
            raise FaultError("directory_corrupt max_retries must be >= 1")
        self.retry_cycles = float(retry_cycles)
        self.max_retries = int(max_retries)

    def directory_retry(self, state, addr: int, attempt: int) -> float:
        if attempt >= self.max_retries or not self._block_affected(addr):
            return 0.0
        return self.retry_cycles


@register_fault_model("stale_owner_retry")
class StaleOwnerRetryFault(_BlockHashFault):
    """Bounded retry storms with exponential backoff at the directory.

    The livelock-adjacent cousin of ``directory_corrupt``: an affected
    block's requester keeps racing a stale owner and backs off
    ``backoff_cycles * 2**attempt`` per retry, up to ``max_retries``
    attempts — so the per-transaction damage grows geometrically but stays
    bounded, and the accounted backoff shows up in ``fault_profile``.
    """

    name = "stale_owner_retry"
    param_defaults: Mapping[str, object] = {"backoff_cycles": 20.0, "max_retries": 3}

    def __init__(self, intensity: float, seed: int = 0,
                 backoff_cycles: float = 20.0, max_retries: int = 3) -> None:
        super().__init__(intensity, seed=seed)
        if backoff_cycles < 0:
            raise FaultError("stale_owner_retry backoff_cycles cannot be negative")
        if int(max_retries) < 1:
            raise FaultError("stale_owner_retry max_retries must be >= 1")
        self.backoff_cycles = float(backoff_cycles)
        self.max_retries = int(max_retries)

    def directory_retry(self, state, addr: int, attempt: int) -> float:
        if attempt >= self.max_retries or not self._block_affected(addr):
            return 0.0
        return self.backoff_cycles * (2.0 ** attempt)
