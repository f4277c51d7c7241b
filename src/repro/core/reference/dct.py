"""Dependence Chain Tracker (DCT).

The DCT is the major dependence-management unit of Picos (Section III-A).
It owns one Dependence Memory (DM) and one Version Memory (VM) and
implements the two halves of the operational flow of Section III-B:

new-dependence processing (N5)
    For each dependence of a new task the DCT performs a DM compare.  A miss
    allocates a DM way and a VM version and answers *ready*; a hit attaches
    the dependence to the live version chain of the address and answers
    *ready* or *dependent* depending on whether earlier accesses are still
    pending.

finish processing (F4)
    For each dependence of a finished task the DCT updates the version the
    dependence belonged to, wakes the consumer chain (from the *last*
    consumer) or the next producer version when appropriate, and recycles VM
    and DM entries once a version chain is completely finished.

Structural hazards -- a full DM set (conflict) or a full VM -- are reported
through :class:`DctStall` so the Gateway can hold the new task, exactly like
the prototype stalls its pipeline.
"""

from __future__ import annotations


from typing import List, Optional, Sequence, Tuple

from repro.core.config import PicosConfig
from repro.core.dct import DctStall, StallReason
from repro.core.reference.dependence_memory import DependenceMemory
from repro.core.packets import (
    DependencePacket,
    DependentPacket,
    FinishPacket,
    ReadyPacket,
    TaskSlotRef,
)
from repro.core.stats import PicosStats
from repro.core.reference.version_memory import VersionEntry, VersionMemory
from repro.runtime.task import Direction


__all__ = [
    "StallReason",
    "DctStall",
    "DependenceOutcome",
    "FinishOutcome",
    "DependenceChainTracker",
]


class DependenceOutcome:
    """Result of processing one new dependence.

    A ``__slots__`` value class: one is allocated per dependence of every
    submitted task.
    """

    __slots__ = ("ready", "vm_index", "predecessor")

    def __init__(
        self,
        ready: bool,
        vm_index: int,
        predecessor: Optional[TaskSlotRef] = None,
    ) -> None:
        #: ``True`` when the dependence is immediately ready.
        self.ready = ready
        #: VM entry (version) the dependence was attached to.
        self.vm_index = vm_index
        #: Consumer-chain predecessor to store in the TMX (waiting consumers
        #: only).
        self.predecessor = predecessor

    def __repr__(self) -> str:
        return (
            f"DependenceOutcome(ready={self.ready}, vm_index={self.vm_index}, "
            f"predecessor={self.predecessor!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependenceOutcome):
            return NotImplemented
        return (
            self.ready == other.ready
            and self.vm_index == other.vm_index
            and self.predecessor == other.predecessor
        )

    def to_packet(self, slot: TaskSlotRef):
        """Render the outcome as the packet the DCT sends to the TRS."""
        if self.ready:
            return ReadyPacket(slot=slot, vm_index=self.vm_index)
        return DependentPacket(
            slot=slot, vm_index=self.vm_index, predecessor=self.predecessor
        )


class FinishOutcome:
    """Result of processing one dependence-release (finish) packet."""

    __slots__ = ("wakeups", "version_released", "address_released")

    def __init__(self) -> None:
        #: Wake-ups produced by this release: consumer chains are woken
        #: through their last consumer; completed versions wake the next
        #: producer.
        self.wakeups: List[ReadyPacket] = []
        #: Whether a VM entry was recycled.
        self.version_released = False
        #: Whether the DM way of the address was recycled (chain fully
        #: finished).
        self.address_released = False

    def __repr__(self) -> str:
        return (
            f"FinishOutcome(wakeups={self.wakeups!r}, "
            f"version_released={self.version_released}, "
            f"address_released={self.address_released})"
        )


class DependenceChainTracker:
    """One DCT instance: DM + VM plus the chain-tracking control logic."""

    def __init__(
        self,
        dct_id: int,
        config: PicosConfig,
        stats: Optional[PicosStats] = None,
    ) -> None:
        self.dct_id = dct_id
        self.config = config
        self.stats = stats if stats is not None else PicosStats()
        self.dm = DependenceMemory(config.dm_design, config.dm_sets)
        self.vm = VersionMemory(config.effective_vm_entries)
        #: Addresses whose insertion is currently blocked on a conflict;
        #: used to avoid double-counting conflicts across retries.
        self._blocked_addresses: set[int] = set()

    # ------------------------------------------------------------------
    # new-dependence path (N5)
    # ------------------------------------------------------------------
    def can_accept(self, address: int, direction: Direction) -> bool:
        """Check whether a dependence on ``address`` could be stored now.

        Used by the Gateway to decide whether to resume a stalled
        submission without paying for a failed attempt.
        """
        way = self.dm.find_way(address)
        if way is not None:
            if direction.writes:
                return not self.vm.full
            return True
        if self.dm.set_is_full(self.dm.set_index(address)):
            return False
        return not self.vm.full

    def process_dependence(self, packet: DependencePacket) -> DependenceOutcome:
        """Handle one new dependence; may raise :class:`DctStall`.

        A batch of one: the packet itself carries ``address``/``direction``
        like a :class:`~repro.runtime.task.Dependence`, so it can ride
        through :meth:`process_batch` directly.  Kept as the single-packet
        surface for exploratory drivers and the unit tests; the Gateway
        dispatches whole tasks through :meth:`process_batch`.
        """
        outcomes, stall_reason = self.process_batch((packet.slot,), (packet,), 0, 1)
        if stall_reason is not None:
            raise DctStall(stall_reason, packet.address)
        ready, vm_index, predecessor = outcomes[0]
        return DependenceOutcome(
            ready=ready, vm_index=vm_index, predecessor=predecessor
        )

    def process_batch(
        self,
        slots: Sequence[TaskSlotRef],
        dependences: Sequence,
        start: int,
        end: int,
    ) -> Tuple[List[Tuple[bool, int, Optional[TaskSlotRef]]], Optional[StallReason]]:
        """Handle all of ``dependences[start:end]`` in one pass (N5, batched).

        ``slots[k - start]`` is the TMX slot reference of
        ``dependences[k]``; each dependence only needs ``.address`` and
        ``.direction`` attributes (:class:`~repro.runtime.task.Dependence`
        and :class:`~repro.core.packets.DependencePacket` both qualify).

        This is the Gateway's hot path: one call per task (per DCT bank)
        instead of one packet round-trip per dependence.  The set index of
        every address resolves through the memoized DM hash, the DM/VM
        mutations happen through locals hoisted out of the loop, and the
        stats and watermark updates are folded to one write per batch --
        all observably identical to running :meth:`process_dependence`
        dependence by dependence, which the parity suite pins.

        Returns ``(outcomes, stall_reason)``: one ``(ready, vm_index,
        predecessor)`` triple per dependence processed, in order.  On a
        structural hazard the batch stops -- ``outcomes`` covers the
        dependences stored before the blocked one and ``stall_reason`` says
        why (the stalled dependence itself is *not* stored, exactly like
        the raising single-packet path); the Gateway resumes from
        ``start + len(outcomes)`` once resources free up.
        """
        # The DM compare and the DM/VM allocations are inlined over locals:
        # this loop runs once per dependence of every submitted task and a
        # method call per memory access costs as much as the access.  The
        # single-packet surfaces (DependenceMemory.lookup/allocate,
        # VersionMemory.allocate) define the semantics; the parity suite
        # pins this loop to them cycle-for-cycle.
        dm = self.dm
        vm = self.vm
        stats = self.stats
        blocked = self._blocked_addresses
        index_of = dm._index_of
        dm_sets = dm._sets
        vm_free = vm._free
        vm_slots = vm._slots
        writer = Direction.OUT
        readwriter = Direction.INOUT
        outcomes: List[Tuple[bool, int, Optional[TaskSlotRef]]] = []
        append = outcomes.append
        stall_reason: Optional[StallReason] = None
        ready_outcomes = 0
        for index in range(start, end):
            dep = dependences[index]
            address = dep.address
            direction = dep.direction
            writes = direction is writer or direction is readwriter
            slot = slots[index - start]
            # DM compare: way 0 has the highest priority (Figure 4); the
            # first free way doubles as the allocation target on a miss.
            way = None
            free_way = None
            for candidate in dm_sets[index_of(address)]:
                if candidate.valid:
                    if candidate.tag == address:
                        way = candidate
                        break
                elif free_way is None:
                    free_way = candidate
            if way is None:
                # First live access: allocate DM way + first version.
                if free_way is None:
                    self._record_conflict(address)
                    stall_reason = StallReason.DM_CONFLICT
                    break
                if not vm_free:
                    stats.vm_full_stalls += 1
                    stall_reason = StallReason.VM_FULL
                    break
                free_way.valid = True
                free_way.tag = address
                free_way.input_only = not writes
                dm._occupied += 1
                vm_index = vm_free.pop()
                version = VersionEntry(vm_index=vm_index, address=address)
                vm_slots[vm_index] = version
                stats.dm_allocations += 1
                stats.vm_allocations += 1
                free_way.latest_vm_index = vm_index
                free_way.live_versions = 1
                if writes:
                    version.producer = slot
                else:
                    version.consumers_arrived = 1
                # The very first access to an address never waits.
                ready_outcomes += 1
                append((True, vm_index, None))
            elif writes:
                # A writer opens a new version chained after the latest
                # live one; it always waits (WAW/WAR ordering).
                if not vm_free:
                    stats.vm_full_stalls += 1
                    stall_reason = StallReason.VM_FULL
                    break
                previous = vm_slots[way.latest_vm_index]
                vm_index = vm_free.pop()
                version = VersionEntry(vm_index=vm_index, address=address)
                vm_slots[vm_index] = version
                stats.vm_allocations += 1
                version.producer = slot
                previous.next_version = vm_index
                way.latest_vm_index = vm_index
                way.live_versions += 1
                way.input_only = False
                append((False, vm_index, None))
            else:
                # A reader joins the latest live version of the address.
                version = vm_slots[way.latest_vm_index]
                version.consumers_arrived += 1
                if version.producer is None or version.producer_finished:
                    ready_outcomes += 1
                    append((True, version.vm_index, None))
                else:
                    predecessor = version.last_consumer
                    version.last_consumer = slot
                    append((False, version.vm_index, predecessor))
            blocked.discard(address)
        stored = len(outcomes)
        stats.dependences_processed += stored
        stats.ready_packets += ready_outcomes
        stats.dependent_packets += stored - ready_outcomes
        # Occupancy only grows during insertion, so one watermark check per
        # batch observes the same high water as one per dependence.
        self._update_memory_watermarks()
        return outcomes, stall_reason

    def _record_conflict(self, address: int) -> None:
        """Count a DM conflict the first time an address becomes blocked."""
        if address not in self._blocked_addresses:
            self.stats.dm_conflicts += 1
            self._blocked_addresses.add(address)
        self.stats.dm_conflict_stall_cycles += self.config.dm_conflict_stall_cycles

    # ------------------------------------------------------------------
    # finish path (F4)
    # ------------------------------------------------------------------
    def process_finish(self, packet: FinishPacket) -> FinishOutcome:
        """Handle the release of one dependence of a finished task."""
        outcome = FinishOutcome()
        version = self.vm.entry(packet.vm_index)
        self.stats.finish_packets += 1

        is_producer_finish = (
            version.producer is not None
            and not version.producer_finished
            and version.producer == packet.slot
        )
        if is_producer_finish:
            version.producer_finished = True
            if version.last_consumer is not None:
                # Wake the consumer chain starting from the last consumer
                # (link 1 of Figure 5); the TRS walks the chain backwards.
                outcome.wakeups.append(
                    ReadyPacket(slot=version.last_consumer, vm_index=version.vm_index)
                )
                self.stats.wakeup_packets += 1
        else:
            version.consumers_finished += 1

        if version.complete:
            outcome.version_released = True
            outcome.address_released = self._retire_version(
                version, outcome.wakeups
            )
        return outcome

    def process_finish_batch(
        self, packets: Sequence[FinishPacket], start: int, end: int
    ) -> List[ReadyPacket]:
        """Handle ``packets[start:end]`` in one pass (F4, batched).

        The finish-side counterpart of :meth:`process_batch`: one call per
        finishing task (per DCT bank) instead of one packet round-trip per
        released dependence.  Returns the wake-ups of the whole run in
        release order -- exactly the concatenation of the per-packet
        ``FinishOutcome.wakeups`` lists, which the parity suite pins.
        """
        vm_slots = self.vm._slots
        stats = self.stats
        wakeups: List[ReadyPacket] = []
        append = wakeups.append
        finished = 0
        woken = 0
        for index in range(start, end):
            packet = packets[index]
            version = vm_slots[packet.vm_index]
            if version is None:
                # Same diagnostic the single-packet path gets from
                # vm.entry(): a stale/duplicate release must name the
                # violated invariant, not die on an attribute of None.
                raise KeyError(f"VM entry {packet.vm_index} is not occupied")
            finished += 1
            producer = version.producer
            if (
                producer is not None
                and not version.producer_finished
                and producer == packet.slot
            ):
                version.producer_finished = True
                last_consumer = version.last_consumer
                if last_consumer is not None:
                    append(
                        ReadyPacket(slot=last_consumer, vm_index=version.vm_index)
                    )
                    woken += 1
            else:
                version.consumers_finished += 1
            if (
                producer is None or version.producer_finished
            ) and version.consumers_arrived == version.consumers_finished:
                self._retire_version(version, wakeups)
        stats.finish_packets += finished
        stats.wakeup_packets += woken
        return wakeups

    def _retire_version(self, version, wakeups: List[ReadyPacket]) -> bool:
        """Recycle a completed version, waking the next producer if any.

        Appends the producer wake-up (when the address has a next version)
        to ``wakeups`` and returns whether the DM way was recycled too.
        """
        way = self.dm.find_way(version.address)
        if way is None:
            raise RuntimeError(
                f"version {version.vm_index} refers to address "
                f"{version.address:#x} which is not in the DM"
            )
        if version.next_version is not None:
            next_version = self.vm.entry(version.next_version)
            if next_version.producer is None:
                raise RuntimeError("chained version without a producer")
            wakeups.append(
                ReadyPacket(
                    slot=next_version.producer, vm_index=next_version.vm_index
                )
            )
            self.stats.wakeup_packets += 1
        self.vm.release(version.vm_index)
        way.live_versions -= 1
        if way.live_versions <= 0:
            self.dm.release_way(way)
            return True
        return False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _update_memory_watermarks(self) -> None:
        # Branches instead of max(): this runs once per processed dependence
        # and the watermark moves only a handful of times per run.
        stats = self.stats
        dm_occupied = self.dm.occupied
        if dm_occupied > stats.dm_high_water:
            stats.dm_high_water = dm_occupied
        vm_occupied = self.vm.occupied
        if vm_occupied > stats.vm_high_water:
            stats.vm_high_water = vm_occupied

    @property
    def live_addresses(self) -> int:
        """Number of addresses currently tracked by the DM."""
        return self.dm.occupied

    @property
    def live_versions(self) -> int:
        """Number of versions currently stored in the VM."""
        return self.vm.occupied

    def is_idle(self) -> bool:
        """``True`` when no dependence state is live (all chains retired)."""
        return self.dm.occupied == 0 and self.vm.occupied == 0
