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
through the returned stall reason so the Gateway can hold the new task,
exactly like the prototype stalls its pipeline.

Flat datapath
-------------

Both halves run directly over the parallel flat arrays of the DM, VM and
TMX (see ``docs/datapath.md``): the DM compare is a C-speed tag scan
returning an integer way handle, versions and task slots are integer
indices with ``-1`` for *none*, and no packet or outcome object is
allocated per dependence.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.core.config import PicosConfig
from repro.core.dependence_memory import DependenceMemory
from repro.core.stats import PicosStats
from repro.core.version_memory import VersionMemory
from repro.runtime.task import Direction


class StallReason(enum.Enum):
    """Why the DCT could not store a new dependence."""

    DM_CONFLICT = "dm-conflict"
    VM_FULL = "vm-full"
    TM_FULL = "tm-full"


class DctStall(Exception):
    """Raised when a new dependence cannot be stored right now."""

    def __init__(self, reason: StallReason, address: int) -> None:
        super().__init__(f"DCT stall ({reason.value}) on address {address:#x}")
        self.reason = reason
        self.address = address


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
        dm = self.dm
        if dm.lookup(address) >= 0:
            if direction.writes:
                return not self.vm.full
            return True
        if dm.set_is_full(dm.set_index(address)):
            return False
        return not self.vm.full

    def process_batch(
        self,
        slots: Sequence[int],
        dependences: Sequence,
        start: int,
        end: int,
    ) -> Tuple[List[Tuple[bool, int, int]], Optional[StallReason]]:
        """Handle all of ``dependences[start:end]`` in one pass (N5, batched).

        ``slots[k - start]`` is the packed TMX slot handle of
        ``dependences[k]``; each dependence only needs ``.address`` and
        ``.direction`` attributes (:class:`~repro.runtime.task.Dependence`
        qualifies).

        This is the Gateway's hot path: one call per task (per DCT bank)
        instead of one packet round-trip per dependence, fused directly
        over the flat DM/VM arrays with hoisted locals.  Returns
        ``(outcomes, stall_reason)``: one ``(ready, vm_index,
        predecessor)`` triple per dependence processed, in order, with
        integer slot handles (``-1`` for no predecessor).  On a structural
        hazard the batch stops -- ``outcomes`` covers the dependences
        stored before the blocked one and ``stall_reason`` says why (the
        stalled dependence itself is *not* stored); the Gateway resumes
        from ``start + len(outcomes)`` once resources free up.
        """
        dm = self.dm
        vm = self.vm
        stats = self.stats
        blocked = self._blocked_addresses
        index_of = dm._index_of
        ways = dm.ways_per_set
        dm_valid = dm._valid
        dm_tag = dm._tag
        dm_input_only = dm._input_only
        dm_latest = dm._latest_vm_index
        dm_live = dm._live_versions
        vm_free = vm._free
        v_valid = vm._valid
        v_address = vm._address
        v_producer = vm._producer
        v_producer_finished = vm._producer_finished
        v_last_consumer = vm._last_consumer
        v_consumers_arrived = vm._consumers_arrived
        v_consumers_finished = vm._consumers_finished
        v_next_version = vm._next_version
        v_dm_handle = vm._dm_handle
        writer = Direction.OUT
        readwriter = Direction.INOUT
        tag_scan = dm_tag.index
        free_scan = dm_valid.index
        outcomes: List[Tuple[bool, int, int]] = []
        append = outcomes.append
        stall_reason: Optional[StallReason] = None
        ready_outcomes = 0
        for index in range(start, end):
            dep = dependences[index]
            address = dep.address
            direction = dep.direction
            writes = direction is writer or direction is readwriter
            slot = slots[index - start]
            # DM compare: way 0 has the highest priority (Figure 4).  The
            # tag scan runs at C speed; released ways hold tag -1, so a
            # match is always a valid way.
            base = index_of(address) * ways
            limit = base + ways
            try:  # repro-lint: disable=HOT002(C-speed list.index tag scan; a miss is the expected cold case)
                way = tag_scan(address, base, limit)
            except ValueError:
                way = -1
            if way < 0:
                # First live access: allocate DM way + first version.
                try:  # repro-lint: disable=HOT002(C-speed list.index free-way scan; ValueError is the set-conflict signal)
                    way = free_scan(False, base, limit)
                except ValueError:
                    self._record_conflict(address)
                    stall_reason = StallReason.DM_CONFLICT
                    break
                if not vm_free:
                    stats.vm_full_stalls += 1
                    stall_reason = StallReason.VM_FULL
                    break
                dm_valid[way] = True
                dm_tag[way] = address
                dm_input_only[way] = not writes
                dm._occupied += 1
                vm_index = vm_free.pop()
                v_valid[vm_index] = True
                v_address[vm_index] = address
                v_producer_finished[vm_index] = False
                v_last_consumer[vm_index] = -1
                v_consumers_finished[vm_index] = 0
                v_next_version[vm_index] = -1
                v_dm_handle[vm_index] = way
                stats.dm_allocations += 1
                stats.vm_allocations += 1
                dm_latest[way] = vm_index
                dm_live[way] = 1
                if writes:
                    v_producer[vm_index] = slot
                    v_consumers_arrived[vm_index] = 0
                else:
                    v_producer[vm_index] = -1
                    v_consumers_arrived[vm_index] = 1
                # The very first access to an address never waits.
                ready_outcomes += 1
                append((True, vm_index, -1))
            elif writes:
                # A writer opens a new version chained after the latest
                # live one; it always waits (WAW/WAR ordering).
                if not vm_free:
                    stats.vm_full_stalls += 1
                    stall_reason = StallReason.VM_FULL
                    break
                previous = dm_latest[way]
                vm_index = vm_free.pop()
                v_valid[vm_index] = True
                v_address[vm_index] = address
                v_producer[vm_index] = slot
                v_producer_finished[vm_index] = False
                v_last_consumer[vm_index] = -1
                v_consumers_arrived[vm_index] = 0
                v_consumers_finished[vm_index] = 0
                v_next_version[vm_index] = -1
                v_dm_handle[vm_index] = way
                stats.vm_allocations += 1
                v_next_version[previous] = vm_index
                dm_latest[way] = vm_index
                dm_live[way] += 1
                dm_input_only[way] = False
                append((False, vm_index, -1))
            else:
                # A reader joins the latest live version of the address.
                vm_index = dm_latest[way]
                v_consumers_arrived[vm_index] += 1
                if v_producer[vm_index] < 0 or v_producer_finished[vm_index]:
                    ready_outcomes += 1
                    append((True, vm_index, -1))
                else:
                    predecessor = v_last_consumer[vm_index]
                    v_last_consumer[vm_index] = slot
                    append((False, vm_index, predecessor))
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
    def process_finish_run(
        self,
        slots: Sequence[int],
        vm_indices: Sequence[int],
        start: int,
        end: int,
    ) -> List[Tuple[int, int]]:
        """Handle finish notifications ``start:end`` in one pass (F4).

        ``slots``/``vm_indices`` are the parallel sequences a TRS emitted
        from :meth:`~repro.core.trs.TaskReservationStation.handle_finished`.
        Returns the wake-ups of the whole run in release order as
        ``(slot, vm_index)`` pairs -- consumer chains are woken through
        their last consumer, completed versions wake the next producer.
        """
        vm = self.vm
        stats = self.stats
        v_valid = vm._valid
        v_producer = vm._producer
        v_producer_finished = vm._producer_finished
        v_last_consumer = vm._last_consumer
        v_consumers_arrived = vm._consumers_arrived
        v_consumers_finished = vm._consumers_finished
        wakeups: List[Tuple[int, int]] = []
        append = wakeups.append
        finished = 0
        woken = 0
        for index in range(start, end):
            vm_index = vm_indices[index]
            if not v_valid[vm_index]:
                # A stale/duplicate release must name the violated
                # invariant, not corrupt a recycled entry.
                raise KeyError(f"VM entry {vm_index} is not occupied")
            finished += 1
            producer = v_producer[vm_index]
            if (
                producer >= 0
                and not v_producer_finished[vm_index]
                and producer == slots[index]
            ):
                v_producer_finished[vm_index] = True
                last_consumer = v_last_consumer[vm_index]
                if last_consumer >= 0:
                    # Wake the consumer chain starting from the last
                    # consumer (link 1 of Figure 5); the TRS walks the
                    # chain backwards.
                    append((last_consumer, vm_index))
                    woken += 1
            else:
                v_consumers_finished[vm_index] += 1
            if (
                producer < 0 or v_producer_finished[vm_index]
            ) and v_consumers_arrived[vm_index] == v_consumers_finished[vm_index]:
                self._retire_version(vm_index, wakeups)
        stats.finish_packets += finished
        stats.wakeup_packets += woken
        return wakeups

    def _retire_version(self, vm_index: int, wakeups: List[Tuple[int, int]]) -> None:
        """Recycle a completed version, waking the next producer if any.

        Appends the producer wake-up (when the address has a next version)
        to ``wakeups``, and recycles the DM way once the address has no live
        version left.  The DM way handle was cached at allocation; the tag
        check guards the cache against any handle-stability bug.
        """
        dm = self.dm
        vm = self.vm
        way = vm._dm_handle[vm_index]
        address = vm._address[vm_index]
        if way < 0 or dm._tag[way] != address:
            raise RuntimeError(
                f"version {vm_index} refers to address "
                f"{address:#x} which is not in the DM"
            )
        next_version = vm._next_version[vm_index]
        if next_version >= 0:
            producer = vm._producer[next_version]
            if producer < 0:
                raise RuntimeError("chained version without a producer")
            wakeups.append((producer, next_version))
            self.stats.wakeup_packets += 1
        vm.release(vm_index)
        live = dm._live_versions[way] - 1
        dm._live_versions[way] = live
        if live <= 0:
            dm.release_handle(way)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _update_memory_watermarks(self) -> None:
        # Branches instead of max(): this runs once per processed batch
        # and the watermark moves only a handful of times per run.
        stats = self.stats
        dm_occupied = self.dm.occupied
        if dm_occupied > stats.dm_high_water:
            stats.dm_high_water = dm_occupied
        vm_occupied = self.vm.occupied
        if vm_occupied > stats.vm_high_water:
            stats.vm_high_water = vm_occupied

    def is_idle(self) -> bool:
        """``True`` when no dependence state is live (all chains retired)."""
        return self.dm.occupied == 0 and self.vm.occupied == 0
