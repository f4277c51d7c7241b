"""Task Reservation Station (TRS).

The TRS is the major task-management unit of Picos (Section III-A): it
stores in-flight tasks in its Task Memory, tracks the readiness of new tasks
by counting the ready notifications arriving from the DCT, walks consumer
chains backwards when a wake-up arrives (links 2-3 of Figure 5), and manages
the deletion of finished tasks, emitting one finish notification per
dependence towards the DCT.

Integer-handle surface
----------------------

The hot datapath identifies a dependence slot by the packed integer handle

    ``slot = trs_id * (tm_entries * max_deps) + tm_index * max_deps + dep_index``

with ``-1`` meaning *none* -- no object is allocated per notification.
The handle arithmetic is exactly the TMX SRAM address computation of the
prototype; ``docs/datapath.md`` documents the encoding and what pins the
datapath's cycles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import PicosConfig
from repro.core.stats import PicosStats
from repro.core.task_memory import TaskMemory


class TaskReservationStation:
    """One TRS instance: TM0/TMX storage plus the readiness control logic."""

    def __init__(
        self,
        trs_id: int,
        config: PicosConfig,
        stats: Optional[PicosStats] = None,
    ) -> None:
        self.trs_id = trs_id
        self.config = config
        self.stats = stats if stats is not None else PicosStats()
        self.task_memory = TaskMemory(
            entries=config.tm_entries, max_deps_per_task=config.max_deps_per_task
        )
        #: Slot-handle geometry (shared by every TRS/DCT of one accelerator).
        self.slot_stride = config.max_deps_per_task
        self.slots_per_trs = config.tm_entries * self.slot_stride
        self.slot_base = trs_id * self.slots_per_trs

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    @property
    def has_free_slot(self) -> bool:
        """Whether a New Entry Request would succeed."""
        return not self.task_memory.full

    @property
    def in_flight(self) -> int:
        """Number of tasks currently stored in this TRS."""
        return self.task_memory.occupied

    # ------------------------------------------------------------------
    # new-task path (N3, N5, N6)
    # ------------------------------------------------------------------
    def accept_task(self, task_id: int, num_deps: int) -> Tuple[int, bool]:
        """Store a new task in a free TM entry.

        Returns ``(tm_index, ready)``; ``ready`` is ``True`` when the task
        has no dependences and goes straight to the Task Scheduler (N6).
        """
        tm = self.task_memory
        tm_index = tm.allocate(task_id, num_deps)
        stats = self.stats
        stats.tasks_accepted += 1
        occupied = tm.occupied
        if occupied > stats.tm_high_water:
            stats.tm_high_water = occupied
        if num_deps == 0:
            stats.tasks_without_deps += 1
            return tm_index, True
        return tm_index, False

    def record_dependences(
        self, tm_index: int, dependences: Sequence, start: int, end: int
    ) -> range:
        """Reserve TMX slots for a run of dependences of an in-flight task.

        One TM entry read records ``dependences[start:end]`` (each needs
        ``.address`` and ``.direction``) and the returned ``range`` holds
        their packed slot handles in order -- no per-dependence reference
        object travels to the DCT.
        """
        self.task_memory.add_dependence_slots(tm_index, dependences, start, end)
        base = self.slot_base + tm_index * self.slot_stride
        return range(base + start, base + end)

    def drop_dependence_slots(self, tm_index: int, count: int) -> None:
        """Drop the last ``count`` recorded TMX slots (stalled dispatch)."""
        if count:
            self.task_memory.drop_dependence_slots(tm_index, count)

    def apply_submission_outcomes(
        self,
        tm_index: int,
        start: int,
        outcomes: Sequence[Tuple[bool, int, int]],
    ) -> bool:
        """Store a run of DCT outcomes for dependences ``start``.. of a task.

        Each outcome is a ``(ready, vm_index, predecessor)`` triple with an
        integer predecessor handle (``-1`` for none): a *ready* outcome
        marks its slot ready (a freshly inserted dependence has no
        predecessor, so no chained wake-up can occur), a *dependent*
        outcome stores the version and consumer-chain link.  Returns
        whether the task became fully ready (only the last dependence of
        the task can complete readiness).
        """
        tm = self.task_memory
        base = tm_index * self.slot_stride
        s_vm_index = tm._slot_vm_index
        s_ready = tm._slot_ready
        s_predecessor = tm._slot_predecessor
        ready_added = 0
        offset = base + start
        for ready, vm_index, predecessor in outcomes:
            s_vm_index[offset] = vm_index
            if ready:
                s_ready[offset] = True
                ready_added += 1
            else:
                s_predecessor[offset] = predecessor
            offset += 1
        ready_deps = tm._ready_deps[tm_index] + ready_added
        tm._ready_deps[tm_index] = ready_deps
        return ready_deps >= tm._num_deps[tm_index]

    def handle_ready_slot(self, slot: int, vm_index: int) -> Tuple[Optional[int], int]:
        """Mark one dependence slot ready and propagate the chained wake-up.

        Returns ``(task_id, chained)``: ``task_id`` is the task that became
        fully ready (``None`` otherwise) and ``chained`` the slot handle of
        the earlier consumer of the same version to wake next (``-1`` for
        none; the chained wake-up carries the same VM index).
        """
        tm = self.task_memory
        local = slot - self.slot_base
        tm_index = local // self.slot_stride
        tm.check_occupied(tm_index)
        dep_index = local - tm_index * self.slot_stride
        if dep_index >= tm._dep_count[tm_index]:
            raise KeyError(
                f"task at TM entry {tm_index} has no dependence "
                f"slot {dep_index}"
            )
        if tm._slot_ready[local]:
            # Idempotence guard: the hardware never sends two ready
            # notifications for the same slot, but being robust here keeps
            # the model safe under exploratory drivers.
            return None, -1
        tm._slot_ready[local] = True
        if tm._slot_vm_index[local] < 0:
            tm._slot_vm_index[local] = vm_index
        ready_deps = tm._ready_deps[tm_index] + 1
        tm._ready_deps[tm_index] = ready_deps
        chained = tm._slot_predecessor[local]
        if chained >= 0:
            # Walk the consumer chain backwards: the earlier consumer of the
            # same version is woken next (links 2-3 of Figure 5).
            self.stats.chain_hops += 1
        if ready_deps >= tm._num_deps[tm_index]:
            return tm._task_id[tm_index], chained
        return None, chained

    # ------------------------------------------------------------------
    # finished-task path (F2, F3)
    # ------------------------------------------------------------------
    def handle_finished(
        self, task_id: int, tm_index: int
    ) -> Tuple[range, List[int], List[int]]:
        """Retire a finished task: release its entry and emit the finish run.

        Returns ``(slots, vm_indices, addresses)`` -- three parallel
        sequences, one element per dependence of the task in pragma order,
        forming the batched F3 traffic towards the DCTs.
        """
        tm = self.task_memory
        tm.check_occupied(tm_index)
        if tm._task_id[tm_index] != task_id:
            raise ValueError(
                f"finished task {task_id} does not match TM entry "
                f"{tm_index} (holds task {tm._task_id[tm_index]})"
            )
        if tm._ready_deps[tm_index] < tm._num_deps[tm_index]:
            raise RuntimeError(
                f"task {task_id} reported finished before all its "
                "dependences were ready"
            )
        base = tm_index * self.slot_stride
        count = tm._dep_count[tm_index]
        vm_indices = tm._slot_vm_index[base : base + count]
        for dep_index, vm_index in enumerate(vm_indices):
            if vm_index < 0:
                raise RuntimeError(
                    f"dependence {dep_index} of task {task_id} has "
                    "no version assigned"
                )
        addresses = tm._slot_address[base : base + count]
        first = self.slot_base + base
        tm.release(tm_index)
        self.stats.tasks_retired += 1
        return range(first, first + count), vm_indices, addresses
