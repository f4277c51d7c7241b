"""Task Memory (TM0 and TMX) of the Task Reservation Station.

Figure 3b: TM0 has 256 entries, one per in-flight task, storing the task
identification, the number of dependences and the number of ready
dependences.  TMX entries hold the per-dependence consumer-section
information notified by the DCT -- in this model, the VM index of the
version each dependence belongs to plus the consumer-chain link that makes
the backwards wake-up of Figure 5 possible.

The memories support the four actions described in the paper: read, write,
*New Entry Request* (allocate a free entry) and *Finished Entry Request*
(recycle an entry).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.packets import TaskSlotRef
from repro.core.task_memory import TaskMemoryFullError
from repro.runtime.task import Direction

__all__ = ["TaskMemoryFullError", "DependenceSlot", "TaskEntry", "TaskMemory"]


class DependenceSlot:
    """One TMX slot: the state of one dependence of an in-flight task.

    A ``__slots__`` record: one is allocated per dependence of every
    submitted task.
    """

    __slots__ = (
        "dep_index",
        "address",
        "vm_index",
        "ready",
        "predecessor",
        "is_producer",
        "slot_ref",
    )

    def __init__(
        self,
        dep_index: int,
        address: int,
        vm_index: Optional[int] = None,
        ready: bool = False,
        predecessor: Optional[TaskSlotRef] = None,
        is_producer: bool = False,
    ) -> None:
        #: Index of the dependence within its task (pragma order).
        self.dep_index = dep_index
        #: Address of the dependence (kept for bookkeeping / debug).
        self.address = address
        #: VM entry (version) this dependence was attached to by the DCT.
        self.vm_index = vm_index
        #: Whether the dependence has been marked ready.
        self.ready = ready
        #: Consumer-chain link: the previous consumer of the same version,
        #: to be woken after this slot (Section III-D).
        self.predecessor = predecessor
        #: Whether this dependence writes its address (producer role).
        self.is_producer = is_producer
        #: The TaskSlotRef minted for this slot at dispatch time, reused by
        #: the finish path so retiring a task does not re-allocate one
        #: reference per dependence (``None`` for slots recorded through
        #: the single-dependence legacy surface).
        self.slot_ref: Optional[TaskSlotRef] = None

    def __repr__(self) -> str:
        return (
            f"DependenceSlot(dep_index={self.dep_index}, address={self.address:#x}, "
            f"vm_index={self.vm_index}, ready={self.ready}, "
            f"predecessor={self.predecessor!r}, is_producer={self.is_producer})"
        )


class TaskEntry:
    """One TM0 entry plus its TMX dependence slots."""

    __slots__ = ("tm_index", "task_id", "num_deps", "ready_deps", "dep_slots")

    def __init__(
        self,
        tm_index: int,
        task_id: int,
        num_deps: int,
        ready_deps: int = 0,
        dep_slots: Optional[List[DependenceSlot]] = None,
    ) -> None:
        self.tm_index = tm_index
        self.task_id = task_id
        self.num_deps = num_deps
        self.ready_deps = ready_deps
        self.dep_slots: List[DependenceSlot] = (
            dep_slots if dep_slots is not None else []
        )

    def __repr__(self) -> str:
        return (
            f"TaskEntry(tm_index={self.tm_index}, task_id={self.task_id}, "
            f"num_deps={self.num_deps}, ready_deps={self.ready_deps}, "
            f"dep_slots={self.dep_slots!r})"
        )

    @property
    def all_ready(self) -> bool:
        """``True`` when every dependence of the task has been marked ready."""
        return self.ready_deps >= self.num_deps


class TaskMemory:
    """The TM0/TMX memory pair of one TRS instance."""

    def __init__(self, entries: int = 256, max_deps_per_task: int = 15) -> None:
        if entries < 1:
            raise ValueError("TM needs at least one entry")
        if max_deps_per_task < 1:
            raise ValueError("TMX must hold at least one dependence per task")
        self.entries = entries
        self.max_deps_per_task = max_deps_per_task
        self._slots: List[Optional[TaskEntry]] = [None] * entries
        self._free: List[int] = list(range(entries - 1, -1, -1))
        self._by_task_id: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        """Number of in-flight tasks currently stored."""
        return self.entries - len(self._free)

    @property
    def full(self) -> bool:
        """``True`` when a New Entry Request would fail."""
        return not self._free

    def has_task(self, task_id: int) -> bool:
        """Whether ``task_id`` is currently in flight in this TM."""
        return task_id in self._by_task_id

    # ------------------------------------------------------------------
    # New Entry Request / Finished Entry Request
    # ------------------------------------------------------------------
    def allocate(self, task_id: int, num_deps: int) -> TaskEntry:
        """Allocate a TM entry for a new task (New Entry Request).

        Raises
        ------
        TaskMemoryFullError
            when no free entry exists (the GW must hold the new task).
        ValueError
            when the task declares more dependences than the TMX can hold.
        """
        if num_deps > self.max_deps_per_task:
            raise ValueError(
                f"task {task_id} has {num_deps} dependences; the TMX holds at "
                f"most {self.max_deps_per_task}"
            )
        if task_id in self._by_task_id:
            raise ValueError(f"task {task_id} is already in flight")
        if not self._free:
            raise TaskMemoryFullError("no free TM entry")
        tm_index = self._free.pop()
        entry = TaskEntry(tm_index=tm_index, task_id=task_id, num_deps=num_deps)
        self._slots[tm_index] = entry
        self._by_task_id[task_id] = tm_index
        return entry

    def release(self, tm_index: int) -> None:
        """Recycle a TM entry after its task retired (Finished Entry Request)."""
        entry = self._slots[tm_index]
        if entry is None:
            raise KeyError(f"TM entry {tm_index} is not occupied")
        del self._by_task_id[entry.task_id]
        self._slots[tm_index] = None
        self._free.append(tm_index)

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def entry(self, tm_index: int) -> TaskEntry:
        """Return the occupied entry at ``tm_index``."""
        entry = self._slots[tm_index]
        if entry is None:
            raise KeyError(f"TM entry {tm_index} is not occupied")
        return entry

    def entry_for_task(self, task_id: int) -> TaskEntry:
        """Return the entry holding ``task_id``."""
        if task_id not in self._by_task_id:
            raise KeyError(f"task {task_id} is not in flight")
        return self.entry(self._by_task_id[task_id])

    def add_dependence_slot(
        self, tm_index: int, dep_index: int, address: int, is_producer: bool
    ) -> DependenceSlot:
        """Record a dependence of the task stored at ``tm_index`` in the TMX."""
        entry = self.entry(tm_index)
        if dep_index >= self.max_deps_per_task:
            raise ValueError("dependence index exceeds TMX capacity")
        slot = DependenceSlot(
            dep_index=dep_index, address=address, is_producer=is_producer
        )
        entry.dep_slots.append(slot)
        return slot

    def add_dependence_slots(
        self, tm_index: int, dependences: Sequence, start: int, end: int
    ) -> TaskEntry:
        """Record ``dependences[start:end]`` of the task at ``tm_index``.

        The batched form of :meth:`add_dependence_slot`, used by the
        Gateway when it dispatches a whole run of dependences to one DCT:
        one entry read serves every slot of the run.  Each dependence needs
        ``.address`` and ``.direction`` attributes; slot ``k`` is recorded
        for dependence index ``start + k``, preserving pragma order (and
        the invariant that ``entry.dep_slots[i]`` holds dependence ``i``).
        Returns the task entry so the caller can keep working on it.
        """
        entry = self.entry(tm_index)
        if end > self.max_deps_per_task:
            raise ValueError("dependence index exceeds TMX capacity")
        dep_slots = entry.dep_slots
        append = dep_slots.append
        # Identity checks against hoisted members instead of the
        # Direction.writes property: one descriptor call per dependence of
        # every task adds up.
        writer = Direction.OUT
        readwriter = Direction.INOUT
        for dep_index in range(start, end):
            dep = dependences[dep_index]
            direction = dep.direction
            append(
                DependenceSlot(
                    dep_index=dep_index,
                    address=dep.address,
                    is_producer=direction is writer or direction is readwriter,
                )
            )
        return entry

    def drop_dependence_slots(self, tm_index: int, count: int) -> None:
        """Remove the ``count`` most recently recorded TMX slots.

        Used by the Gateway when a dispatch run stalls partway: the slots
        recorded past the last stored dependence are dropped so the retry
        records them again cleanly.
        """
        dep_slots = self.entry(tm_index).dep_slots
        del dep_slots[len(dep_slots) - count :]

    def dependence_slot(self, tm_index: int, dep_index: int) -> DependenceSlot:
        """Return the TMX slot of one dependence of an in-flight task."""
        entry = self.entry(tm_index)
        for slot in entry.dep_slots:
            if slot.dep_index == dep_index:
                return slot
        raise KeyError(
            f"task at TM entry {tm_index} has no dependence slot {dep_index}"
        )

    def in_flight_task_ids(self) -> List[int]:
        """Identifiers of every task currently stored, in TM-index order."""
        return [entry.task_id for entry in self._slots if entry is not None]
