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

Flat layout
-----------

TM0 fields are parallel lists indexed by the TM entry; TMX fields are
parallel lists indexed by the local slot offset ``tm_index *
max_deps_per_task + dep_index`` (the TMX is a fixed-stride SRAM in the
prototype, so the offset arithmetic is exactly the hardware's address
computation).  Consumer-chain predecessors are packed integer slot handles
with ``-1`` for *none*; see ``docs/datapath.md``.  Recording a dependence
resets every TMX field of its slot, so an entry recycled through a
Finished Entry Request can never leak stale chain state into the next
task.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.runtime.task import Direction


class TaskMemoryFullError(RuntimeError):
    """Raised on a New Entry Request when every TM entry is occupied."""


class TaskMemory:
    """The TM0/TMX memory pair of one TRS instance (flat SoA layout)."""

    __slots__ = (
        "entries", "max_deps_per_task", "_valid", "_task_id", "_num_deps",
        "_ready_deps", "_dep_count", "_slot_address", "_slot_vm_index",
        "_slot_ready", "_slot_predecessor", "_slot_is_producer", "_free",
        "_by_task_id",
    )

    def __init__(self, entries: int = 256, max_deps_per_task: int = 15) -> None:
        if entries < 1:
            raise ValueError("TM needs at least one entry")
        if max_deps_per_task < 1:
            raise ValueError("TMX must hold at least one dependence per task")
        self.entries = entries
        self.max_deps_per_task = max_deps_per_task
        # TM0: one entry per in-flight task.
        self._valid: List[bool] = [False] * entries
        self._task_id: List[int] = [-1] * entries
        self._num_deps: List[int] = [0] * entries
        self._ready_deps: List[int] = [0] * entries
        #: Number of TMX slots currently recorded for the entry (trails
        #: ``num_deps`` while a stalled dispatch waits to resume).
        self._dep_count: List[int] = [0] * entries
        # TMX: fixed stride of ``max_deps_per_task`` slots per entry.
        total = entries * max_deps_per_task
        self._slot_address: List[int] = [0] * total
        self._slot_vm_index: List[int] = [-1] * total
        self._slot_ready: List[bool] = [False] * total
        self._slot_predecessor: List[int] = [-1] * total
        self._slot_is_producer: List[bool] = [False] * total
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
    def allocate(self, task_id: int, num_deps: int) -> int:
        """Allocate a TM entry for a new task (New Entry Request).

        Returns the TM index.  Raises
        :class:`TaskMemoryFullError` when no free entry exists (the GW must
        hold the new task) and :class:`ValueError` when the task declares
        more dependences than the TMX can hold.
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
        self._valid[tm_index] = True
        self._task_id[tm_index] = task_id
        self._num_deps[tm_index] = num_deps
        self._ready_deps[tm_index] = 0
        self._dep_count[tm_index] = 0
        self._by_task_id[task_id] = tm_index
        return tm_index

    def release(self, tm_index: int) -> None:
        """Recycle a TM entry after its task retired (Finished Entry Request)."""
        if not self._valid[tm_index]:
            raise KeyError(f"TM entry {tm_index} is not occupied")
        del self._by_task_id[self._task_id[tm_index]]
        self._valid[tm_index] = False
        self._free.append(tm_index)

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def check_occupied(self, tm_index: int) -> None:
        """Raise the canonical diagnostic when ``tm_index`` is free."""
        if not self._valid[tm_index]:
            raise KeyError(f"TM entry {tm_index} is not occupied")

    def tm_index_for_task(self, task_id: int) -> int:
        """TM entry currently holding ``task_id``."""
        if task_id not in self._by_task_id:
            raise KeyError(f"task {task_id} is not in flight")
        return self._by_task_id[task_id]

    def add_dependence_slots(
        self, tm_index: int, dependences: Sequence, start: int, end: int
    ) -> None:
        """Record ``dependences[start:end]`` of the task at ``tm_index``.

        One entry read serves every slot of the run.  Each dependence needs
        ``.address`` and ``.direction`` attributes; slot ``k`` is recorded
        for dependence index ``start + k``, preserving pragma order.  Every
        TMX field of each slot is reset (see the module docstring).
        """
        self.check_occupied(tm_index)
        if end > self.max_deps_per_task:
            raise ValueError("dependence index exceeds TMX capacity")
        base = tm_index * self.max_deps_per_task
        s_address = self._slot_address
        s_vm_index = self._slot_vm_index
        s_ready = self._slot_ready
        s_predecessor = self._slot_predecessor
        s_is_producer = self._slot_is_producer
        # Identity checks against hoisted members instead of the
        # Direction.writes property: one descriptor call per dependence of
        # every task adds up.
        writer = Direction.OUT
        readwriter = Direction.INOUT
        for dep_index in range(start, end):
            dep = dependences[dep_index]
            direction = dep.direction
            offset = base + dep_index
            s_address[offset] = dep.address
            s_vm_index[offset] = -1
            s_ready[offset] = False
            s_predecessor[offset] = -1
            s_is_producer[offset] = direction is writer or direction is readwriter
        self._dep_count[tm_index] = end

    def drop_dependence_slots(self, tm_index: int, count: int) -> None:
        """Remove the ``count`` most recently recorded TMX slots.

        Used by the Gateway when a dispatch run stalls partway: the slots
        recorded past the last stored dependence are dropped so the retry
        records them again cleanly.
        """
        self.check_occupied(tm_index)
        self._dep_count[tm_index] -= count

    def in_flight_task_ids(self) -> List[int]:
        """Identifiers of every task currently stored, in TM-index order."""
        valid = self._valid
        task_id = self._task_id
        return [task_id[i] for i in range(self.entries) if valid[i]]
