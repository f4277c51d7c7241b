"""Version Memory (VM) of the Dependence Chain Tracker.

Each DM entry stores one dependence *address*; the VM stores its live
*versions*.  A version corresponds to one producer (writer) of the address
plus all the consumers (readers) that access the value that producer
creates.  Section III-D describes how versions are chained:

* consumers of a version form a backwards chain anchored at the *last*
  consumer, which is the one the DCT wakes when the producer finishes
  (links 1-3 of Figure 5);
* producers of successive versions form a forward chain; version ``k+1``'s
  producer is woken when version ``k`` is completely finished (links 4-5).

The VM of the prototype has 512 entries (1024 for the 16-way design), with
Read/Write/New Entry Request/Finished Entry Request actions like the TM.

Flat layout
-----------

Version state lives in parallel flat lists indexed by the VM index, the
way the hardware addresses its version SRAM.  Task-slot references
(producer, last consumer) are stored as packed integer handles with ``-1``
meaning *none* (see ``docs/datapath.md``); each entry also caches the DM
way handle of its address so the finish path retires versions without
re-scanning the DM set.  The free list is kept as ``range(entries-1, -1,
-1)`` popped from the end, so a cold VM hands out entries 0, 1, 2, ...
in order, and a released entry is the next one reused.
"""

from __future__ import annotations

from typing import List


class VersionMemoryFullError(RuntimeError):
    """Raised when a new version is needed but every VM entry is occupied."""


class VersionMemory:
    """The VM of one DCT instance, held as parallel flat arrays."""

    __slots__ = (
        "entries", "_valid", "_address", "_producer", "_producer_finished",
        "_last_consumer", "_consumers_arrived", "_consumers_finished",
        "_next_version", "_dm_handle", "_free",
    )

    def __init__(self, entries: int = 512) -> None:
        if entries < 1:
            raise ValueError("VM needs at least one entry")
        self.entries = entries
        #: One entry per VM index; slot handles use ``-1`` for *none*.
        self._valid: List[bool] = [False] * entries
        self._address: List[int] = [0] * entries
        self._producer: List[int] = [-1] * entries
        self._producer_finished: List[bool] = [False] * entries
        self._last_consumer: List[int] = [-1] * entries
        self._consumers_arrived: List[int] = [0] * entries
        self._consumers_finished: List[int] = [0] * entries
        self._next_version: List[int] = [-1] * entries
        #: DM way handle of the entry's address, cached at allocation so
        #: retirement skips the DM set scan (a way is stable from the
        #: first allocation of its address until its last version dies).
        self._dm_handle: List[int] = [-1] * entries
        self._free: List[int] = list(range(entries - 1, -1, -1))

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        """Number of live versions currently stored."""
        return self.entries - len(self._free)

    @property
    def full(self) -> bool:
        """``True`` when a new version cannot be allocated."""
        return not self._free

    # ------------------------------------------------------------------
    # allocation / recycling
    # ------------------------------------------------------------------
    def allocate(self, address: int) -> int:
        """Allocate a VM entry for a new version of ``address``.

        Returns the VM index; every field of the entry is reset so a
        recycled slot can never leak stale chain state.
        """
        if not self._free:
            raise VersionMemoryFullError("no free VM entry")
        vm_index = self._free.pop()
        self._valid[vm_index] = True
        self._address[vm_index] = address
        self._producer[vm_index] = -1
        self._producer_finished[vm_index] = False
        self._last_consumer[vm_index] = -1
        self._consumers_arrived[vm_index] = 0
        self._consumers_finished[vm_index] = 0
        self._next_version[vm_index] = -1
        self._dm_handle[vm_index] = -1
        return vm_index

    def release(self, vm_index: int) -> None:
        """Recycle a VM entry once its version is complete and woken."""
        if not self._valid[vm_index]:
            raise KeyError(f"VM entry {vm_index} is not occupied")
        self._valid[vm_index] = False
        self._free.append(vm_index)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def is_occupied(self, vm_index: int) -> bool:
        """Whether ``vm_index`` currently holds a live version."""
        return self._valid[vm_index]

    def live_versions_of(self, address: int) -> List[int]:
        """Occupied VM indices holding versions of ``address``."""
        valid = self._valid
        addresses = self._address
        return [
            index
            for index in range(self.entries)
            if valid[index] and addresses[index] == address
        ]
