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
in order, and a released entry is the next one reused.  New versions are
written inline by ``DependenceChainTracker.process_batch``; this class
keeps the occupancy and the release.
"""

from __future__ import annotations

from typing import List


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
    # recycling
    # ------------------------------------------------------------------
    def release(self, vm_index: int) -> None:
        """Recycle a VM entry once its version is complete and woken."""
        if not self._valid[vm_index]:
            raise KeyError(f"VM entry {vm_index} is not occupied")
        self._valid[vm_index] = False
        self._free.append(vm_index)
