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
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.packets import TaskSlotRef
from repro.core.version_memory import VersionMemoryFullError

__all__ = ["VersionMemoryFullError", "VersionEntry", "VersionMemory"]


class VersionEntry:
    """One VM entry: a single live version of one dependence address.

    A ``__slots__`` record: one is allocated per producer version of every
    address, several times per task on write-heavy graphs.
    """

    __slots__ = (
        "vm_index",
        "address",
        "producer",
        "producer_finished",
        "last_consumer",
        "consumers_arrived",
        "consumers_finished",
        "next_version",
    )

    def __init__(
        self,
        vm_index: int,
        address: int,
        producer: Optional[TaskSlotRef] = None,
        producer_finished: bool = False,
        last_consumer: Optional[TaskSlotRef] = None,
        consumers_arrived: int = 0,
        consumers_finished: int = 0,
        next_version: Optional[int] = None,
    ) -> None:
        self.vm_index = vm_index
        self.address = address
        #: Producer slot of this version; ``None`` for a version opened by
        #: readers before any writer appeared (all its consumers are ready).
        self.producer = producer
        self.producer_finished = producer_finished
        #: Most recently arrived consumer of this version (head of the
        #: backwards wake-up chain the DCT keeps; earlier consumers are
        #: linked through the TMX of later ones).
        self.last_consumer = last_consumer
        self.consumers_arrived = consumers_arrived
        self.consumers_finished = consumers_finished
        #: Forward producer-producer chain link (the next version of the
        #: same address), ``None`` for the most recent version.
        self.next_version = next_version

    def __repr__(self) -> str:
        return (
            f"VersionEntry(vm_index={self.vm_index}, address={self.address:#x}, "
            f"producer={self.producer!r}, producer_finished={self.producer_finished}, "
            f"last_consumer={self.last_consumer!r}, "
            f"consumers_arrived={self.consumers_arrived}, "
            f"consumers_finished={self.consumers_finished}, "
            f"next_version={self.next_version})"
        )

    @property
    def readers_ready(self) -> bool:
        """Whether consumers of this version may execute immediately."""
        return self.producer is None or self.producer_finished

    @property
    def complete(self) -> bool:
        """Whether the producer and every arrived consumer have finished."""
        producer_done = self.producer is None or self.producer_finished
        return producer_done and self.consumers_arrived == self.consumers_finished


class VersionMemory:
    """The VM of one DCT instance: a pool of :class:`VersionEntry` slots."""

    def __init__(self, entries: int = 512) -> None:
        if entries < 1:
            raise ValueError("VM needs at least one entry")
        self.entries = entries
        self._slots: List[Optional[VersionEntry]] = [None] * entries
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
    def allocate(self, address: int) -> VersionEntry:
        """Allocate a VM entry for a new version of ``address``."""
        if not self._free:
            raise VersionMemoryFullError("no free VM entry")
        vm_index = self._free.pop()
        entry = VersionEntry(vm_index=vm_index, address=address)
        self._slots[vm_index] = entry
        return entry

    def release(self, vm_index: int) -> None:
        """Recycle a VM entry once its version is complete and woken."""
        if self._slots[vm_index] is None:
            raise KeyError(f"VM entry {vm_index} is not occupied")
        self._slots[vm_index] = None
        self._free.append(vm_index)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def entry(self, vm_index: int) -> VersionEntry:
        """Return the occupied entry at ``vm_index``."""
        entry = self._slots[vm_index]
        if entry is None:
            raise KeyError(f"VM entry {vm_index} is not occupied")
        return entry

    def live_entries(self) -> List[VersionEntry]:
        """Every live version, in VM-index order (used by tests/debug)."""
        return [entry for entry in self._slots if entry is not None]

    def live_versions_of(self, address: int) -> List[VersionEntry]:
        """Live versions of one address, oldest-allocated first."""
        return [entry for entry in self.live_entries() if entry.address == address]

    def snapshot(self) -> Dict[int, VersionEntry]:
        """Mapping of occupied VM index to entry (debugging aid)."""
        return {
            index: entry
            for index, entry in enumerate(self._slots)
            if entry is not None
        }
