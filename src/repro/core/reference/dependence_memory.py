"""Dependence Memory (DM): the three cache-like designs of Section III-C.

For each new dependence entering the DCT, the DM performs an address match
against the dependences that arrived earlier.  Each way of a set stores a
``valid`` bit, an ``input`` bit (all accesses so far are reads), the address
``tag`` and a pointer to the Version Memory (the ``data`` of Figure 4) plus
a live-version counter.

Three designs are modelled, matching the paper:

=============  =====  =============================  ==========
design         ways   set index                      VM entries
=============  =====  =============================  ==========
``DM 8way``    8      LSB 6 bits of the address      512
``DM 16way``   16     LSB 6 bits of the address      1024
``DM P+8way``  8      Pearson hash of the address    512
=============  =====  =============================  ==========

When a new address maps to a set whose ways are all valid with different
tags, the dependence cannot be stored: this is a *DM conflict* (Table II)
and the whole new-task pipeline stalls until one of the ways is recycled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import DMDesign
from repro.core.dependence_memory import DependenceMemoryConflict
from repro.core.hashing import make_index_function

__all__ = [
    "DependenceMemoryConflict",
    "DMWay",
    "DMLookupResult",
    "DependenceMemory",
]


class DMWay:
    """One way of one DM set (a ``__slots__`` record on the compare path)."""

    __slots__ = (
        "valid",
        "input_only",
        "tag",
        "latest_vm_index",
        "live_versions",
    )

    def __init__(
        self,
        valid: bool = False,
        input_only: bool = True,
        tag: int = 0,
        latest_vm_index: Optional[int] = None,
        live_versions: int = 0,
    ) -> None:
        self.valid = valid
        self.input_only = input_only
        self.tag = tag
        #: VM index of the most recent live version of this address.
        self.latest_vm_index = latest_vm_index
        #: Number of live versions of this address (the entry is recycled
        #: when this drops to zero).
        self.live_versions = live_versions

    def __repr__(self) -> str:
        return (
            f"DMWay(valid={self.valid}, input_only={self.input_only}, "
            f"tag={self.tag:#x}, latest_vm_index={self.latest_vm_index}, "
            f"live_versions={self.live_versions})"
        )

    def __eq__(self, other: object) -> bool:
        # Field-wise equality, matching the dataclass this class replaced
        # (mutable, so instances stay unhashable).
        if not isinstance(other, DMWay):
            return NotImplemented
        return (
            self.valid == other.valid
            and self.input_only == other.input_only
            and self.tag == other.tag
            and self.latest_vm_index == other.latest_vm_index
            and self.live_versions == other.live_versions
        )

    __hash__ = None  # type: ignore[assignment]


class DMLookupResult:
    """Outcome of a DM compare operation.

    A ``__slots__`` value class: one is allocated per DM compare, which
    happens several times per task.
    """

    __slots__ = ("hit", "set_index", "way_index", "way")

    def __init__(
        self,
        hit: bool,
        set_index: int,
        way_index: Optional[int],
        way: Optional[DMWay],
    ) -> None:
        self.hit = hit
        self.set_index = set_index
        self.way_index = way_index
        self.way = way

    def __repr__(self) -> str:
        return (
            f"DMLookupResult(hit={self.hit}, set_index={self.set_index}, "
            f"way_index={self.way_index}, way={self.way!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DMLookupResult):
            return NotImplemented
        return (
            self.hit == other.hit
            and self.set_index == other.set_index
            and self.way_index == other.way_index
            and self.way == other.way
        )


class DependenceMemory:
    """A 64-set, N-way, cache-like dependence memory."""

    def __init__(self, design: DMDesign, num_sets: int = 64) -> None:
        if num_sets < 1:
            raise ValueError("DM needs at least one set")
        self.design = design
        self.num_sets = num_sets
        self.ways_per_set = design.ways
        self._sets: List[List[DMWay]] = [
            [DMWay() for _ in range(self.ways_per_set)] for _ in range(num_sets)
        ]
        self._occupied = 0
        # Memoized per-address index (the Pearson fold is the single
        # hottest pure function of a full-system simulation otherwise).
        self._index_of = make_index_function(design.uses_pearson, num_sets)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def set_index(self, address: int) -> int:
        """Set index for ``address`` under the configured design."""
        return self._index_of(address)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of addresses the DM can hold."""
        return self.num_sets * self.ways_per_set

    @property
    def occupied(self) -> int:
        """Number of valid ways (distinct live addresses)."""
        return self._occupied

    def set_is_full(self, set_index: int) -> bool:
        """Whether every way of ``set_index`` is valid."""
        return all(way.valid for way in self._sets[set_index])

    # ------------------------------------------------------------------
    # compare / allocate / release
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> DMLookupResult:
        """DM compare: search the set of ``address`` for a matching tag.

        Way 0 has the highest priority, way N-1 the lowest, as in the
        priority encoder of Figure 4.
        """
        set_index = self._index_of(address)
        for way_index, way in enumerate(self._sets[set_index]):
            if way.valid and way.tag == address:
                return DMLookupResult(True, set_index, way_index, way)
        return DMLookupResult(False, set_index, None, None)

    def find_way(self, address: int) -> Optional[DMWay]:
        """The valid way holding ``address``, or ``None`` (fast compare).

        Semantically ``lookup(address).way``, without allocating a
        :class:`DMLookupResult`; this is the form the DCT uses on its
        per-dependence hot path.
        """
        for way in self._sets[self._index_of(address)]:
            if way.valid and way.tag == address:
                return way
        return None

    def allocate(self, address: int, input_only: bool) -> Tuple[int, DMWay]:
        """Store a new address in its set (the *New DM address* of Figure 4).

        Returns the ``(way_index, way)`` pair used.  Raises
        :class:`DependenceMemoryConflict` when the set has no free way.
        """
        set_index = self._index_of(address)
        ways = self._sets[set_index]
        for way_index, way in enumerate(ways):
            if not way.valid:
                way.valid = True
                way.tag = address
                way.input_only = input_only
                way.latest_vm_index = None
                way.live_versions = 0
                self._occupied += 1
                return way_index, way
        raise DependenceMemoryConflict(address, set_index)

    def release(self, address: int) -> None:
        """Invalidate the way holding ``address`` (all versions finished)."""
        way = self.find_way(address)
        if way is None:
            raise KeyError(f"address {address:#x} is not stored in the DM")
        self.release_way(way)

    def release_way(self, way: DMWay) -> None:
        """Invalidate ``way`` directly (the caller already matched it).

        The finish hot path looks the way up once to update its version
        chain and then recycles it; releasing by way skips the second set
        scan :meth:`release` would pay.
        """
        way.valid = False
        way.latest_vm_index = None
        way.live_versions = 0
        self._occupied -= 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_addresses(self) -> List[int]:
        """Every address currently stored (order: set, then way priority)."""
        addresses: List[int] = []
        for ways in self._sets:
            for way in ways:
                if way.valid:
                    addresses.append(way.tag)
        return addresses

    def set_occupancy_histogram(self) -> Dict[int, int]:
        """Mapping of set index to the number of valid ways it holds.

        This is the quantity that distinguishes the direct-hash designs from
        the Pearson design for block-aligned address streams: with the direct
        hash nearly every address lands in a handful of sets.
        """
        histogram: Dict[int, int] = {}
        for set_index, ways in enumerate(self._sets):
            valid = sum(1 for way in ways if way.valid)
            if valid:
                histogram[set_index] = valid
        return histogram
