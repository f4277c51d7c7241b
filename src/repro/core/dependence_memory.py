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

Flat layout
-----------

The way state lives in parallel flat lists indexed by the integer *way
handle* ``set_index * ways_per_set + way_index`` -- exactly how the
hardware addresses its SRAM banks, and how every structure of the hot
datapath is laid out (see ``docs/datapath.md``).  ``lookup`` returns a
handle (or ``-1`` on a miss) instead of allocating a result object, and
the tag scan runs through ``list.index`` at C speed.  Released ways reset
their tag to ``-1`` so a stale tag can never alias a live address; the
invariant ``valid[h] <=> tag[h] != -1`` is what makes the tag scan
equivalent to the hardware's valid-qualified compare.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import DMDesign
from repro.core.hashing import make_index_function


class DependenceMemoryConflict(RuntimeError):
    """Raised when a new address cannot be stored because its set is full."""

    def __init__(self, address: int, set_index: int) -> None:
        super().__init__(
            f"DM conflict: address {address:#x} maps to full set {set_index}"
        )
        self.address = address
        self.set_index = set_index


class DependenceMemory:
    """A 64-set, N-way, cache-like dependence memory (flat SoA layout)."""

    __slots__ = (
        "design", "num_sets", "ways_per_set", "_valid", "_input_only", "_tag",
        "_latest_vm_index", "_live_versions", "_occupied", "_index_of",
    )

    def __init__(self, design: DMDesign, num_sets: int = 64) -> None:
        if num_sets < 1:
            raise ValueError("DM needs at least one set")
        self.design = design
        self.num_sets = num_sets
        self.ways_per_set = design.ways
        total = num_sets * self.ways_per_set
        #: One entry per way handle ``set * ways_per_set + way``.
        self._valid: List[bool] = [False] * total
        self._input_only: List[bool] = [True] * total
        self._tag: List[int] = [-1] * total
        self._latest_vm_index: List[int] = [-1] * total
        self._live_versions: List[int] = [0] * total
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
        base = set_index * self.ways_per_set
        return False not in self._valid[base : base + self.ways_per_set]

    # ------------------------------------------------------------------
    # compare / allocate / release
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> int:
        """DM compare: the way handle holding ``address``, or ``-1``.

        Way 0 has the highest priority, way N-1 the lowest, as in the
        priority encoder of Figure 4 (``list.index`` returns the first
        match).  No result object is allocated on the compare path.
        """
        base = self._index_of(address) * self.ways_per_set
        try:
            return self._tag.index(address, base, base + self.ways_per_set)
        except ValueError:
            return -1

    def allocate(self, address: int, input_only: bool) -> int:
        """Store a new address in its set (the *New DM address* of Figure 4).

        Returns the way handle used.  Raises
        :class:`DependenceMemoryConflict` when the set has no free way.
        """
        set_index = self._index_of(address)
        base = set_index * self.ways_per_set
        try:
            handle = self._valid.index(False, base, base + self.ways_per_set)
        except ValueError:
            raise DependenceMemoryConflict(address, set_index) from None
        self._valid[handle] = True
        self._tag[handle] = address
        self._input_only[handle] = input_only
        self._latest_vm_index[handle] = -1
        self._live_versions[handle] = 0
        self._occupied += 1
        return handle

    def release(self, address: int) -> None:
        """Invalidate the way holding ``address`` (all versions finished)."""
        handle = self.lookup(address)
        if handle < 0:
            raise KeyError(f"address {address:#x} is not stored in the DM")
        self.release_handle(handle)

    def release_handle(self, handle: int) -> None:
        """Invalidate the way at ``handle`` directly (already matched).

        Resetting the tag to ``-1`` keeps the flat compare safe: the tag
        scan can only ever match a live address.
        """
        self._valid[handle] = False
        self._tag[handle] = -1
        self._latest_vm_index[handle] = -1
        self._live_versions[handle] = 0
        self._occupied -= 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_addresses(self) -> List[int]:
        """Every address currently stored (order: set, then way priority)."""
        valid = self._valid
        tag = self._tag
        return [tag[h] for h in range(len(valid)) if valid[h]]

    def set_occupancy_histogram(self) -> Dict[int, int]:
        """Mapping of set index to the number of valid ways it holds.

        This is the quantity that distinguishes the direct-hash designs from
        the Pearson design for block-aligned address streams: with the direct
        hash nearly every address lands in a handful of sets.
        """
        histogram: Dict[int, int] = {}
        ways = self.ways_per_set
        valid = self._valid
        for set_index in range(self.num_sets):
            base = set_index * ways
            count = sum(valid[base : base + ways])
            if count:
                histogram[set_index] = count
        return histogram
