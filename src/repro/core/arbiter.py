"""Arbiter (ARB): routing of TRS <-> DCT traffic.

With a single TRS and a single DCT (the prototype of Figure 3b) the Arbiter
degenerates into a pass-through, but the future architecture of Figure 3a
scales by instantiating N TRSs and N DCTs; the Arbiter then decides which
DCT tracks which dependence address and which TRS receives each
notification.  The policy implemented here matches the natural hardware
choice: dependences are distributed over DCT instances by address hash (so
one address is always tracked by the same DCT), and notifications are routed
to the TRS instance encoded in the target slot handle.
"""

from __future__ import annotations

from repro.core.hashing import pearson_fold


class Arbiter:
    """Routes packets between TRS and DCT instances."""

    def __init__(self, num_trs: int, num_dct: int) -> None:
        if num_trs < 1 or num_dct < 1:
            raise ValueError("the Arbiter needs at least one TRS and one DCT")
        self.num_trs = num_trs
        self.num_dct = num_dct

    def dct_index_for(self, address: int) -> int:
        """Which DCT tracks ``address``.

        The mapping must be a pure function of the address so every access
        to the same data is matched by the same DCT; a Pearson fold keeps
        the distribution balanced even for block-aligned address streams.
        """
        if self.num_dct == 1:
            return 0
        return pearson_fold(address) % self.num_dct

    def iter_dct_runs(self, addresses, start: int, end: int):
        """Yield ``(dct_index, run_start, run_end)`` over same-route runs.

        Groups ``addresses[start:end]`` (dependence addresses) into maximal
        consecutive runs tracked by one DCT, hashing every address exactly
        once.
        """
        index_for = self.dct_index_for
        run_start = start
        if run_start >= end:
            return
        route = index_for(addresses[run_start])
        while run_start < end:
            run_end = run_start + 1
            next_route = route
            while run_end < end:
                next_route = index_for(addresses[run_end])
                if next_route != route:
                    break
                run_end += 1
            yield route, run_start, run_end
            run_start = run_end
            route = next_route

    def trs_for_slot_index(self, trs_index: int) -> int:
        """TRS instance ``trs_index`` (decoded from a packed slot handle),
        checked against the number of TRS instances."""
        if not 0 <= trs_index < self.num_trs:
            raise ValueError(f"slot references unknown TRS instance {trs_index}")
        return trs_index
