"""Hardware counters of the Picos accelerator.

The prototype exposes a handful of counters through its status registers;
the simulator extends that set with every quantity the paper reports:
DM conflicts (Table II), stall causes, packet counts, pipeline occupancy and
the latency / throughput figures of Table IV.

Per-packet accounting is exact by contract: the batched Gateway->DCT
dependence runs must leave every counter byte-identical to a
per-dependence flow -- a batch of *n* still accounts *n* packets and the
same stall/watermark updates.  ``GOLDEN_COUNTERS`` in
``tests/test_perf_parity.py`` pins a digest of every counter of every
golden run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass
class PicosStats:
    """Aggregated hardware counters of one Picos instance."""

    # new-task path
    tasks_accepted: int = 0
    dependences_processed: int = 0
    tasks_without_deps: int = 0

    # finished-task path
    tasks_retired: int = 0
    finish_packets: int = 0

    # dependence tracking outcomes
    ready_packets: int = 0
    dependent_packets: int = 0
    wakeup_packets: int = 0
    chain_hops: int = 0

    # structural hazards
    dm_conflicts: int = 0
    dm_conflict_stall_cycles: int = 0
    tm_full_stalls: int = 0
    vm_full_stalls: int = 0

    # occupancy
    busy_cycles: int = 0
    dm_allocations: int = 0
    vm_allocations: int = 0
    dm_high_water: int = 0
    vm_high_water: int = 0
    tm_high_water: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flatten every counter into a plain dictionary (for reports)."""
        return asdict(self)
