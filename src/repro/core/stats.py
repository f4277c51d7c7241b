"""Hardware counters of the Picos accelerator.

The prototype exposes a handful of counters through its status registers;
the simulator extends that set with every quantity the paper reports:
DM conflicts (Table II), stall causes, packet counts, pipeline occupancy and
the latency / throughput figures of Table IV.

Per-packet accounting is exact by contract: the batched Gateway->DCT
dependence runs must leave every counter byte-identical to the
per-dependence reference flow -- a batch of *n* still accounts *n*
packets and the same stall/watermark updates.  The flat-vs-reference
datapath classes in ``tests/test_differential.py`` compare full counter
dictionaries across both datapaths on every CI run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


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

    # per-category extra counters (keyed by free-form name)
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a free-form named counter."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def as_dict(self) -> Dict[str, int]:
        """Flatten every counter into a plain dictionary (for reports)."""
        result: Dict[str, int] = {
            "tasks_accepted": self.tasks_accepted,
            "dependences_processed": self.dependences_processed,
            "tasks_without_deps": self.tasks_without_deps,
            "tasks_retired": self.tasks_retired,
            "finish_packets": self.finish_packets,
            "ready_packets": self.ready_packets,
            "dependent_packets": self.dependent_packets,
            "wakeup_packets": self.wakeup_packets,
            "chain_hops": self.chain_hops,
            "dm_conflicts": self.dm_conflicts,
            "dm_conflict_stall_cycles": self.dm_conflict_stall_cycles,
            "tm_full_stalls": self.tm_full_stalls,
            "vm_full_stalls": self.vm_full_stalls,
            "busy_cycles": self.busy_cycles,
            "dm_allocations": self.dm_allocations,
            "vm_allocations": self.vm_allocations,
            "dm_high_water": self.dm_high_water,
            "vm_high_water": self.vm_high_water,
            "tm_high_water": self.tm_high_water,
        }
        result.update(self.extra)
        return result


@dataclass
class LatencySamples:
    """Collection of per-task latency samples used by the Table IV analysis."""

    samples: List[int] = field(default_factory=list)

    def add(self, value: int) -> None:
        """Record one latency sample (in cycles)."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self.samples)

    @property
    def first(self) -> int:
        """The first sample (the L1st metric of Table IV)."""
        if not self.samples:
            raise ValueError("no latency samples recorded")
        return self.samples[0]

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def steady_state_mean(self, skip: int = 1) -> float:
        """Mean of the samples after discarding the first ``skip`` warm-up ones."""
        tail = self.samples[skip:]
        if not tail:
            return 0.0
        return sum(tail) / len(tail)
