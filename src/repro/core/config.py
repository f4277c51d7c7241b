"""Geometry and timing configuration of the Picos accelerator.

The defaults reproduce the *current architecture* of Figure 3b and the
calibrated latencies of Table IV of the paper:

* one TRS and one DCT instance (the baseline configuration, able to manage
  up to 8 cores without significant performance loss according to the Picos
  simulation study the paper builds on);
* a 256-entry TM0 (up to 256 in-flight tasks), TMX storage for up to 15
  dependences per task, a 512-entry VM and a 64-entry DM;
* the three DM designs explored in Section III-C (8-way and 16-way with
  direct LSB-6-bit indexing, and 8-way with Pearson hashing);
* pipeline latencies that reproduce the HW-only rows of Table IV (first-task
  latency of ~45 cycles for a task without dependences, ~16 cycles of
  throughput per additional dependence, ...), and an AXI-stream
  communication cost of 200-300 cycles per message for the HIL modes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict


class DMDesign(enum.Enum):
    """The three Dependence Memory designs evaluated in the paper.

    * ``WAY8`` -- 64-entry, 8-way associative, direct hash (LSB 6 bits of the
      dependence address are the set index).
    * ``WAY16`` -- 64-entry, 16-way associative, direct hash.  The VM is
      doubled to 1024 entries to stay coherent with the larger DM.
    * ``PEARSON8`` -- 64-entry, 8-way associative, Pearson hashing of the LSB
      32 bits of the address folded into a 6-bit set index.
    """

    WAY8 = "8way"
    WAY16 = "16way"
    PEARSON8 = "p+8way"

    @property
    def ways(self) -> int:
        """Associativity of the design."""
        return 16 if self is DMDesign.WAY16 else 8

    @property
    def uses_pearson(self) -> bool:
        """Whether the set index is computed with Pearson hashing."""
        return self is DMDesign.PEARSON8

    @property
    def display_name(self) -> str:
        """The label used in the paper's tables and figures."""
        return {"8way": "DM 8way", "16way": "DM 16way", "p+8way": "DM P+8way"}[
            self.value
        ]


@dataclass(frozen=True)
class PicosConfig:
    """Complete configuration of a Picos instance.

    Geometry parameters describe the memories of Figure 3b; latency
    parameters are the calibration constants that reproduce the cycle
    numbers of Table IV.  All latencies are in cycles of the 80 MHz
    programmable-logic clock of the Zedboard prototype.
    """

    # ------------------------------------------------------------------
    # structural geometry (Figure 3b / Section III-A)
    # ------------------------------------------------------------------
    dm_design: DMDesign = DMDesign.PEARSON8
    num_trs: int = 1
    num_dct: int = 1
    tm_entries: int = 256
    max_deps_per_task: int = 15
    vm_entries: int = 512
    dm_sets: int = 64

    # ------------------------------------------------------------------
    # new-task pipeline latencies (HW-only rows of Table IV)
    # ------------------------------------------------------------------
    #: GW + TRS occupancy for a task without dependences (Case1 thrTask).
    new_task_cycles: int = 15
    #: GW + TRS base occupancy for a task that carries dependences.
    new_task_with_deps_cycles: int = 8
    #: DCT pipeline occupancy per dependence (Case3/Case7 thrDep).
    dep_pipeline_cycles: int = 16
    #: Extra cycles the first dependence of a task spends in the DCT
    #: (accounts for the 24-cycle per-dependence throughput of Case2/Case4).
    first_dep_extra_cycles: int = 8
    #: Latency from submission to readiness for a task without dependences
    #: (Case1 L1st).
    ready_latency_base: int = 45
    #: Additional readiness latency contributed by the first dependence
    #: (Case2/Case4 L1st minus Case1 L1st).
    ready_latency_first_dep: int = 28
    #: Additional readiness latency per dependence after the first.
    ready_latency_per_dep: int = 17

    # ------------------------------------------------------------------
    # finished-task pipeline latencies
    # ------------------------------------------------------------------
    #: GW + TRS occupancy to retire a task without dependences.
    finish_task_cycles: int = 10
    #: DCT occupancy per dependence-release packet of a finishing task.
    finish_dep_cycles: int = 16
    #: Latency from a finish being processed to a directly woken task
    #: becoming visible in the Task Scheduler.
    wake_latency: int = 20
    #: Extra latency per hop when the TRS walks a consumer chain backwards
    #: (link 2 / link 3 of Figure 5) or the producer-producer chain forward.
    chain_hop_cycles: int = 4

    #: Cycles added to the pipeline each time a dependence insertion finds
    #: its DM set full and must retry (the conflict stall of Section III-C).
    dm_conflict_stall_cycles: int = 12

    # ------------------------------------------------------------------
    # HIL platform costs (Section IV-B / Table IV)
    # ------------------------------------------------------------------
    #: AXI-stream communication cost per message between the ARM cores and
    #: Picos ("around 200 to 300 cycles for each message").
    comm_cycles: int = 247
    #: One-time platform start-up cost paid by the ARM core before the first
    #: task is created in the HW+comm and Full-system modes (driver set-up
    #: and status-register initialisation); calibrated from the L1st rows of
    #: Table IV.
    hil_startup_cycles: int = 880
    #: Messages exchanged per task in the closed-loop modes (new task in,
    #: ready task out, finished task in).
    comm_messages_per_task: int = 3
    #: Nanos++ task-creation cost on the ARM core in full-system mode.
    nanos_creation_cycles: int = 1990
    #: Nanos++ submission cost of the first dependence in full-system mode.
    nanos_first_dep_cycles: int = 395
    #: Nanos++ submission cost of each additional dependence.
    nanos_extra_dep_cycles: int = 20

    def __post_init__(self) -> None:
        if self.num_trs < 1 or self.num_dct < 1:
            raise ValueError("at least one TRS and one DCT instance are required")
        if self.tm_entries < 1:
            raise ValueError("TM must have at least one entry")
        if self.max_deps_per_task < 1:
            raise ValueError("tasks must be allowed at least one dependence")
        if self.vm_entries < 1 or self.dm_sets < 1:
            raise ValueError("VM and DM must have at least one entry")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def dm_ways(self) -> int:
        """Associativity of the configured DM design."""
        return self.dm_design.ways

    @property
    def dm_capacity(self) -> int:
        """Total number of distinct addresses the DM can hold."""
        return self.dm_sets * self.dm_ways

    @property
    def effective_vm_entries(self) -> int:
        """VM entries, doubled for the 16-way design as in the paper."""
        if self.dm_design is DMDesign.WAY16 and self.vm_entries == 512:
            return 1024
        return self.vm_entries

    @property
    def max_in_flight_tasks(self) -> int:
        """Maximum number of in-flight tasks across all TRS instances."""
        return self.tm_entries * self.num_trs

    # ------------------------------------------------------------------
    # cost helpers used by the accelerator model
    # ------------------------------------------------------------------
    def new_task_occupancy(self, num_deps: int) -> int:
        """Pipeline occupancy (throughput cost) of accepting a new task.

        Calibrated so that the per-task throughput of the synthetic
        benchmarks matches the HW-only row of Table IV: 15 cycles for a task
        without dependences, 24 for one dependence, ~243 for 15.
        """
        if num_deps <= 0:
            return self.new_task_cycles
        return self.new_task_with_deps_cycles + self.dep_pipeline_cycles * num_deps

    def new_task_ready_latency(self, num_deps: int) -> int:
        """Latency from submission to readiness of an independent task.

        Calibrated to the L1st row of Table IV: 45 cycles with no
        dependences, 72-73 with one, ~312 with fifteen.
        """
        if num_deps <= 0:
            return self.ready_latency_base
        return (
            self.ready_latency_base
            + self.ready_latency_first_dep
            + self.ready_latency_per_dep * (num_deps - 1)
        )

    def finish_occupancy(self, num_deps: int) -> int:
        """Pipeline occupancy of processing one finished-task notification."""
        return self.finish_task_cycles + self.finish_dep_cycles * num_deps

    def nanos_submission_cycles(self, num_deps: int) -> int:
        """Full-system Nanos++ creation + submission cost for one task."""
        cost = self.nanos_creation_cycles
        if num_deps > 0:
            cost += self.nanos_first_dep_cycles
            cost += self.nanos_extra_dep_cycles * (num_deps - 1)
        return cost

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    def with_design(self, design: DMDesign) -> "PicosConfig":
        """Return a copy of this configuration with another DM design."""
        return replace(self, dm_design=design)

    @classmethod
    def paper_prototype(cls, design: DMDesign = DMDesign.PEARSON8) -> "PicosConfig":
        """The configuration of the Zedboard prototype evaluated in the paper."""
        return cls(dm_design=design)

    @classmethod
    def all_designs(cls) -> Dict[DMDesign, "PicosConfig"]:
        """One prototype configuration per DM design (for Figure 8 / Table II)."""
        return {design: cls.paper_prototype(design) for design in DMDesign}
