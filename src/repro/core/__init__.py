"""The Picos accelerator model (the paper's primary contribution).

The modules in this subpackage mirror the hardware organisation of Figure 3
of the paper:

* :mod:`repro.core.gateway` -- the Gateway (GW), first interface between the
  processing cores and Picos.
* :mod:`repro.core.trs` -- the Task Reservation Station (TRS) and its Task
  Memories (TM0 / TMX), which track in-flight tasks and their readiness.
* :mod:`repro.core.dct` -- the Dependence Chain Tracker (DCT) and its
  Dependence Memory (DM) / Version Memory (VM), which detect and release
  inter-task data dependences.
* :mod:`repro.core.arbiter` -- the Arbiter (ARB) routing TRS<->DCT traffic.
* :mod:`repro.core.scheduler` -- the Task Scheduler (TS) holding ready tasks.
* :mod:`repro.core.picos` -- the :class:`~repro.core.picos.PicosAccelerator`
  facade that assembles all modules and exposes the co-processor interface
  used by the Hardware-In-the-Loop platform.

Supporting modules: :mod:`repro.core.config` (geometry and calibrated
latencies), :mod:`repro.core.packets` (inter-module messages),
:mod:`repro.core.hashing` (direct and Pearson index hashing) and
:mod:`repro.core.stats` (hardware counters).
"""

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator, SubmitStatus
from repro.core.scheduler import SchedulingPolicy
from repro.core.stats import PicosStats

__all__ = [
    "DMDesign",
    "PicosConfig",
    "PicosAccelerator",
    "SubmitStatus",
    "SchedulingPolicy",
    "PicosStats",
]
