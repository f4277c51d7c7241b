"""OmpSs-side runtime substrate.

This subpackage models everything that lives on the *software* side of the
system the paper evaluates:

* :mod:`repro.runtime.task` -- the task / dependence abstraction shared by
  every simulator in the package (the information a ``#pragma omp task``
  annotation conveys to the runtime).
* :mod:`repro.runtime.dependence_analysis` -- exact software dependence
  analysis (last-writer / reader-set semantics), used both as the reference
  model the hardware must agree with and as the builder of the row-indexed
  (CSR) graph the Perfect and Nanos++ simulators walk.
* :mod:`repro.runtime.overhead` -- the Nanos++ per-task creation and
  submission overhead model of Figure 10.
* :mod:`repro.runtime.nanos` -- the Nanos++ software-only runtime simulator
  used as the paper's baseline.
* :mod:`repro.runtime.perfect` -- the Perfect (roofline) simulator.

``NanosRuntimeSimulator`` and ``PerfectScheduler`` are re-exported lazily
(they depend on :mod:`repro.sim`, which in turn depends on
:mod:`repro.core`; loading them eagerly here would create an import cycle
when the core package pulls in the task model).
"""

from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.runtime.dependence_analysis import (
    TaskGraph,
    build_task_graph,
    task_graph,
)
from repro.runtime.overhead import NanosOverheadModel

__all__ = [
    "Dependence",
    "Direction",
    "Task",
    "TaskProgram",
    "TaskGraph",
    "build_task_graph",
    "task_graph",
    "NanosOverheadModel",
    "NanosRuntimeSimulator",
    "PerfectScheduler",
]


def __getattr__(name: str):
    """Lazily expose the simulators that depend on :mod:`repro.sim`."""
    if name == "NanosRuntimeSimulator":
        from repro.runtime.nanos import NanosRuntimeSimulator

        return NanosRuntimeSimulator
    if name == "PerfectScheduler":
        from repro.runtime.perfect import PerfectScheduler

        return PerfectScheduler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
