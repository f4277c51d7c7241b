"""OmpSs-side runtime substrate.

This subpackage models everything that lives on the *software* side of the
system the paper evaluates:

* :mod:`repro.runtime.task` -- the task / dependence abstraction shared by
  every simulator in the package (the information a ``#pragma omp task``
  annotation conveys to the runtime).
* :mod:`repro.runtime.dependence_analysis` -- exact software dependence
  analysis (last-writer / reader-set semantics), used both as the reference
  model the hardware must agree with and as the builder of the row-indexed
  (CSR) graph the Nanos++ simulator walks.
* :mod:`repro.runtime.overhead` -- the Nanos++ per-task creation and
  submission overhead model of Figure 10.
* :mod:`repro.runtime.nanos` -- the Nanos++ software-only runtime simulator
  used as the paper's baseline; with every cost at zero it is also the
  paper's Perfect simulator (the ``perfect`` backend).

``NanosRuntimeSimulator`` is re-exported lazily (it depends on
:mod:`repro.sim`, which in turn depends on :mod:`repro.core`; loading it
eagerly here would create an import cycle when the core package pulls in
the task model).
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
]


def __getattr__(name: str):
    """Lazily expose the simulator that depends on :mod:`repro.sim`."""
    if name == "NanosRuntimeSimulator":
        from repro.runtime.nanos import NanosRuntimeSimulator

        return NanosRuntimeSimulator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
