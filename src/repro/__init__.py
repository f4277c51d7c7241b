"""Reproduction of the Picos hardware task-dependence-management accelerator.

This package reproduces, in pure Python, the system described in

    Tan, Bosch, Jimenez-Gonzalez, Alvarez-Martinez, Ayguade, Valero,
    "Performance Analysis of a Hardware Accelerator of Dependence Management
    for Task-based Dataflow Programming models", ISPASS 2016.

The package is organised around the subsystems the paper builds or relies on:

``repro.core``
    The Picos accelerator itself: Gateway, Task Reservation Station (TRS)
    with Task Memories, Dependence Chain Tracker (DCT) with Dependence and
    Version Memories, Arbiter and Task Scheduler, plus the three Dependence
    Memory designs the paper explores (8-way, 16-way, Pearson + 8-way).

``repro.runtime``
    The OmpSs-side substrate: task/dependence model, exact software
    dependence analysis, the Nanos++ software-only runtime model and the
    Perfect (roofline) scheduler.

``repro.sim``
    The Hardware-In-the-Loop execution platform: workers, communication
    costs and the three operational modes (HW-only, HW+communication,
    Full-system).

``repro.traces``
    Trace format plus the seven synthetic benchmarks of the paper.

``repro.apps``
    Task-graph generators for the five real applications (Gauss-Seidel Heat,
    LU, SparseLU, Cholesky, H264dec).

``repro.hardware``
    FPGA resource-cost model reproducing Table III.

``repro.analysis`` and ``repro.experiments``
    Metrics, report rendering and one driver per table/figure of the paper.
"""

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.backend import (
    SimulatorBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.sim.driver import simulate_request
from repro.sim.hil import HILMode
from repro.sim.request import InvalidRequestError, SimulationRequest
from repro.sim.session import SimulationSession, open_session

__all__ = [
    "DMDesign",
    "PicosConfig",
    "PicosAccelerator",
    "Dependence",
    "Direction",
    "Task",
    "TaskProgram",
    "HILMode",
    "InvalidRequestError",
    "SimulationRequest",
    "SimulationSession",
    "SimulatorBackend",
    "backend_names",
    "get_backend",
    "open_session",
    "register_backend",
    "simulate_request",
]

__version__ = "1.2.0"
