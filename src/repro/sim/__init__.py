"""Hardware-In-the-Loop execution platform substrate.

This subpackage models the embedded system of Section IV-B: the ARM
processing system that creates tasks and exchanges AXI-stream messages with
the Picos accelerator in the programmable logic, the worker cores that
execute tasks, and the three operational modes the paper evaluates
(HW-only, HW+communication and Full-system).

The central entry points are request based: describe one run as a
:class:`~repro.sim.request.SimulationRequest`, then either execute it in
one shot with :func:`~repro.sim.driver.simulate_request` or open a
streaming :class:`~repro.sim.session.SimulationSession` with
:func:`~repro.sim.session.open_session` for incremental submission and a
typed, cycle-stamped lifecycle-event stream.
"""

from repro.sim.backend import (
    BUILTIN_BACKENDS,
    REQUEST_PARAMETERS,
    SimulatorBackend,
    UnknownBackendError,
    backend_accepted_parameters,
    backend_names,
    describe_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.engine import EventQueue
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import (
    InlineProgramRef,
    InvalidRequestError,
    SimulationRequest,
    StreamOptions,
    WorkloadRef,
)
from repro.sim.results import SimulationResult, TaskTimeline
from repro.sim.session import (
    FaultInjected,
    FaultRecovered,
    SessionEvent,
    SessionSlice,
    SessionStats,
    SimulationSession,
    TaskReady,
    TaskRetired,
    TaskSubmitted,
    lifecycle_events,
    open_session,
)
from repro.sim.driver import simulate_request
from repro.sim.worker import WorkerPool

__all__ = [
    "BUILTIN_BACKENDS",
    "EventQueue",
    "FaultInjected",
    "FaultRecovered",
    "HILMode",
    "HILSimulator",
    "InlineProgramRef",
    "InvalidRequestError",
    "REQUEST_PARAMETERS",
    "SessionEvent",
    "SessionSlice",
    "SessionStats",
    "SimulationRequest",
    "SimulationResult",
    "SimulationSession",
    "SimulatorBackend",
    "StreamOptions",
    "TaskReady",
    "TaskRetired",
    "TaskSubmitted",
    "TaskTimeline",
    "UnknownBackendError",
    "WorkloadRef",
    "backend_accepted_parameters",
    "backend_names",
    "describe_backends",
    "get_backend",
    "lifecycle_events",
    "open_session",
    "register_backend",
    "simulate_request",
    "unregister_backend",
    "WorkerPool",
]
