"""Invariant checks of faulted runs: the :data:`INVARIANT_CHECKERS` registry.

Every faulted run must end *healthy*: chaos may reshape the schedule but
never the correctness contract.  Two layers enforce that:

* :func:`verify_run` -- run-level invariants shared by all kinds:

  - **no lost tasks**: every task of the program retired (a finish time
    at or after its start);
  - **ready-order validity**: the observed execution start order still
    respects every dependence, checked against the exact software
    oracle in :mod:`repro.runtime.dependence_analysis`;
  - **bounded stall counters**: no accelerator stall counter exploded
    past a generous linear bound of the event count (a livelock guard);
  - the **monotone retirement** invariant is checked *online* by
    :meth:`repro.faults.plan.FaultPlan.deliver` on every completion.

* :data:`INVARIANT_CHECKERS` -- one checker per
  :class:`~repro.faults.scenario.FaultKind` member validating the
  kind's own recovery bookkeeping (repro-lint rule FLT001 checks the
  table stays complete, mirroring the injector registry).

All violations raise :class:`~repro.faults.plan.FaultInvariantError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping

from repro.faults.scenario import FaultKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import ArmedFault, FaultPlan
    from repro.sim.results import TaskTimeline

#: Slack of the bounded-stall-counter invariant: a stall counter may not
#: exceed ``STALL_BOUND_BASE + STALL_BOUND_PER_EVENT * events``.
STALL_BOUND_BASE = 10_000
STALL_BOUND_PER_EVENT = 64


def _fail(message: str) -> "Exception":
    from repro.faults.plan import FaultInvariantError

    return FaultInvariantError(message)


def verify_run(
    plan: "FaultPlan", sim: Any, timelines: Mapping[int, "TaskTimeline"]
) -> None:
    """Run-level invariants shared by every fault kind.

    ``timelines`` are the per-task timelines of the run's result, keyed by
    task id: the simulators mint them once, from their stamp columns, when
    they build the result.
    """
    program = sim.program
    # No lost tasks: chaos must never eat a task.
    if len(timelines) != program.num_tasks:
        raise _fail(
            f"lost tasks: {program.num_tasks - len(timelines)} of "
            f"{program.num_tasks} never entered the system"
        )
    for timeline in timelines.values():
        if timeline.finished < timeline.started:
            raise _fail(f"task {timeline.task_id} never retired")
    # Ready-order validity against the exact software oracle.
    from repro.runtime.dependence_analysis import ready_order_is_valid

    start_order = [
        timeline.task_id
        for timeline in sorted(
            timelines.values(), key=lambda t: (t.started, t.task_id)
        )
    ]
    if not ready_order_is_valid(program, start_order):
        raise _fail("execution start order violates a task dependence")
    # Bounded stall counters: generous linear bound, livelock guard.
    bound = STALL_BOUND_BASE + STALL_BOUND_PER_EVENT * sim.queue.processed
    for name, value in plan.adapter.stall_counters(sim).items():
        if value < 0:
            raise _fail(f"stall counter {name} went negative: {value}")
        if "stall" in name and value > bound:
            raise _fail(
                f"stall counter {name} = {value} exceeds the livelock "
                f"bound {bound}"
            )


def _check_balanced(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    """Every injection of this scenario was recovered."""
    if armed.injected != armed.recovered:
        raise _fail(
            f"scenario #{armed.index} ({armed.scenario.kind.value}) "
            f"injected {armed.injected} faults but recovered "
            f"{armed.recovered}"
        )


def check_delay_event(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    _check_balanced(plan, armed, sim)


def check_drop_event(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    _check_balanced(plan, armed, sim)


def check_duplicate_event(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    _check_balanced(plan, armed, sim)


def check_freeze_bank(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    _check_balanced(plan, armed, sim)


def check_kill_worker(plan: "FaultPlan", armed: "ArmedFault", sim: Any) -> None:
    """Kill bookkeeping fully drained: no stale completions still expected,
    no re-dispatched task still in flight, no worker still watched."""
    if armed.killed:
        raise _fail(
            f"scenario #{armed.index}: stale completions never arrived "
            f"for {sorted(armed.killed)}"
        )
    if armed.awaiting:
        raise _fail(
            f"scenario #{armed.index}: re-dispatched tasks "
            f"{sorted(armed.awaiting)} never re-completed"
        )
    if armed.watching is not None:
        raise _fail(
            f"scenario #{armed.index}: worker {armed.watching} was never "
            f"replaced"
        )
    _check_balanced(plan, armed, sim)


#: One checker per FaultKind member -- FLT001 checks completeness.
INVARIANT_CHECKERS: Dict[
    FaultKind, Callable[["FaultPlan", "ArmedFault", Any], None]
] = {
    FaultKind.DELAY_EVENT: check_delay_event,
    FaultKind.DROP_EVENT: check_drop_event,
    FaultKind.DUPLICATE_EVENT: check_duplicate_event,
    FaultKind.FREEZE_BANK: check_freeze_bank,
    FaultKind.KILL_WORKER: check_kill_worker,
}

__all__ = [
    "INVARIANT_CHECKERS",
    "STALL_BOUND_BASE",
    "STALL_BOUND_PER_EVENT",
    "check_delay_event",
    "check_drop_event",
    "check_duplicate_event",
    "check_freeze_bank",
    "check_kill_worker",
    "verify_run",
]
