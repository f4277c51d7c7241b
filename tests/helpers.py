"""Importable program-building and run helpers shared by the test suite.

These used to live in ``tests/conftest.py``, but ``conftest`` is not a
reliably importable module name: when the benchmark harness is collected in
the same session its own ``benchmarks/conftest.py`` can win the
``sys.modules`` slot and shadow these helpers.  Keeping them in a regular
module (imported as ``tests.helpers``) removes the collision.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator
from repro.faults import FaultKind, FaultScenario, FaultTarget, FaultTrigger
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.sim.results import SimulationResult
from repro.sim.session import SimulationSession, open_session
from repro.sim.snapshot import KIND_MID_RUN, capture, restore


def make_task(
    task_id: int,
    deps: Sequence[tuple] = (),
    duration: int = 10,
    label: str = "",
) -> Task:
    """Build a task from ``(address, direction)`` tuples."""
    dependences = [
        Dependence(address, direction if isinstance(direction, Direction) else Direction.parse(direction))
        for address, direction in deps
    ]
    return Task(task_id=task_id, dependences=dependences, duration=duration, label=label)


def make_program(spec: Sequence[Sequence[tuple]], durations: Sequence[int] = (), name: str = "test") -> TaskProgram:
    """Build a program from a list of dependence lists.

    ``spec[i]`` is the dependence list of task ``i`` as ``(address,
    direction)`` tuples; ``durations[i]`` optionally overrides the default
    duration of 10 cycles.
    """
    program = TaskProgram(name=name)
    for index, deps in enumerate(spec):
        duration = durations[index] if index < len(durations) else 10
        program.add_task(make_task(index, deps, duration=duration))
    return program


class SaturationCase(NamedTuple):
    """One capacity-corner setup shared by the failure-injection tests and
    the fault matrix: a deliberately tiny accelerator configuration plus a
    program shaped to saturate it."""

    config: PicosConfig
    build_program: Callable[[], TaskProgram]
    #: HIL worker count the case is exercised with.
    workers: int
    #: Hardware counter expected to be non-zero under HW-only simulation
    #: (``None`` when the corner saturates silently).
    stall_counter: Optional[str]


def _tiny_tm_program() -> TaskProgram:
    return make_program(
        [[(0x1000, Direction.INOUT)]] * 10 + [[]] * 5, name="tiny-tm"
    )


def _tiny_vm_program() -> TaskProgram:
    return make_program([[(0x2000, Direction.OUT)]] * 20, name="tiny-vm")


def _tiny_dm_program() -> TaskProgram:
    spec = [[(0x1000 * (i + 1), Direction.INOUT)] for i in range(30)]
    return make_program(spec, name="tiny-dm")


def _tiny_everything_program() -> TaskProgram:
    spec = []
    for i in range(25):
        spec.append(
            [
                (0x1000 * ((i % 5) + 1), Direction.INOUT),
                (0x1000 * ((i % 3) + 6), Direction.IN),
            ]
        )
    return make_program(spec, name="tiny-everything")


def _burst_program() -> TaskProgram:
    return make_program([[]] * 64, durations=[40_000] * 64, name="burst")


#: The capacity corners, by name.  ``tests/test_failure_injection.py``
#: parametrizes its exhaustion matrix over these, and
#: ``tests/test_faults.py`` arms fault scenarios against the same setups
#: so chaos is exercised under resource saturation too.
SATURATION_CASES: Dict[str, SaturationCase] = {
    "tiny-tm": SaturationCase(
        PicosConfig(tm_entries=1), _tiny_tm_program, 4, "tm_full_stalls"
    ),
    "tiny-vm": SaturationCase(
        PicosConfig(vm_entries=2), _tiny_vm_program, 2, None
    ),
    "tiny-dm": SaturationCase(
        PicosConfig(dm_sets=1, dm_design=DMDesign.WAY8),
        _tiny_dm_program,
        2,
        "dm_conflicts",
    ),
    "tiny-everything": SaturationCase(
        PicosConfig(tm_entries=2, vm_entries=3, dm_sets=1, max_deps_per_task=3),
        _tiny_everything_program,
        4,
        None,
    ),
    "burst": SaturationCase(
        PicosConfig(tm_entries=4), _burst_program, 2, None
    ),
}

SATURATION_CASE_NAMES = tuple(SATURATION_CASES)


def drain_functional(accelerator: PicosAccelerator, program: TaskProgram) -> List[int]:
    """Run a program through the accelerator functionally (no timing).

    Tasks are submitted in creation order (retrying stalled submissions
    whenever a task finishes); ready tasks are "executed" immediately in the
    order the Task Scheduler returns them.  Returns the execution order.
    """
    order: List[int] = []
    pending = list(program)
    index = 0
    while index < len(pending) or accelerator.ready_count or accelerator.in_flight:
        progressed = False
        # Submit as many tasks as possible.
        while index < len(pending):
            if accelerator.has_pending_submission:
                if not accelerator.can_resume():
                    break
                result = accelerator.resume_submission()
            else:
                result = accelerator.submit_task(pending[index])
            if not result.accepted:
                break
            index += 1
            progressed = True
        # Execute one ready task and notify its completion.
        task_id = accelerator.pop_ready()
        if task_id is not None:
            order.append(task_id)
            accelerator.notify_finish(task_id)
            progressed = True
        if not progressed:
            raise AssertionError(
                f"functional drain stalled: submitted {index}/{len(pending)}, "
                f"in flight {accelerator.in_flight}"
            )
    return order


#: A scenario whose window lies far past the end of any test run: an armed
#: plan intercepts every delivery of the run, yet never fires.
DORMANT_FAULT = FaultScenario(
    FaultKind.DELAY_EVENT,
    FaultTrigger(window=(10**9, 10**9 + 1)),
    FaultTarget(packet_class="ready"),
)


def _finish(session: SimulationSession, slice_cycles: int) -> SimulationResult:
    while not session.advance(slice_cycles).finished:
        pass
    return session.result()


def run_delivery_paths(
    request: SimulationRequest, slice_cycles: int = 40
) -> Dict[str, Dict[str, Any]]:
    """One request run four ways, as ``dataclasses.asdict`` documents.

    Each simulator has one event-delivery loop, and these are the four
    ways a run can drive it: ``straight`` in one call; ``sliced`` through
    :class:`~repro.sim.session.EngineStepper` horizons of ``slice_cycles``;
    ``dormant-fault`` with :data:`DORMANT_FAULT` armed, so every delivery
    goes through the fault plan's interceptors (its two fault counters
    must read zero and are left out); and ``restored`` from a mid-run
    snapshot taken after the first slice.  Every document must be equal.
    """
    documents = {
        "straight": dataclasses.asdict(simulate_request(request)),
        "sliced": dataclasses.asdict(_finish(open_session(request), slice_cycles)),
    }
    dormant = dataclasses.asdict(
        simulate_request(dataclasses.replace(request, faults=(DORMANT_FAULT,)))
    )
    assert dormant["counters"].pop("faults_injected") == 0
    assert dormant["counters"].pop("faults_recovered") == 0
    documents["dormant-fault"] = dormant
    session = open_session(request)
    session.advance(slice_cycles)
    snapshot = capture(session)
    assert snapshot.kind == KIND_MID_RUN
    documents["restored"] = dataclasses.asdict(_finish(restore(snapshot), slice_cycles))
    return documents


def assert_delivery_paths_agree(documents: Dict[str, Dict[str, Any]]) -> None:
    """Every :func:`run_delivery_paths` document equals the straight run's."""
    straight = documents["straight"]
    for path, document in documents.items():
        assert document == straight, f"the {path} run diverged from the straight run"
