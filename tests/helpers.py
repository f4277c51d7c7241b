"""Importable program-building, run and DCT-driving helpers shared by the test suite.

These used to live in ``tests/conftest.py``, but ``conftest`` is not a
reliably importable module name: when the benchmark harness is collected in
the same session its own ``benchmarks/conftest.py`` can win the
``sys.modules`` slot and shadow these helpers.  Keeping them in a regular
module (imported as ``tests.helpers``) removes the collision.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DependenceChainTracker
from repro.core.picos import PicosAccelerator
from repro.core.scheduler import TaskScheduler
from repro.faults import FaultKind, FaultScenario, FaultTarget, FaultTrigger
from repro.runtime.dependence_analysis import task_graph
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.overhead import NanosOverheadModel
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.sim.results import SimulationResult
from repro.sim.session import SimulationSession, open_session
from repro.sim.snapshot import KIND_MID_RUN, capture, restore


#: Direct-hash aliases: every ``ALIAS + i * STRIDE`` lands in DM set 0.
ALIAS, STRIDE = 0x4000_0000, 512 * 1024


def slot(tm_index: int, dep_index: int = 0) -> int:
    """The packed slot handle of TRS 0 under the default geometry."""
    return tm_index * PicosConfig().max_deps_per_task + dep_index


def way8(**fields: Any) -> DependenceChainTracker:
    """A DCT on a direct-hash 8-way DM; ``fields`` set the rest of its config."""
    return DependenceChainTracker(0, PicosConfig(dm_design=DMDesign.WAY8, **fields))


def store(
    dct: DependenceChainTracker,
    tm_index: int,
    address: int,
    direction: Direction = Direction.OUT,
) -> Any:
    """Store one dependence through ``process_batch``, as a run does: its
    ``(ready, vm_index, predecessor)`` triple, or the stall reason."""
    outcomes, stall = dct.process_batch(
        [slot(tm_index)], [Dependence(address, direction)], 0, 1
    )
    return outcomes[0] if outcomes else stall


def finish(dct: DependenceChainTracker, tm_index: int, vm_index: int) -> List[Tuple[int, int]]:
    """Finish one dependence through ``process_finish_run``: the
    ``(slot, vm_index)`` wake-ups it causes."""
    return dct.process_finish_run([slot(tm_index)], [vm_index], 0, 1)


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


def relabelled(program: TaskProgram, task_ids: Sequence[int]) -> TaskProgram:
    """``program`` with its ``i``-th created task renamed ``task_ids[i]``."""
    return TaskProgram(
        (
            Task(task_id, task.dependences, task.duration, task.creation_cycles, task.label)
            for task_id, task in zip(task_ids, program)
        ),
        name=program.name,
    )


def makespan_lower_bound(program: TaskProgram, num_workers: int) -> int:
    """``max(critical path, ceil(work / workers))``: a bound no schedule beats."""
    critical_path = task_graph(program).critical_path_length()
    return max(critical_path, -(-program.sequential_cycles // num_workers))


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
#: parametrizes its exhaustion matrix over these, ``tests/test_faults.py``
#: arms fault scenarios against the same setups so chaos is exercised under
#: resource saturation too, and ``tests/test_snapshot.py`` and
#: ``tests/test_perf_parity.py`` checkpoint and slice them on every HIL mode.
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
    whenever a task finishes); the ``ready`` ids of every result queue in a
    FIFO Task Scheduler and are "executed" immediately in the order it
    returns them.  Returns the execution order.
    """
    order: List[int] = []
    scheduler = TaskScheduler()
    pending = list(program)
    index = 0
    while index < len(pending) or len(scheduler) or accelerator.in_flight:
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
            for ready in result.ready:
                scheduler.push(ready.task_id)
            index += 1
            progressed = True
        # Execute one ready task and notify its completion.
        task_id = scheduler.try_pop()
        if task_id is not None:
            order.append(task_id)
            for ready in accelerator.notify_finish(task_id).ready:
                scheduler.push(ready.task_id)
            progressed = True
        if not progressed:
            raise AssertionError(
                f"functional drain stalled: submitted {index}/{len(pending)}, "
                f"in flight {accelerator.in_flight}"
            )
    return order


#: The ``nanos-slow`` plug-in's overhead model: the calibrated Nanos++
#: costs with a scheduler four times slower.
SLOW_SCHEDULER = NanosOverheadModel(scheduling_cycles=4 * NanosOverheadModel().scheduling_cycles)


class SlowNanosBackend:
    """An engine-driven plug-in: the Nanos++ model at its own overhead."""

    name = "nanos-slow"
    description = "Nanos++ with a four times slower scheduler (test plug-in)"
    accepts = frozenset({"faults"})

    def simulator(self, program, *, num_workers=12, faults=()):
        return NanosRuntimeSimulator(program, num_workers, SLOW_SCHEDULER, faults)


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


#: One event as the engine tests see it: ``(time, kind, payload)``.
Delivery = Tuple[int, str, Any]


def recording_handlers(
    kinds: Iterable[str], then: Optional[Callable[[str, Any, int], None]] = None
) -> Tuple[Dict[str, Callable[[Any, int], None]], List[Delivery]]:
    """A handler table for ``EventQueue.dispatch`` over ``kinds``, and the
    list it appends every delivery to, in delivery order.  ``then``, if
    given, runs as ``then(kind, payload, time)`` after each record (to
    schedule follow-ups)."""
    delivered: List[Delivery] = []

    def handler(kind: str) -> Callable[[Any, int], None]:
        def deliver(payload: Any, time: int) -> None:
            delivered.append((time, kind, payload))
            if then is not None:
                then(kind, payload, time)

        return deliver

    return {kind: handler(kind) for kind in kinds}, delivered


def queued(queue: Any) -> List[Delivery]:
    """Every event still queued, in delivery order, read through
    ``snapshot_events`` (the draining bucket is stamped ``queue.now``)."""
    current, buckets = queue.snapshot_events()
    return [(queue.now, kind, payload) for kind, payload in current] + [
        (time, kind, payload) for time, events in buckets for kind, payload in events
    ]
