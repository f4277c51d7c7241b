"""Nanos++ software-only runtime simulator (the paper's baseline).

The OmpSs software-only implementation performs task creation, dependence
analysis, scheduling and dependence release entirely in software.  Its
per-task overhead is essentially independent of the task duration, which is
why Figure 1 shows speedup collapsing once task granularity shrinks below
the point where the overhead rivals the task body.

The model implemented here is a discrete-event simulation with the
structure of the Nanos++ runtime:

* a *master* thread creates and submits tasks in program order, paying the
  creation + submission overhead of :class:`~repro.runtime.overhead.
  NanosOverheadModel` for each (this work is serial: it is the thread that
  encounters the task pragmas);
* the master thread is one of the ``num_threads`` threads of the team: while
  it is creating tasks it does not execute them, and once the last task has
  been submitted it joins the workers (this matches Nanos++ with its default
  breadth-first creation on the benchmarks of the paper, which create all
  their tasks from one master);
* worker threads pick ready tasks, paying a scheduler pick-up cost, execute
  the task body for its traced duration, and pay a dependence-release cost
  per dependence when it finishes;
* a task is ready when the master has submitted it *and* all its
  predecessors (from exact dependence analysis) have finished and released
  their dependences.

The simulator follows the same resumable shape as the HIL platform
(:class:`repro.sim.hil.HILSimulator`): the one-time setup -- creation
pre-scheduling and worker-pool initialisation -- is gated behind a
``_prepared`` flag, ``step(stop_at_cycle)`` advances the event loop to a
horizon and may be called repeatedly, and all mutable state lives on the
instance, so sliced sessions (:class:`~repro.sim.session.EngineStepper`)
and the snapshot codec (:mod:`repro.sim.snapshot`) work over it unchanged.
Every event is delivered one at a time through one fixed handler table,
which an armed fault plan wraps; straight, sliced, faulted and restored
runs therefore all execute the same handlers.

With every cost at zero (:data:`ZERO_OVERHEAD`) the same model is the
paper's Perfect simulator: the ``perfect`` backend registered below.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.runtime.dependence_analysis import TaskGraph, task_graph
from repro.runtime.overhead import NanosOverheadModel
from repro.runtime.task import TaskProgram
from repro.sim.backend import BACKEND_NANOS, BACKEND_PERFECT, register_backend
from repro.sim.engine import EventQueue
from repro.sim.results import SimulationResult, mint_timelines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import ArmedFault, FaultPlan
    from repro.faults.scenario import FaultScenario

_EV_SUBMITTED = "submitted"
_EV_TASK_DONE = "task-done"
_EV_MASTER_JOINS = "master-joins"

# lifecycle-log entry orders, matching repro.sim.session._EVENT_ORDER (see
# repro.sim.hil for the contract shared by every sliced simulator).
_LOG_SUBMITTED = 0
_LOG_READY = 1
_LOG_RETIRED = 2


class NanosRuntimeSimulator:
    """Discrete-event model of the Nanos++ software-only runtime."""

    #: The ``simulator`` label of the results this model builds.
    simulator_name = "nanos-software"

    def __init__(
        self,
        program: TaskProgram,
        num_threads: int = 12,
        overhead: Optional[NanosOverheadModel] = None,
        faults: Sequence["FaultScenario"] = (),
    ) -> None:
        if num_threads < 1:
            raise ValueError("at least one thread is required")
        self.program = program
        self.num_threads = num_threads
        self.overhead = overhead if overhead is not None else NanosOverheadModel()
        self.graph: TaskGraph = task_graph(program)  # shared: read-only
        #: The overhead model is frozen and each of its costs depends only
        #: on the thread count and a task's dependence count, so every cost
        #: is priced once: the pickup here, creation + submission and
        #: release per distinct dependence count on first use.  Derived
        #: state, never captured: a restored simulator rebuilds it.
        self._pickup_cycles = self.overhead.worker_pickup_cycles(num_threads)
        self._creation_cycles: Dict[int, int] = {}
        self._release_cycles: Dict[int, int] = {}

        self.queue = EventQueue()
        #: Per-task lifecycle stamps as five columns indexed by each task's
        #: position in the program, as in the HIL simulator: a result mints
        #: its ``TaskTimeline`` objects from them.
        num_tasks = program.num_tasks
        self._rows = program.rows()
        self._created_at = [0] * num_tasks
        self._submitted_at = [0] * num_tasks
        self._ready_at = [0] * num_tasks
        self._started_at = [0] * num_tasks
        self._finished_at = [0] * num_tasks
        #: Optional lifecycle log of ``(cycle, order, task_id)`` entries,
        #: appended at the submitted/ready/finished stamp sites (the same
        #: contract as the HIL simulator's log: once the clock passed a
        #: horizon ``H``, entries stamped at or before ``H`` are final --
        #: submissions are stamped during the one-time setup and the
        #: finished stamp is assigned at dispatch time, strictly after the
        #: dispatching event's cycle).
        self._lifecycle_log: Optional[List[Tuple[int, int, int]]] = None
        #: ``run``/``step`` gate the one-time setup (creation pre-scheduling
        #: and worker-pool initialisation) behind this flag so repeated
        #: calls *resume* dispatching instead of resetting state.
        self._prepared = False
        self._master_joins_at = 0
        self._idle_workers: List[int] = []
        #: Per row, as in the graph: unfinished predecessors, whether the
        #: master has submitted the task, and the ready rows in FIFO order.
        #: Task ids appear only in event payloads, the log and the result.
        self._remaining_preds: List[int] = []
        self._submitted: List[bool] = []
        self._ready_pool: Deque[int] = deque()
        self._finished = 0
        self._makespan = 0

        #: Armed fault-injection plan, or ``None`` (the common case).
        self._fault_plan: Optional["FaultPlan"] = None
        if faults:
            from repro.faults.plan import FaultPlan

            self._fault_plan = FaultPlan(tuple(faults), _NANOS_FAULT_ADAPTER, self)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, stop_at_cycle: Optional[int] = None) -> SimulationResult:
        """Execute the program and return the software-only result.

        With ``stop_at_cycle`` the event loop pauses once the simulated
        clock would pass that cycle (the result then covers only the work
        performed up to the horizon); calling ``run`` again resumes from
        there.  Without a horizon the program must run to completion.
        """
        self.step(stop_at_cycle)
        return self._build_result(aborted_at=stop_at_cycle)

    def step(self, stop_at_cycle: Optional[int] = None) -> None:
        """Advance the simulation, without building a result.

        The one-time setup runs on the first call only; every later call
        continues dispatching queued events up to the (larger) horizon.
        ``queue.empty`` after a step means the run is complete.
        """
        if not self._prepared:
            self._prepared = True
            self._prepare()
            if self._fault_plan is not None:
                self._fault_plan.arm(0)
        # Precomputed handler table instead of a string-comparison ladder;
        # this loop delivers one event per task submission and completion.
        # The table is consumed by the engine's shared dispatch loop, the
        # same one driving the HIL simulator (see repro.sim.engine); an
        # armed fault plan wraps it as it is.  It is built per call, not
        # kept on the instance: a stored table of bound methods would make
        # the simulator a reference cycle that only the cyclic collector
        # frees, which raises the service's peak memory.
        handlers = {
            _EV_SUBMITTED: self._on_submitted,
            _EV_MASTER_JOINS: self._on_master_joins,
            _EV_TASK_DONE: self._on_task_done,
        }
        if self._fault_plan is not None:
            handlers = self._fault_plan.wrap(handlers)
        self.queue.dispatch(handlers, horizon=stop_at_cycle)

    def enable_lifecycle_log(self) -> List[Tuple[int, int, int]]:
        """Record ``(cycle, order, task_id)`` at every lifecycle stamp site.

        Must be called before the first ``run``/``step``.  The returned
        list is live: entries accumulate as the simulation advances.
        """
        if self._prepared:
            raise RuntimeError("enable_lifecycle_log() must precede the first run")
        if self._lifecycle_log is None:
            self._lifecycle_log = []
        return self._lifecycle_log

    def _prepare(self) -> None:
        """One-time setup: pre-schedule the serial master, seed the pool."""
        program = self.program
        queue = self.queue
        created = self._created_at
        submitted = self._submitted_at
        log = self._lifecycle_log

        # --- master thread: serial creation + submission -------------
        creation_clock = 0
        creation_cycles = self._creation_cycles
        for row, task in enumerate(program):
            deps = task.num_dependences
            overhead = creation_cycles.get(deps)
            if overhead is None:
                overhead = creation_cycles[deps] = (
                    self.overhead.creation_and_submission(deps, self.num_threads)
                )
            created[row] = creation_clock
            creation_clock += overhead
            submitted[row] = creation_clock
            if log is not None:
                log.append((creation_clock, _LOG_SUBMITTED, task.task_id))
            queue.schedule(creation_clock, _EV_SUBMITTED, task.task_id)
        self._master_joins_at = creation_clock
        queue.schedule(creation_clock, _EV_MASTER_JOINS)

        # --- worker pool ----------------------------------------------
        # While the master is creating tasks, only num_threads - 1 threads
        # execute; the master joins afterwards.  With a single thread the
        # master executes everything after it finished creating.
        initial_workers = max(self.num_threads - 1, 0)
        self._idle_workers = list(range(initial_workers))
        if self.num_threads == 1:
            self._idle_workers = []

        self._remaining_preds = list(self.graph.pred_counts)
        self._submitted = [False] * program.num_tasks

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _try_dispatch(self, now: int) -> None:
        idle_workers = self._idle_workers
        ready_pool = self._ready_pool
        program = self.program
        started = self._started_at
        finished = self._finished_at
        log = self._lifecycle_log
        makespan = self._makespan
        pickup = self._pickup_cycles
        release_cycles = self._release_cycles
        while idle_workers and ready_pool:
            worker = idle_workers.pop()
            row = ready_pool.popleft()
            task = program[row]
            task_id = task.task_id
            deps = task.num_dependences
            release = release_cycles.get(deps)
            if release is None:
                release = release_cycles[deps] = self.overhead.release_cycles(
                    deps, self.num_threads
                )
            start = now + pickup
            finish = start + task.duration
            started[row] = start
            finished[row] = finish
            if log is not None:
                log.append((finish, _LOG_RETIRED, task_id))
            if finish > makespan:
                makespan = finish
            self.queue.schedule(finish + release, _EV_TASK_DONE, (worker, task_id))
        self._makespan = makespan

    def _mark_ready_if_possible(self, row: int, now: int) -> None:
        if self._submitted[row] and self._remaining_preds[row] == 0:
            self._ready_at[row] = now
            if self._lifecycle_log is not None:
                self._lifecycle_log.append((now, _LOG_READY, self.graph.task_ids[row]))
            self._ready_pool.append(row)

    def _release_successors(self, task_id: int, now: int) -> None:
        """Count one retired task and mark its successors that became ready."""
        self._finished += 1
        remaining = self._remaining_preds
        for successor in self.graph.successor_rows(self._rows[task_id]):
            remaining[successor] -= 1
            self._mark_ready_if_possible(successor, now)

    def _on_submitted(self, task_id: int, now: int) -> None:
        row = self._rows[task_id]
        self._submitted[row] = True
        self._mark_ready_if_possible(row, now)
        self._try_dispatch(now)

    def _on_master_joins(self, _payload: object, now: int) -> None:
        self._idle_workers.append(self.num_threads - 1)
        self._try_dispatch(now)

    def _on_task_done(self, payload: Tuple[int, int], now: int) -> None:
        """Retire one task completion and release its successors."""
        worker, task_id = payload
        self._idle_workers.append(worker)
        self._release_successors(task_id, now)
        self._try_dispatch(now)

    # perfbench/layers.py looks this retired handler name up in the class
    # ``__dict__`` to install its probe; it aliases the per-event handler.
    _on_task_done_batched = _on_task_done

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _build_result(self, aborted_at: Optional[int] = None) -> SimulationResult:
        program = self.program
        aborted = self._finished != program.num_tasks
        if aborted and aborted_at is None:
            raise RuntimeError(
                f"Nanos++ simulation finished {self._finished} of "
                f"{program.num_tasks} tasks (deadlock?)"
            )
        if aborted and aborted_at is not None:
            # Tasks dispatched but not yet retired carry future finish
            # stamps; only bodies done by the horizon count.
            horizon = aborted_at
            makespan = max(
                (f for f in self._finished_at if f and f <= horizon), default=0
            )
        else:
            makespan = self._makespan
        timelines = mint_timelines(
            self._rows,
            self._created_at,
            self._submitted_at,
            self._ready_at,
            self._started_at,
            self._finished_at,
        )
        counters: Dict[str, int] = {
            "master_creation_cycles": self._master_joins_at,
            "threads": self.num_threads,
            "events_processed": self.queue.processed,
        }
        if aborted and aborted_at is not None:
            counters["aborted_at_cycle"] = aborted_at
            counters["finished_tasks"] = self._finished
        plan = self._fault_plan
        if plan is not None:
            counters["faults_injected"] = plan.injected
            counters["faults_recovered"] = plan.recovered
            if not aborted:
                plan.verify(timelines)
        return SimulationResult(
            simulator=self.simulator_name,
            program_name=program.name,
            num_workers=self.num_threads,
            makespan=makespan,
            sequential_cycles=program.sequential_cycles,
            num_tasks=program.num_tasks,
            timelines=timelines,
            counters=counters,
            drain_time=self.queue.now,
        )


class _NanosFaultAdapter:
    """Backend specifics of fault injection for the software runtime.

    Duck-typed protocol documented in :mod:`repro.faults.plan`.  The
    Nanos kill semantics differ from the HIL platform's: the runtime
    forward-dates finish stamps at dispatch, so a dead thread cannot
    abandon its task mid-body.  Instead the thread *dies after finishing
    the work it already holds* (it is pulled from the idle pool, or
    watched until its in-flight completion lands) and a replacement
    thread joins the team after the scenario's recovery delay.
    """

    family = "nanos"
    # The class vocabulary is shared across backends so one scenario is
    # portable: "ready" is the task-arrival packet (the HIL platform's
    # task-visible message; here the master's submission event).
    packet_classes = {
        "ready": _EV_SUBMITTED,
        "complete": _EV_TASK_DONE,
        "master": _EV_MASTER_JOINS,
    }
    default_packet_class = "ready"
    completion_kind = _EV_TASK_DONE

    def task_id_of(self, kind: str, payload: object) -> int:
        if kind == _EV_SUBMITTED:
            return int(payload)  # type: ignore[call-overload]
        if kind == _EV_TASK_DONE:
            return payload[1]  # type: ignore[index]
        return -1

    def worker_count(self, sim: NanosRuntimeSimulator) -> int:
        # The master slot (num_threads - 1) is never killable: it is the
        # thread encountering the task pragmas, not a pool worker.
        return max(sim.num_threads - 1, 0)

    def stall_counters(self, sim: NanosRuntimeSimulator) -> Dict[str, int]:
        return {}  # the software runtime has no hardware stall counters

    def kill_worker(
        self,
        sim: NanosRuntimeSimulator,
        plan: "FaultPlan",
        armed: "ArmedFault",
        now: int,
    ) -> None:
        from repro.faults.payloads import TIMER_REJOIN

        worker = armed.scenario.target.worker_id
        assert worker is not None  # enforced by the scenario schema
        if worker in sim._idle_workers:
            # Idle thread: dies on the spot, replacement joins later.
            sim._idle_workers.remove(worker)
            plan.record_injected(now, -1, armed)
            plan.schedule_timer(
                armed, now + plan.recovery_delay(armed), TIMER_REJOIN, worker
            )
        else:
            # Executing: watch for its in-flight completion; the thread
            # dies once the work it already holds is finished.
            armed.watching = worker
            plan.record_injected(now, -1, armed)

    def rejoin_worker(
        self,
        sim: NanosRuntimeSimulator,
        plan: "FaultPlan",
        armed: "ArmedFault",
        worker: Optional[int],
        now: int,
    ) -> None:
        assert worker is not None  # the kill path always carries the slot
        sim._idle_workers.append(worker)
        plan.record_recovered(now, -1, armed)
        sim._try_dispatch(now)

    def intercept_completion(
        self,
        sim: NanosRuntimeSimulator,
        plan: "FaultPlan",
        armed: "ArmedFault",
        payload: Tuple[int, int],
        now: int,
    ) -> bool:
        """Retire the watched thread's final completion, minus the rejoin.

        The completion handler appends the worker back to the idle pool
        *before* its dispatch pass, and the pool is popped LIFO -- so a
        post-delivery removal would be too late: the dying thread would
        pick up the next ready task first.  Instead the watched thread's
        completion is handled here, mirroring
        :meth:`NanosRuntimeSimulator._on_task_done` except that the
        thread exits instead of rejoining.  The task itself still retires
        normally: Nanos never loses work, the team just shrinks until the
        replacement joins.
        """
        from repro.faults.payloads import TIMER_REJOIN

        worker, task_id = payload
        if armed.watching != worker:
            return False
        sim._release_successors(task_id, now)
        sim._try_dispatch(now)
        armed.watching = None
        plan.schedule_timer(
            armed, now + plan.recovery_delay(armed), TIMER_REJOIN, worker
        )
        return True


_NANOS_FAULT_ADAPTER = _NanosFaultAdapter()


def nanos_speedup(
    program: TaskProgram,
    num_threads: int,
    overhead: Optional[NanosOverheadModel] = None,
) -> float:
    """Convenience helper: software-only speedup for one configuration."""
    return NanosRuntimeSimulator(program, num_threads, overhead).run().speedup


# ----------------------------------------------------------------------
# backend registration
# ----------------------------------------------------------------------
class NanosBackend:
    """Simulator backend wrapping :class:`NanosRuntimeSimulator`.

    ``num_workers`` maps to the runtime's thread-team size.  A Picos
    configuration or scheduling policy in a request is rejected by the
    typed API (the software runtime has neither).
    """

    name = BACKEND_NANOS
    description = "Nanos++ software-only runtime (the paper's baseline)"
    #: The software runtime has no Picos configuration or hardware policy;
    #: the overhead-model override and fault scenarios are the only
    #: meaningful request parameters.
    accepts = frozenset({"overhead", "faults"})

    def simulator(
        self,
        program: TaskProgram,
        *,
        num_workers: int = 12,
        overhead: Optional[NanosOverheadModel] = None,
        faults: Sequence["FaultScenario"] = (),
    ) -> NanosRuntimeSimulator:
        return NanosRuntimeSimulator(program, num_workers, overhead, faults)


register_backend(NanosBackend(), replace=True)


#: The Nanos++ model with every cost at zero: the paper's Perfect simulator
#: (Section IV-A).  Tasks are created and submitted at cycle 0, start the
#: cycle a thread takes them and release their dependences the cycle they
#: end.  This zero-overhead Nanos++ schedule is a greedy FIFO list
#: schedule, not a bound; the bound is max(critical path, ceil(work /
#: workers)).
ZERO_OVERHEAD = NanosOverheadModel(
    creation_base=0,
    submission_base=0,
    submission_per_dep=0,
    scheduling_cycles=0,
    release_per_dep=0,
)


class _ZeroOverheadSimulator(NanosRuntimeSimulator):
    """The Nanos++ model at :data:`ZERO_OVERHEAD`, labelled ``perfect``."""

    simulator_name = "perfect"


class PerfectBackend:
    """The Perfect simulator: the zero-overhead Nanos++ schedule.

    It has no overhead model, Picos configuration, policy or faults to
    set, so a request carrying any of them is rejected by the typed API.
    """

    name = BACKEND_PERFECT
    description = "Perfect simulator (the zero-overhead Nanos++ schedule)"
    accepts: FrozenSet[str] = frozenset()

    def simulator(
        self, program: TaskProgram, *, num_workers: int = 12
    ) -> NanosRuntimeSimulator:
        return _ZeroOverheadSimulator(program, num_workers, ZERO_OVERHEAD)


register_backend(PerfectBackend(), replace=True)
