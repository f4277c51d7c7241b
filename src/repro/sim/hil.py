"""Hardware-In-the-Loop (HIL) simulation platform.

This module reproduces the embedded system of Section IV-B (Figure 6): the
Picos accelerator in the programmable logic, the ARM processing system that
creates tasks and exchanges AXI-stream messages with it, and the worker
cores that execute task bodies.  Three operational modes are supported,
matching the rows of Table IV:

``HW_ONLY``
    All tasks are pushed to Picos up front, workers live next to the
    accelerator and there is no communication cost.  This isolates the
    processing capacity of the hardware itself.

``HW_COMM``
    Adds the AXI-stream communication latency (200-300 cycles per message)
    for every new-task, ready-task and finished-task message, all serialised
    through the ARM core, but no Nanos++ software cost.

``FULL_SYSTEM``
    The closed-loop system: the ARM core additionally pays the Nanos++ task
    creation and submission cost for every task before sending it to Picos.

The simulator is a discrete-event model: the Picos pipeline is a serial
resource whose per-operation occupancy and readiness latencies come from the
functional :class:`~repro.core.picos.PicosAccelerator`, the ARM core is a
serial resource handling communication (and Nanos++ work in full-system
mode), and workers execute task bodies for their traced duration.

Cycle-identity contract
-----------------------

This module sits on the measured hot path of every full-system run, and
every optimization to it must be *cycle-identical*: the schedule --
per-task created/submitted/ready/started/finished stamps, the makespan and
the delivered-event count -- must not move by a single cycle.  Every
event is delivered one at a time, through one fixed handler table, by the
engine's dispatch loop; sliced runs, armed fault plans and restored
snapshots all drive that same table.  Three test nets pin the contract:

* the golden-digest matrix in ``tests/test_perf_parity.py`` (full results
  recorded from the pre-optimization engine, all five backends);
* the delivery-path parity classes in ``tests/test_perf_parity.py`` and
  the master-job edge cases in ``tests/test_hil_master.py`` (straight,
  sliced, dormant-fault and snapshot-restored runs field-for-field
  equal);
* the cross-backend differential fuzz suite in
  ``tests/test_differential.py`` (seed-pinned in CI).

See ``docs/hil.md`` for the design of the master-job state machine.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator, SubmitStatus
from repro.core.scheduler import SchedulingPolicy, TaskScheduler
from repro.runtime.task import Task, TaskProgram
from repro.sim.backend import (
    BACKEND_HIL_COMM,
    BACKEND_HIL_FULL,
    BACKEND_HIL_HW,
    register_backend,
)
from repro.sim.engine import EventQueue
from repro.sim.results import SimulationResult, mint_timelines
from repro.sim.worker import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import ArmedFault, FaultPlan
    from repro.faults.scenario import FaultScenario


class HILMode(enum.Enum):
    """Operational mode of the Hardware-In-the-Loop platform."""

    HW_ONLY = "hw-only"
    HW_COMM = "hw-comm"
    FULL_SYSTEM = "full-system"

    @property
    def uses_master(self) -> bool:
        """Whether the ARM core mediates every message in this mode."""
        return self is not HILMode.HW_ONLY

    @property
    def display_name(self) -> str:
        """Label used in Table IV."""
        return {
            HILMode.HW_ONLY: "HW-only",
            HILMode.HW_COMM: "HW+comm.",
            HILMode.FULL_SYSTEM: "Full-system",
        }[self]

    @property
    def backend_name(self) -> str:
        """Name of this mode in the simulator-backend registry."""
        return {
            HILMode.HW_ONLY: BACKEND_HIL_HW,
            HILMode.HW_COMM: BACKEND_HIL_COMM,
            HILMode.FULL_SYSTEM: BACKEND_HIL_FULL,
        }[self]


# master job kinds
_JOB_CREATE = "create"
_JOB_DISPATCH = "dispatch"
_JOB_FINISH = "finish"

# event kinds
_EV_TASK_VISIBLE = "task-visible"
_EV_WORKER_DONE = "worker-done"
_EV_MASTER_DONE = "master-done"

# lifecycle-log entry orders, matching repro.sim.session._EVENT_ORDER so a
# sorted log partition reproduces the lifecycle_events() stream exactly.
_LOG_SUBMITTED = 0
_LOG_READY = 1
_LOG_RETIRED = 2


class HILSimulator:
    """Discrete-event simulation of the HIL platform running one program."""

    #: Depth of the new-task FIFO between the ARM core and the Gateway; the
    #: master stops creating ahead once this many tasks are waiting.
    NEW_TASK_FIFO_DEPTH = 16

    def __init__(
        self,
        program: TaskProgram,
        config: Optional[PicosConfig] = None,
        mode: HILMode = HILMode.FULL_SYSTEM,
        num_workers: int = 12,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        faults: Sequence["FaultScenario"] = (),
    ) -> None:
        if num_workers < 1:
            raise ValueError("at least one worker is required")
        self.program = program
        self.config = config if config is not None else PicosConfig()
        self.mode = mode
        self.num_workers = num_workers
        self.policy = policy
        # Mode flags cached as plain booleans: the enum properties cost a
        # dict lookup and comparison on every event otherwise.
        self._uses_master = mode.uses_master
        self._hw_only = mode is HILMode.HW_ONLY
        self._full_system = mode is HILMode.FULL_SYSTEM

        self.accel = PicosAccelerator(self.config)
        self.workers = WorkerPool(num_workers)
        #: The Task Scheduler: the accelerator hands out the ready tasks of
        #: each operation as a list, and each one is queued here once it is
        #: visible to the workers.
        self.ready = TaskScheduler(policy)
        self.queue = EventQueue()

        #: Per-task lifecycle stamps as five columns indexed by each task's
        #: position in the program (``program.rows()`` maps a task id to
        #: it); a result mints its ``TaskTimeline`` objects from them.  The
        #: columns hold ints, which the cyclic collector does not track.
        num_tasks = program.num_tasks
        self._rows = program.rows()
        self._created_at = [0] * num_tasks
        self._submitted_at = [0] * num_tasks
        self._ready_at = [0] * num_tasks
        self._started_at = [0] * num_tasks
        self._finished_at = [0] * num_tasks
        #: Optional lifecycle log of ``(cycle, order, task_id)`` entries,
        #: appended at the submitted/ready/finished stamp sites.  ``None``
        #: (the default) keeps the hot path free of logging work; sliced
        #: sessions enable it to emit exact per-slice event streams (the
        #: 0-initialised timeline stamps alone cannot distinguish "not yet
        #: happened" from a genuine cycle-0 event in HW-only mode).
        self._lifecycle_log: Optional[List[Tuple[int, int, int]]] = None
        #: ``run``/``step`` gate their one-time setup behind this flag so
        #: repeated calls *resume* dispatching instead of resetting state;
        #: that is what makes ``stop_at_cycle`` horizons stackable.
        self._prepared = False
        self._pending_new: Deque[Task] = deque()
        # The new-task path (GW -> TRS/DCT insertion) and the finished-task
        # path (TRS retire -> DCT release) are separate pipelines in the
        # prototype and overlap almost completely, so each gets its own
        # serial resource.
        self._picos_new_free_at = 0
        self._picos_finish_free_at = 0
        self._master_busy = False
        self._master_finish_jobs: Deque[int] = deque()
        self._master_dispatch_jobs: Deque[Tuple[int, int]] = deque()
        self._next_create_index = 0
        self._finished_tasks = 0
        self._submission_blocked = False
        # The master-job costs are pure functions of the job kind (and, for
        # creates in full-system mode, the dependence count, bounded by the
        # TMX capacity), so _kick_master reduces to deque pops plus one
        # list index instead of a call chain per kick.
        config = self.config
        self._comm_cycles = config.comm_cycles
        self._num_tasks = num_tasks
        self._new_fifo_depth = self.NEW_TASK_FIFO_DEPTH
        if self._full_system:
            self._create_cost = [
                config.comm_cycles + config.nanos_submission_cycles(n)
                for n in range(config.max_deps_per_task + 1)
            ]
        else:
            self._create_cost = [config.comm_cycles] * (
                config.max_deps_per_task + 1
            )
        # Flat table-driven master-job dispatch (kind -> completion
        # handler): the state machine is one dict hit per master event.
        # The table holds the class's functions, not bound methods, which
        # would refer back to the simulator and keep it alive after its
        # session closes until the cyclic collector runs.  It is read from
        # the class per simulator, not frozen at import, so wrappers put on
        # the class before a simulator is built are the ones called.
        cls = type(self)
        self._master_done_handlers = {
            _JOB_CREATE: cls._on_master_created,
            _JOB_DISPATCH: cls._on_master_dispatched,
            _JOB_FINISH: cls._on_master_finished,
        }
        #: Armed fault scenarios, if any (see ``repro.faults``).  The
        #: default run never constructs a plan and dispatches through the
        #: plain handler table -- the injection layer is zero-cost when
        #: off and golden digests stay bit-identical.
        self._fault_plan: Optional["FaultPlan"] = None
        if faults:
            from repro.faults.plan import FaultPlan

            self._fault_plan = FaultPlan(tuple(faults), _HIL_FAULT_ADAPTER, self)

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, stop_at_cycle: Optional[int] = None) -> SimulationResult:
        """Execute the program and return the result.

        With ``stop_at_cycle`` the event loop pauses once the simulated
        clock would pass that cycle; the result then covers only the work
        performed up to the horizon (``completed_all()`` is ``False`` and
        an ``aborted_at_cycle`` counter records the horizon).  Without it
        the program must run to completion.

        Calling ``run`` again *resumes* from where the previous horizon
        stopped (the engine leaves later events queued), so a sequence of
        calls with growing horizons ending in ``run()`` is cycle-identical
        to a single uninterrupted run.
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
            if self.mode is HILMode.HW_ONLY:
                # "all the tasks are sent to Picos once" -- every task is
                # queued at the accelerator input at time zero, in creation
                # order.
                for task in self.program:
                    self._pending_new.append(task)
                self._process_submissions(0)
            else:
                # The ARM core pays a one-time platform start-up cost before
                # the first task is created.
                self._kick_master(self.config.hil_startup_cycles)
            if self._fault_plan is not None:
                self._fault_plan.arm(0)

        # Precomputed handler table: one dict hit per event instead of a
        # string-comparison ladder (this loop delivers hundreds of
        # thousands of events on the fine-grained workloads).  An armed
        # fault plan wraps it as it is.
        handlers = {
            _EV_TASK_VISIBLE: self._on_task_visible,
            _EV_WORKER_DONE: self._on_worker_done,
            _EV_MASTER_DONE: self._on_master_done,
        }
        if self._fault_plan is not None:
            handlers = self._fault_plan.wrap(handlers)
        self.queue.dispatch(handlers, horizon=stop_at_cycle)

    def enable_lifecycle_log(self) -> List[Tuple[int, int, int]]:
        """Record ``(cycle, order, task_id)`` at every lifecycle stamp site.

        Must be called before the first ``run``/``step``.  The returned
        list is live: entries accumulate as the simulation advances.  Once
        the clock has passed a horizon ``H``, the set of entries with
        ``cycle <= H`` is final -- submissions are the only stamps assigned
        ahead of the clock, and they are stamped at ``max(now, free_at) >=
        now``, so no handler running after the clock passed ``H`` can add
        an entry at or before ``H``.
        """
        if self._prepared:
            raise RuntimeError("enable_lifecycle_log() must precede the first run")
        if self._lifecycle_log is None:
            self._lifecycle_log = []
        return self._lifecycle_log

    # ------------------------------------------------------------------
    # Picos pipeline
    # ------------------------------------------------------------------
    def _process_submissions(self, now: int) -> None:
        """Feed the Gateway with waiting tasks while it makes progress.

        May free space in the new-task FIFO; the enclosing event handler
        re-arms the master afterwards (every call path in a master-mediated
        mode ends in :meth:`_on_master_done`), so no kick happens here.
        """
        pending_new = self._pending_new
        if not pending_new:
            return
        accel = self.accel
        rows = self._rows
        submitted = self._submitted_at
        log = self._lifecycle_log
        free_at = self._picos_new_free_at
        stalled = SubmitStatus.STALLED
        while pending_new:
            head = pending_new[0]
            start = now if now > free_at else free_at
            if accel.has_pending_submission:
                if not accel.can_resume():
                    self._submission_blocked = True
                    break
                result = accel.resume_submission()
            else:
                result = accel.submit_task(head)
            if result.status is stalled:
                self._submission_blocked = True
                break
            self._submission_blocked = False
            pending_new.popleft()
            submitted[rows[head.task_id]] = start
            if log is not None:
                log.append((start, _LOG_SUBMITTED, head.task_id))
            free_at = start + result.occupancy
            if result.ready:
                self._schedule_ready(start, result.ready)
        self._picos_new_free_at = free_at

    def _process_finish(self, task_id: int, now: int) -> None:
        """Run the finished-task path through the accelerator."""
        start = max(now, self._picos_finish_free_at)
        result = self.accel.notify_finish(task_id)
        self._picos_finish_free_at = start + result.occupancy
        if result.ready:
            self._schedule_ready(start, result.ready)
        # Finishes free TM entries, DM ways and VM versions: retry any
        # blocked submission.
        self._process_submissions(now)

    def _schedule_ready(self, start: int, ready_list) -> None:
        """Schedule one ``task-visible`` event per notification of one op."""
        schedule = self.queue.schedule
        for ready in ready_list:
            schedule(start + ready.latency, _EV_TASK_VISIBLE, ready.task_id)

    # ------------------------------------------------------------------
    # ready tasks and workers
    # ------------------------------------------------------------------
    def _on_task_visible(self, task_id: int, now: int) -> None:
        """Deliver one ready-task visibility notification."""
        self._ready_at[self._rows[task_id]] = now
        if self._lifecycle_log is not None:
            self._lifecycle_log.append((now, _LOG_READY, task_id))
        self.ready.push(task_id)
        self._try_dispatch(now)
        self._kick_master(now)

    def _try_dispatch(self, now: int) -> None:
        """Hand ready tasks to idle workers (directly or via the ARM core).

        Pure draining: re-arming the master is the enclosing event
        handler's job (the batch re-arm points), so this can run once per
        delivered notification without re-scanning the job queues.
        """
        workers = self.workers
        ready = self.ready
        if self._hw_only:
            while workers.has_idle and len(ready):
                task_id = ready.pop()
                worker_id = workers.reserve(task_id)
                self._start_execution(task_id, worker_id, now)
        else:
            dispatch_jobs = self._master_dispatch_jobs
            while workers.has_idle and len(ready):
                task_id = ready.pop()
                dispatch_jobs.append((task_id, workers.reserve(task_id)))

    def _start_execution(self, task_id: int, worker_id: int, now: int) -> None:
        task = self.program.task(task_id)
        end = self.workers.start_execution(worker_id, now, task.duration)
        self._started_at[self._rows[task_id]] = now
        self.queue.schedule(end, _EV_WORKER_DONE, (worker_id, task_id))

    def _on_worker_done(self, payload: Tuple[int, int], now: int) -> None:
        """Retire one worker completion."""
        worker_id, task_id = payload
        self._finished_at[self._rows[task_id]] = now
        if self._lifecycle_log is not None:
            self._lifecycle_log.append((now, _LOG_RETIRED, task_id))
        self.workers.release(worker_id)
        self._finished_tasks += 1
        if self._hw_only:
            self._process_finish(task_id, now)
        else:
            self._master_finish_jobs.append(task_id)
        self._try_dispatch(now)
        self._kick_master(now)

    # ------------------------------------------------------------------
    # the ARM core (master) in HW+comm and Full-system modes
    # ------------------------------------------------------------------
    def _kick_master(self, now: int) -> None:
        """Arm the idle ARM core with its next job (the batch re-arm point).

        The flat master state machine: job selection (finish > dispatch >
        create, matching the AXI-stream arbitration of the prototype), the
        job cost and the timeline stamp happen inline over precomputed
        locals -- this runs once per event-handler activation, the largest
        measured hot spot before the rewrite.  Each top-level event handler
        re-arms exactly once at its end instead of at every inner call
        site; by then the job queues hold everything the activation
        produced, and because picking a job only pops a deque and schedules
        one event, a deferred re-arm selects the same job at the same cycle
        as the eager per-site kicks did.
        """
        if self._master_busy or not self._uses_master:
            return
        finish_jobs = self._master_finish_jobs
        dispatch_jobs = self._master_dispatch_jobs
        if finish_jobs:
            job = (_JOB_FINISH, finish_jobs.popleft())
            cost = self._comm_cycles
        elif dispatch_jobs:
            job = (_JOB_DISPATCH, dispatch_jobs.popleft())
            cost = self._comm_cycles
        else:
            index = self._next_create_index
            if (
                index >= self._num_tasks
                or len(self._pending_new) >= self._new_fifo_depth
            ):
                return
            task = self.program[index]
            self._next_create_index = index + 1
            job = (_JOB_CREATE, task)
            num_deps = task.num_dependences
            costs = self._create_cost
            # Tasks beyond the TMX capacity are rejected later by the
            # Gateway; cost them through the config call so that error
            # surfaces instead of an index error here.
            cost = (
                costs[num_deps]
                if num_deps < len(costs)
                else self._master_create_cost(num_deps)
            )
            self._created_at[index] = now  # the create index is the row
        self._master_busy = True
        self.queue.schedule(now + cost, _EV_MASTER_DONE, job)

    def _master_create_cost(self, num_deps: int) -> int:
        """Creation cost past the precomputed table (oversized tasks)."""
        cost = self.config.comm_cycles
        if self._full_system:
            cost += self.config.nanos_submission_cycles(num_deps)
        return cost

    def _on_master_done(self, job: Tuple[str, object], now: int) -> None:
        """Retire one ARM master job through the job-kind table."""
        self._master_busy = False
        kind, payload = job
        handler = self._master_done_handlers.get(kind)
        if handler is None:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown master job {kind!r}")
        handler(self, payload, now)
        self._kick_master(now)

    def _on_master_created(self, task: Task, now: int) -> None:
        self._pending_new.append(task)
        self._process_submissions(now)

    def _on_master_dispatched(self, payload: Tuple[int, int], now: int) -> None:
        task_id, worker_id = payload
        self._start_execution(task_id, worker_id, now)

    def _on_master_finished(self, task_id: int, now: int) -> None:
        self._process_finish(task_id, now)

    # perfbench/layers.py looks these retired handler names up in the class
    # ``__dict__`` to install its probes; they alias the per-event handlers.
    _on_ready_batch = _on_task_visible
    _on_worker_done_batched = _on_worker_done
    _on_master_done_batched = _on_master_done

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _build_result(self, aborted_at: Optional[int] = None) -> SimulationResult:
        aborted = self._finished_tasks != self.program.num_tasks
        if aborted and aborted_at is None:
            raise RuntimeError(
                f"simulation ended with {self._finished_tasks} of "
                f"{self.program.num_tasks} tasks executed (deadlock?)"
            )
        # Unfinished tasks keep finished == 0 and no stamp is negative, so
        # on an early abort too the largest finish stamp is the makespan of
        # the tasks done by the horizon.
        makespan = max(self._finished_at, default=0)
        timelines = mint_timelines(
            self._rows,
            self._created_at,
            self._submitted_at,
            self._ready_at,
            self._started_at,
            self._finished_at,
        )
        counters = self.accel.stats.as_dict()
        counters["ready_queue_high_water"] = self.ready.max_occupancy
        counters["events_processed"] = self.queue.processed
        if aborted:
            counters["aborted_at_cycle"] = aborted_at
            counters["finished_tasks"] = self._finished_tasks
        else:
            counters["picos_new_path_busy_until"] = self._picos_new_free_at
            counters["picos_finish_path_busy_until"] = self._picos_finish_free_at
        plan = self._fault_plan
        if plan is not None:
            counters["faults_injected"] = plan.injected
            counters["faults_recovered"] = plan.recovered
            if not aborted:
                plan.verify(timelines)
        return SimulationResult(
            simulator=f"picos-{self.mode.value}",
            program_name=self.program.name,
            num_workers=self.num_workers,
            makespan=makespan,
            sequential_cycles=self.program.sequential_cycles,
            num_tasks=self.program.num_tasks,
            timelines=timelines,
            counters=counters,
            drain_time=self.queue.now,
        )


class _HILFaultAdapter:
    """HIL half of the fault-injection adapter protocol.

    See the protocol definition in :mod:`repro.faults.plan`.  This object
    owns every backend-specific decision of a faulted HIL run: which
    engine kinds the backend-independent packet classes map to, how task
    ids hide inside payloads, and how a worker core is killed -- the
    in-flight task is discarded from the dead core and re-enters the
    scheduler, travelling the existing ARM dispatch (gateway retry) path
    to a replacement core.
    """

    family = "hil"
    #: DCT ready notifications / worker completions / ARM master events.
    packet_classes = {
        "ready": _EV_TASK_VISIBLE,
        "complete": _EV_WORKER_DONE,
        "master": _EV_MASTER_DONE,
    }
    default_packet_class = "ready"
    completion_kind = _EV_WORKER_DONE

    @staticmethod
    def task_id_of(kind: str, payload: object) -> int:
        if kind == _EV_TASK_VISIBLE:
            return payload  # type: ignore[return-value]
        if kind == _EV_WORKER_DONE:
            return payload[1]  # type: ignore[index]
        if kind == _EV_MASTER_DONE:
            job_kind, job_payload = payload  # type: ignore[misc]
            if job_kind == _JOB_CREATE:
                return job_payload.task_id
            if job_kind == _JOB_DISPATCH:
                return job_payload[0]
            return job_payload  # a finish job carries the bare task id
        return -1

    @staticmethod
    def worker_count(sim: "HILSimulator") -> int:
        return sim.num_workers

    @staticmethod
    def stall_counters(sim: "HILSimulator") -> Dict[str, int]:
        return sim.accel.stats.as_dict()

    @staticmethod
    def _worker_done_pending(
        sim: "HILSimulator", worker_id: int, task_id: int
    ) -> bool:
        """Whether the completion of ``(worker, task)`` is already queued,
        i.e. the worker is genuinely *executing* (not merely reserved with
        its dispatch message still in flight through the ARM core)."""
        event = (_EV_WORKER_DONE, (worker_id, task_id))
        current, buckets = sim.queue.snapshot_events()
        return event in current or any(event in events for _time, events in buckets)

    def kill_worker(
        self, sim: "HILSimulator", plan: "FaultPlan", armed: "ArmedFault", now: int
    ) -> None:
        from repro.faults.payloads import TIMER_KILL

        worker_id = armed.scenario.target.worker_id
        assert worker_id is not None
        task_id = sim.workers.state(worker_id).current_task
        if task_id is None:
            # An idle core is swapped for its hot spare on the spot: the
            # fault is injected and recovered in the same cycle.
            plan.record_injected(now, -1, armed)
            plan.record_recovered(now, -1, armed)
            return
        if not self._worker_done_pending(sim, worker_id, task_id):
            # Reserved, but the dispatch message is still in flight
            # through the ARM core; the kill lands once execution has
            # actually started (bounded by the comm latency).
            plan.schedule_timer(armed, now + 1, TIMER_KILL)
            return
        plan.record_injected(now, task_id, armed)
        # The dead core's completion message must never be believed ...
        armed.killed.add((worker_id, task_id))
        # ... and its in-flight task re-enters the scheduler, travelling
        # the existing dispatch (gateway retry) path to a fresh core.
        armed.awaiting.add(task_id)
        sim.workers.release(worker_id)
        sim.ready.push(task_id)
        sim._try_dispatch(now)
        sim._kick_master(now)

    @staticmethod
    def rejoin_worker(
        sim: "HILSimulator",
        plan: "FaultPlan",
        armed: "ArmedFault",
        worker: Optional[int],
        now: int,
    ) -> None:  # pragma: no cover - the HIL kill path swaps cores instantly
        raise RuntimeError("the HIL kill path never schedules a rejoin")

    @staticmethod
    def intercept_completion(
        sim: "HILSimulator",
        plan: "FaultPlan",
        armed: "ArmedFault",
        payload: Tuple[int, int],
        now: int,
    ) -> bool:
        pair = (payload[0], payload[1])
        if pair in armed.killed:
            armed.killed.discard(pair)
            return True  # stale completion of the dead core
        task_id = payload[1]
        if task_id in armed.awaiting:
            armed.awaiting.discard(task_id)
            plan.record_recovered(now, task_id, armed)
        return False


_HIL_FAULT_ADAPTER = _HILFaultAdapter()


# ----------------------------------------------------------------------
# backend registration
# ----------------------------------------------------------------------
class HILBackend:
    """Simulator backend building a :class:`HILSimulator` in one HIL mode."""

    #: Request parameters this backend understands.
    accepts = frozenset({"config", "dm_design", "policy", "faults"})

    def __init__(self, mode: HILMode) -> None:
        self.mode = mode
        self.name = mode.backend_name
        self.description = (
            f"Picos hardware prototype, HIL {mode.display_name} mode"
        )

    def simulator(
        self,
        program: TaskProgram,
        *,
        num_workers: int = 12,
        config: Optional[PicosConfig] = None,
        dm_design: Optional[DMDesign] = None,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        faults: Sequence["FaultScenario"] = (),
    ) -> HILSimulator:
        """A fresh run; ``dm_design`` selects a paper prototype when no
        ``config`` is given."""
        if config is None and dm_design is not None:
            config = PicosConfig.paper_prototype(dm_design)
        return HILSimulator(
            program,
            config=config,
            mode=self.mode,
            num_workers=num_workers,
            policy=policy,
            faults=faults,
        )


for _mode in HILMode:
    register_backend(HILBackend(_mode), replace=True)
del _mode
