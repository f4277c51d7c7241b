"""The Picos accelerator facade.

:class:`PicosAccelerator` assembles the Gateway, TRS, DCT and Arbiter
instances described in Section III and exposes the co-processor interface
the paper describes from the software's point of view:

1. it *receives task dependence information* (task id and its dependences)
   at task-creation time -- :meth:`PicosAccelerator.submit_task`;
2. it *sends ready-to-execute task information* to the worker threads --
   the ``ready`` list of every submit and finish result, in the order the
   tasks became ready; the caller queues them in its Task Scheduler
   (:class:`~repro.core.scheduler.TaskScheduler`, the HIL driver's
   ``ready`` queue);
3. it receives finished-task notifications and releases the dependences --
   :meth:`PicosAccelerator.notify_finish`.

Every operation returns both its functional effect (which tasks became
ready) and its timing effect (pipeline occupancy and readiness latency in
cycles), calibrated against the HW-only measurements of Table IV.  The
Hardware-In-the-Loop driver (:mod:`repro.sim.hil`) turns those costs into a
schedule; purely functional users may ignore them.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Dict, List, Optional

from repro.core.arbiter import Arbiter
from repro.core.config import PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.core.gateway import Gateway, GatewayStatus
from repro.core.stats import PicosStats
from repro.core.trs import TaskReservationStation
from repro.runtime.task import Task

class SubmitStatus(enum.Enum):
    """Outcome of a task submission."""

    ACCEPTED = "accepted"
    STALLED = "stalled"


class ReadyTask:
    """A task that became ready, with its readiness latency.

    ``latency`` counts cycles from the start of the operation that made the
    task ready (a submission or a finish notification) until the task is
    visible in the Task Scheduler.  A ``__slots__`` value class: one is
    allocated per readiness event of every task.
    """

    __slots__ = ("task_id", "latency")

    def __init__(self, task_id: int, latency: int) -> None:
        self.task_id = task_id
        self.latency = latency

    def __repr__(self) -> str:
        return f"ReadyTask(task_id={self.task_id}, latency={self.latency})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadyTask):
            return NotImplemented
        return self.task_id == other.task_id and self.latency == other.latency

    def __hash__(self) -> int:
        return hash((self.task_id, self.latency))


class SubmitResult:
    """Result of :meth:`PicosAccelerator.submit_task` (or a resume)."""

    __slots__ = ("status", "task_id", "occupancy", "ready", "stall_reason")

    def __init__(
        self,
        status: SubmitStatus,
        task_id: int,
        occupancy: int = 0,
        ready: Optional[List[ReadyTask]] = None,
        stall_reason: Optional[StallReason] = None,
    ) -> None:
        self.status = status
        self.task_id = task_id
        #: Cycles the Picos pipeline is occupied by this submission.
        self.occupancy = occupancy
        #: Tasks (at most the submitted one) that became ready.
        self.ready: List[ReadyTask] = ready if ready is not None else []
        #: Why the submission stalled, when ``status`` is ``STALLED``.
        self.stall_reason = stall_reason

    def __repr__(self) -> str:
        return (
            f"SubmitResult(status={self.status!r}, task_id={self.task_id}, "
            f"occupancy={self.occupancy}, ready={self.ready!r}, "
            f"stall_reason={self.stall_reason!r})"
        )

    @property
    def accepted(self) -> bool:
        """``True`` when the task fully entered the accelerator."""
        return self.status is SubmitStatus.ACCEPTED


class FinishResult:
    """Result of :meth:`PicosAccelerator.notify_finish`."""

    __slots__ = ("task_id", "occupancy", "ready")

    def __init__(
        self,
        task_id: int,
        occupancy: int = 0,
        ready: Optional[List[ReadyTask]] = None,
    ) -> None:
        self.task_id = task_id
        #: Cycles the Picos pipeline is occupied by this finish notification.
        self.occupancy = occupancy
        #: Tasks woken by this finish, in wake-up order (consumer chains wake
        #: from the last consumer backwards -- Section III-D).
        self.ready: List[ReadyTask] = ready if ready is not None else []

    def __repr__(self) -> str:
        return (
            f"FinishResult(task_id={self.task_id}, occupancy={self.occupancy}, "
            f"ready={self.ready!r})"
        )


class PicosAccelerator:
    """Functional + timing model of the full Picos hardware."""

    def __init__(self, config: Optional[PicosConfig] = None) -> None:
        self.config = config if config is not None else PicosConfig()
        self.stats = PicosStats()
        self.arbiter = Arbiter(self.config.num_trs, self.config.num_dct)
        self.trs_instances = [
            TaskReservationStation(i, self.config, self.stats)
            for i in range(self.config.num_trs)
        ]
        self.dct_instances = [
            DependenceChainTracker(i, self.config, self.stats)
            for i in range(self.config.num_dct)
        ]
        #: Slot handles pack ``trs_id * slots_per_trs + tm_index * max_deps
        #: + dep_index``; the wake-walk decodes the owning TRS with one
        #: integer division.
        self._slots_per_trs = self.config.tm_entries * self.config.max_deps_per_task
        self.gateway = Gateway(
            self.config, self.trs_instances, self.dct_instances, self.arbiter, self.stats
        )
        # The pipeline costs are pure functions of the dependence count and
        # the count is bounded by the TMX capacity, so the per-task cost
        # lookups collapse to one list index each.
        max_deps = self.config.max_deps_per_task
        self._new_task_occupancy = [
            self.config.new_task_occupancy(n) for n in range(max_deps + 1)
        ]
        self._new_task_ready_latency = [
            self.config.new_task_ready_latency(n) for n in range(max_deps + 1)
        ]
        self._finish_occupancy = [
            self.config.finish_occupancy(n) for n in range(max_deps + 1)
        ]
        #: task_id -> number of dependences, needed for finish-cost accounting.
        self._deps_of_task: Dict[int, int] = {}
        self._submitted = 0
        self._finished = 0

    # ------------------------------------------------------------------
    # co-processor interface: new tasks
    # ------------------------------------------------------------------
    def submit_task(self, task: Task) -> SubmitResult:
        """Submit a new task with its dependences (packets N1-N6).

        When the accelerator has no room (no free TM entry, a DM conflict or
        a full VM), the result is ``STALLED``; the caller must wait until a
        task finishes and then call :meth:`resume_submission`.
        """
        gateway_result = self.gateway.submit(task)
        return self._submit_result_from(task, gateway_result)

    def resume_submission(self) -> SubmitResult:
        """Retry the stalled submission from the blocked dependence."""
        pending = self.gateway.pending_submission
        if pending is None:
            raise RuntimeError("no stalled submission to resume")
        task = pending.task
        gateway_result = self.gateway.resume()
        return self._submit_result_from(task, gateway_result)

    def _submit_result_from(self, task: Task, gateway_result) -> SubmitResult:
        if gateway_result.status is GatewayStatus.STALLED:
            return SubmitResult(
                status=SubmitStatus.STALLED,
                task_id=task.task_id,
                occupancy=0,
                stall_reason=gateway_result.stall_reason,
            )
        num_deps = task.num_dependences
        self._deps_of_task[task.task_id] = num_deps
        self._submitted += 1
        occupancy = self._new_task_occupancy[num_deps]
        if gateway_result.retries:
            occupancy += (
                gateway_result.retries * self.config.dm_conflict_stall_cycles
            )
        self.stats.busy_cycles += occupancy
        result = SubmitResult(
            status=SubmitStatus.ACCEPTED, task_id=task.task_id, occupancy=occupancy
        )
        latency = self._new_task_ready_latency[num_deps]
        for execute in gateway_result.execute:
            result.ready.append(ReadyTask(task_id=execute.task_id, latency=latency))
        return result

    @property
    def has_pending_submission(self) -> bool:
        """Whether a submission is stalled inside the Gateway."""
        return self.gateway.has_pending_submission

    def can_resume(self) -> bool:
        """Whether the stalled submission would make progress if resumed."""
        return self.gateway.can_resume()

    @property
    def pending_stall_reason(self) -> Optional[StallReason]:
        """Reason of the current stall, or ``None``."""
        pending = self.gateway.pending_submission
        return None if pending is None else pending.reason

    # ------------------------------------------------------------------
    # co-processor interface: finished tasks
    # ------------------------------------------------------------------
    def notify_finish(self, task_id: int) -> FinishResult:
        """Notify that a worker finished ``task_id`` (packets F1-F4)."""
        slots, vm_indices, addresses = self.gateway.notify_finished(task_id)
        num_deps = self._deps_of_task.pop(task_id, len(slots))
        occupancy = self._finish_occupancy[num_deps]
        self.stats.busy_cycles += occupancy
        result = FinishResult(task_id=task_id, occupancy=occupancy)

        # Route the finish run to its DCTs in consecutive same-bank runs
        # (one batch per finishing task with the prototype's single DCT)
        # and collect the wake-ups, then walk consumer chains through the
        # owning TRS instances.  Unlike the dispatch path, releases cannot
        # stall, so every run is delivered in full.
        pending_wakeups: deque = deque()
        extend_wakeups = pending_wakeups.extend
        dct_instances = self.dct_instances
        total = len(slots)
        if len(dct_instances) == 1:
            extend_wakeups(
                (wake_slot, wake_vm, 0)
                for wake_slot, wake_vm in dct_instances[0].process_finish_run(
                    slots, vm_indices, 0, total
                )
            )
        else:
            for route, run_start, run_end in self.arbiter.iter_dct_runs(
                addresses, 0, total
            ):
                extend_wakeups(
                    (wake_slot, wake_vm, 0)
                    for wake_slot, wake_vm in dct_instances[
                        route
                    ].process_finish_run(slots, vm_indices, run_start, run_end)
                )

        arbiter = self.arbiter
        trs_instances = self.trs_instances
        slots_per_trs = self._slots_per_trs
        wake_latency = self.config.wake_latency
        chain_hop_cycles = self.config.chain_hop_cycles
        ready_append = result.ready.append
        popleft = pending_wakeups.popleft
        while pending_wakeups:
            wake_slot, wake_vm, depth = popleft()
            trs = trs_instances[
                arbiter.trs_for_slot_index(wake_slot // slots_per_trs)
            ]
            ready_task_id, chained = trs.handle_ready_slot(wake_slot, wake_vm)
            if ready_task_id is not None:
                latency = occupancy + wake_latency + depth * chain_hop_cycles
                ready_append(ReadyTask(task_id=ready_task_id, latency=latency))
            if chained >= 0:
                # The chained wake-up carries the same VM index (the
                # earlier consumer belongs to the same version).
                pending_wakeups.append((chained, wake_vm, depth + 1))

        self._finished += 1
        return result

    # ------------------------------------------------------------------
    # aggregate status
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Number of tasks currently stored in the accelerator."""
        return self.gateway.in_flight_tasks()

    @property
    def tasks_submitted(self) -> int:
        """Number of tasks fully accepted so far."""
        return self._submitted

    @property
    def tasks_finished(self) -> int:
        """Number of finished-task notifications processed so far."""
        return self._finished

    @property
    def dm_conflicts(self) -> int:
        """Total DM conflicts detected (the Table II metric)."""
        return self.stats.dm_conflicts

    def is_drained(self) -> bool:
        """``True`` when no task and no dependence state remain in flight."""
        if self.gateway.has_pending_submission:
            return False
        if self.in_flight:
            return False
        return all(dct.is_idle() for dct in self.dct_instances)

    def describe(self) -> Dict[str, object]:
        """A summary dictionary used by reports and debugging helpers."""
        return {
            "design": self.config.dm_design.display_name,
            "num_trs": self.config.num_trs,
            "num_dct": self.config.num_dct,
            "tasks_submitted": self._submitted,
            "tasks_finished": self._finished,
            "in_flight": self.in_flight,
            "dm_conflicts": self.dm_conflicts,
            "stats": self.stats.as_dict(),
        }
