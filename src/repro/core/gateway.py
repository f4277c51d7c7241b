"""Gateway (GW): first interface between the processing cores and Picos.

The GW fetches new tasks and finished-task notifications and dispatches them
to the TRS and DCT instances (steps N1-N4 and F1-F2 of Section III-B).  Two
behaviours of the prototype are modelled precisely because they shape the
performance results:

* when no TRS slot is free, the GW *does not process* the new task: the
  submission interface stalls until a task retires;
* when the DCT cannot store a dependence (DM conflict or full VM), the
  submission pipeline stalls mid-task; the GW keeps the partially-dispatched
  task and resumes from the blocked dependence once resources free up.

Cycle-identity contract
-----------------------

The Gateway's dependence traffic is batched (maximal consecutive runs per
DCT bank, see ``docs/engine.md``) but must stay *cycle-identical* to a
per-dependence flow: the stall points, stats and resume indices are those
of the single-packet path.  The contract is pinned by the golden-digest
matrix in ``tests/test_perf_parity.py``, the Gateway unit suite in
``tests/test_core_gateway.py``, and the seed-pinned cross-backend fuzz in
``tests/test_differential.py``.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.arbiter import Arbiter
from repro.core.config import PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.core.packets import ExecuteTaskPacket
from repro.core.stats import PicosStats
from repro.core.trs import TaskReservationStation
from repro.runtime.task import Task


class GatewayStatus(enum.Enum):
    """Outcome of a submission attempt at the Gateway."""

    ACCEPTED = "accepted"
    STALLED = "stalled"


class PendingSubmission:
    """A task whose dispatch stalled partway through its dependences.

    A ``__slots__`` value class (like the packets it replaced a dataclass
    for): one is allocated per stall, and saturated runs stall often.
    """

    __slots__ = ("task", "trs_id", "tm_index", "next_dep_index", "reason", "retries")

    def __init__(
        self,
        task: Task,
        trs_id: int,
        tm_index: int,
        next_dep_index: int,
        reason: StallReason,
        retries: int = 0,
    ) -> None:
        self.task = task
        self.trs_id = trs_id
        self.tm_index = tm_index
        self.next_dep_index = next_dep_index
        self.reason = reason
        self.retries = retries

    def __repr__(self) -> str:
        return (
            f"PendingSubmission(task={self.task!r}, trs_id={self.trs_id}, "
            f"tm_index={self.tm_index}, next_dep_index={self.next_dep_index}, "
            f"reason={self.reason!r}, retries={self.retries})"
        )


class GatewayResult:
    """What happened when the Gateway processed a new task.

    A ``__slots__`` value class: one is allocated per submission *attempt*,
    and on a run with a saturated Task Memory most attempts are stalls
    retried after every create and finish.
    """

    __slots__ = (
        "status",
        "task",
        "execute",
        "stall_reason",
        "dependences_dispatched",
        "retries",
    )

    def __init__(
        self,
        status: GatewayStatus,
        task: Task,
        execute: Optional[List[ExecuteTaskPacket]] = None,
        stall_reason: Optional[StallReason] = None,
        dependences_dispatched: int = 0,
        retries: int = 0,
    ) -> None:
        self.status = status
        self.task = task
        #: Execute packets produced during the dispatch (task became ready).
        self.execute: List[ExecuteTaskPacket] = (
            execute if execute is not None else []
        )
        #: Stall reason when ``status`` is ``STALLED``.
        self.stall_reason = stall_reason
        #: Number of dependences dispatched during this attempt.
        self.dependences_dispatched = dependences_dispatched
        #: Number of retry attempts consumed so far (for stall-cycle accounting).
        self.retries = retries

    def __repr__(self) -> str:
        return (
            f"GatewayResult(status={self.status!r}, task={self.task!r}, "
            f"execute={self.execute!r}, stall_reason={self.stall_reason!r}, "
            f"dependences_dispatched={self.dependences_dispatched}, "
            f"retries={self.retries})"
        )


class Gateway:
    """Dispatch engine connecting the cores to the TRS and DCT instances."""

    def __init__(
        self,
        config: PicosConfig,
        trs_instances: Sequence[TaskReservationStation],
        dct_instances: Sequence[DependenceChainTracker],
        arbiter: Arbiter,
        stats: Optional[PicosStats] = None,
    ) -> None:
        self.config = config
        self.trs_instances = list(trs_instances)
        self.dct_instances = list(dct_instances)
        self.arbiter = arbiter
        self.stats = stats if stats is not None else PicosStats()
        self._next_trs = 0
        # With the prototype's single TRS the round-robin selection loop
        # collapses to one free-slot test; submissions retry after every
        # create/finish, so most calls on a saturated run are stalled
        # attempts and this is their hot path.
        self._single_trs = trs_instances[0] if len(self.trs_instances) == 1 else None
        self._max_deps = config.max_deps_per_task
        self._pending: Optional[PendingSubmission] = None
        #: task_id -> (trs_id, tm_index) for in-flight tasks: the model's one
        #: task-id map.  Finished notifications are routed through it without
        #: a search, and a task id it holds is refused at submission.
        self._slot_of_task: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def has_pending_submission(self) -> bool:
        """Whether a new task is stalled partway through its dispatch."""
        return self._pending is not None

    @property
    def pending_submission(self) -> Optional[PendingSubmission]:
        """The stalled submission, if any."""
        return self._pending

    def in_flight_tasks(self) -> int:
        """Number of tasks currently tracked across every TRS."""
        return sum(trs.in_flight for trs in self.trs_instances)

    # ------------------------------------------------------------------
    # new-task path
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> GatewayResult:
        """Process a new task (N1-N6).

        Only one submission can be in flight at a time (the GW is in-order);
        a stalled submission must be resumed before the next task enters.  A
        task whose id is already in flight in any TRS is refused with
        :class:`ValueError` before any state changes.
        """
        if self._pending is not None:
            raise RuntimeError(
                "the Gateway has a stalled submission; call resume() first"
            )
        if task.num_dependences > self._max_deps:
            raise ValueError(
                f"task {task.task_id} carries {task.num_dependences} dependences; "
                f"the TMX supports at most {self._max_deps}"
            )
        if task.task_id in self._slot_of_task:
            raise ValueError(f"task {task.task_id} is already in flight")
        if self._single_trs is not None:
            trs_id: Optional[int] = 0 if self._single_trs.has_free_slot else None
        else:
            trs_id = self._select_trs()
        if trs_id is None:
            self.stats.tm_full_stalls += 1
            return GatewayResult(
                status=GatewayStatus.STALLED,
                task=task,
                stall_reason=StallReason.TM_FULL,
            )
        trs = self.trs_instances[trs_id]
        tm_index, ready = trs.accept_task(task.task_id, task.num_dependences)
        self._slot_of_task[task.task_id] = (trs_id, tm_index)
        result = GatewayResult(status=GatewayStatus.ACCEPTED, task=task)
        if ready:
            result.execute.append(
                ExecuteTaskPacket(
                    task_id=task.task_id, trs_id=trs_id, tm_index=tm_index
                )
            )
            return result
        return self._dispatch_dependences(task, trs_id, tm_index, 0, result)

    def resume(self) -> GatewayResult:
        """Retry a stalled submission from the blocked dependence."""
        if self._pending is None:
            raise RuntimeError("no stalled submission to resume")
        pending = self._pending
        self._pending = None
        result = GatewayResult(
            status=GatewayStatus.ACCEPTED,
            task=pending.task,
            retries=pending.retries + 1,
        )
        return self._dispatch_dependences(
            pending.task,
            pending.trs_id,
            pending.tm_index,
            pending.next_dep_index,
            result,
            retries=pending.retries + 1,
        )

    def can_resume(self) -> bool:
        """Whether the blocked dependence of the stalled submission fits now."""
        if self._pending is None:
            return False
        pending = self._pending
        dep = pending.task.dependences[pending.next_dep_index]
        dct = self.dct_instances[self.arbiter.dct_index_for(dep.address)]
        return dct.can_accept(dep.address, dep.direction)

    def _dispatch_dependences(
        self,
        task: Task,
        trs_id: int,
        tm_index: int,
        start_index: int,
        result: GatewayResult,
        retries: int = 0,
    ) -> GatewayResult:
        """Forward dependences ``start_index``.. to their DCTs (N4/N5).

        Batched: dependences travel to the DCT in maximal consecutive runs
        that route to the same DCT bank (with the prototype's single DCT,
        the whole task is one run).  Each run is one
        :meth:`~repro.core.trs.TaskReservationStation.record_dependences`,
        one :meth:`~repro.core.dct.DependenceChainTracker.process_batch`
        and one :meth:`~repro.core.trs.TaskReservationStation.
        apply_submission_outcomes` call instead of a packet round-trip per
        dependence.  The stored state, stats, stall points and resume
        indices are exactly those of a per-dependence flow, which the
        golden digests pin cycle-for-cycle.
        """
        trs = self.trs_instances[trs_id]
        dependences = task.dependences
        total = len(dependences)
        dct_instances = self.dct_instances
        if len(dct_instances) == 1:
            runs = ((0, start_index, total),)
        else:
            runs = self.arbiter.iter_dct_runs(
                [dep.address for dep in dependences], start_index, total
            )
        for route, run_start, run_end in runs:
            dct = dct_instances[route]
            slots = trs.record_dependences(tm_index, dependences, run_start, run_end)
            outcomes, stall_reason = dct.process_batch(
                slots, dependences, run_start, run_end
            )
            stored = len(outcomes)
            if stored:
                result.dependences_dispatched += stored
                if trs.apply_submission_outcomes(tm_index, run_start, outcomes):
                    result.execute.append(
                        ExecuteTaskPacket(
                            task_id=task.task_id, trs_id=trs_id, tm_index=tm_index
                        )
                    )
            if stall_reason is not None:
                # Drop the TMX slots recorded past the last stored
                # dependence so the retry records them again cleanly.
                trs.drop_dependence_slots(tm_index, run_end - run_start - stored)
                self._pending = PendingSubmission(
                    task=task,
                    trs_id=trs_id,
                    tm_index=tm_index,
                    next_dep_index=run_start + stored,
                    reason=stall_reason,
                    retries=retries,
                )
                result.status = GatewayStatus.STALLED
                result.stall_reason = stall_reason
                return result
        return result

    # ------------------------------------------------------------------
    # finished-task path
    # ------------------------------------------------------------------
    def notify_finished(
        self, task_id: int
    ) -> Tuple[Sequence[int], List[int], List[int]]:
        """Process a finished-task notification (F1-F3).

        Returns the finish run the owning TRS emitted towards the DCTs --
        ``(slots, vm_indices, addresses)`` parallel sequences, one element
        per dependence of the task; the caller (the accelerator facade)
        routes the run and collects the wake-ups.
        """
        if task_id not in self._slot_of_task:
            raise KeyError(f"task {task_id} is not in flight")
        trs_id, tm_index = self._slot_of_task.pop(task_id)
        return self.trs_instances[trs_id].handle_finished(task_id, tm_index)

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _select_trs(self) -> Optional[int]:
        """Pick the TRS for a new task (round-robin over free instances)."""
        for offset in range(len(self.trs_instances)):
            candidate = (self._next_trs + offset) % len(self.trs_instances)
            if self.trs_instances[candidate].has_free_slot:
                self._next_trs = (candidate + 1) % len(self.trs_instances)
                return candidate
        return None
