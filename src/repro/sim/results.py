"""Result objects produced by the simulators.

Every simulator in the package (Picos HIL, Nanos++ software-only, Perfect)
returns a :class:`SimulationResult` so the experiment drivers can compare
them uniformly: makespan, speedup against the traced sequential execution,
per-task timelines and the hardware counters collected during the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Sequence, Tuple


class TaskTimeline:
    """Per-task timestamps collected during a simulation (all in cycles).

    A plain ``__slots__`` value class: one instance exists per simulated
    task, so the per-instance ``__dict__`` a dataclass would carry is
    measurable overhead on large traces.

    Fields: ``task_id``; ``created`` (when the master thread created /
    submitted the task, 0 in HW-only); ``submitted`` (when the task
    entered the accelerator or the software ready pool); ``ready`` (when
    it became visible as ready to the scheduler); ``started`` / ``finished``
    (worker execution window).
    """

    __slots__ = ("task_id", "created", "submitted", "ready", "started", "finished")

    def __init__(
        self,
        task_id: int,
        created: int = 0,
        submitted: int = 0,
        ready: int = 0,
        started: int = 0,
        finished: int = 0,
    ) -> None:
        self.task_id = task_id
        self.created = created
        self.submitted = submitted
        self.ready = ready
        self.started = started
        self.finished = finished

    def _astuple(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.task_id,
            self.created,
            self.submitted,
            self.ready,
            self.started,
            self.finished,
        )

    def __repr__(self) -> str:
        return (
            "TaskTimeline(task_id={}, created={}, submitted={}, ready={}, "
            "started={}, finished={})".format(*self._astuple())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskTimeline):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    @property
    def queue_latency(self) -> int:
        """Cycles spent between readiness and execution start."""
        return self.started - self.ready

    @property
    def management_latency(self) -> int:
        """Cycles spent between submission and readiness."""
        return self.ready - self.submitted


def mint_timelines(
    task_ids: Collection[int],
    created: Sequence[int],
    submitted: Sequence[int],
    ready: Sequence[int],
    started: Sequence[int],
    finished: Sequence[int],
) -> Dict[int, TaskTimeline]:
    """One ``TaskTimeline`` per task id, keyed and ordered as ``task_ids``.

    The simulators keep their stamps as five columns indexed by each task's
    position in the program and mint the objects only when they build a
    result; row ``i`` of every column belongs to the ``i``-th id.
    """
    timelines = map(TaskTimeline, task_ids, created, submitted, ready, started, finished)
    return dict(zip(task_ids, timelines))


@dataclass
class SimulationResult:
    """Outcome of one simulated execution of a task program."""

    #: Human-readable name of the simulator ("picos-full-system", ...).
    simulator: str
    #: Name of the simulated program (benchmark + block size).
    program_name: str
    num_workers: int
    #: Total elapsed cycles until the last task finished executing.
    makespan: int
    #: Sum of all task durations (the traced sequential execution time).
    sequential_cycles: int
    num_tasks: int
    #: Per-task timelines, keyed by task id.
    timelines: Dict[int, TaskTimeline] = field(default_factory=dict)
    #: Hardware / runtime counters collected during the run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Cycles until every notification fully drained (>= makespan).
    drain_time: int = 0

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------
    @property
    def speedup(self) -> float:
        """Speedup against the sequential execution (the paper's y-axis)."""
        if self.makespan <= 0:
            return 0.0
        return self.sequential_cycles / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by the number of workers (0.0 - 1.0+)."""
        if self.num_workers <= 0:
            return 0.0
        return self.speedup / self.num_workers

    # ------------------------------------------------------------------
    # latency / throughput metrics (Table IV)
    # ------------------------------------------------------------------
    def first_task_latency(self) -> int:
        """L1st: cycles from time zero until the first task became ready."""
        if not self.timelines:
            return 0
        return min(timeline.ready for timeline in self.timelines.values())

    def task_throughput(self) -> float:
        """thrTask: steady-state cycles the platform needs per task.

        Computed as the span between the first and the last task entering
        the accelerator (their submission times), divided by the number of
        remaining tasks.  This is the quantity the prototype's counters
        report: how fast the design absorbs additional tasks once the
        pipeline is warm, independently of how long the dependence chains
        take to execute.
        """
        if self.num_tasks <= 1 or not self.timelines:
            return float(self.makespan)
        submissions = sorted(t.submitted for t in self.timelines.values())
        span = submissions[-1] - submissions[0]
        if span <= 0:
            return self.completion_throughput()
        return span / (self.num_tasks - 1)

    def completion_throughput(self) -> float:
        """Steady-state cycles between task completions (end-to-end view)."""
        if self.num_tasks <= 1 or not self.timelines:
            return float(self.makespan)
        finishes = sorted(t.finished for t in self.timelines.values())
        span = finishes[-1] - finishes[0]
        return span / (self.num_tasks - 1)

    def dependence_throughput(self, avg_deps: float) -> float:
        """thrDep: cycles consumed per dependence."""
        if avg_deps <= 0:
            return 0.0
        return self.task_throughput() / avg_deps

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def start_order(self) -> List[int]:
        """Task ids ordered by execution start time (ties by task id)."""
        return [
            timeline.task_id
            for timeline in sorted(
                self.timelines.values(), key=lambda t: (t.started, t.task_id)
            )
        ]

    def completed_all(self) -> bool:
        """Whether every task has a recorded finish time."""
        return len(self.timelines) == self.num_tasks and all(
            t.finished >= t.started for t in self.timelines.values()
        )

    def worker_busy_fraction(self) -> float:
        """Fraction of worker-cycles spent executing task bodies."""
        if self.makespan <= 0 or self.num_workers <= 0:
            return 0.0
        busy = sum(t.finished - t.started for t in self.timelines.values())
        return busy / (self.makespan * self.num_workers)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by reports and EXPERIMENTS.md tables."""
        return {
            "simulator": self.simulator,
            "program": self.program_name,
            "workers": self.num_workers,
            "makespan": self.makespan,
            "speedup": round(self.speedup, 2),
            "efficiency": round(self.efficiency, 3),
            "tasks": self.num_tasks,
        }
