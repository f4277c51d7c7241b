"""Perfect (roofline) simulator.

Section IV-A: "Traces are also used to feed a Perfect Simulator which
measures critical-path task execution to show the roofline speedup of each
OmpSs application."  The Perfect Simulator schedules the exact dependence
graph of the program on ``num_workers`` workers with *zero* management
overhead: tasks become ready the instant their predecessors finish and start
the instant a worker is free.  Its speedup is therefore an upper bound for
both the Picos prototype and the Nanos++ runtime, and the gap between the
prototype and this roofline is what Figure 11 discusses.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.runtime.dependence_analysis import TaskGraph, task_graph
from repro.runtime.task import TaskProgram
from repro.sim.backend import BACKEND_PERFECT, register_backend
from repro.sim.results import SimulationResult, mint_timelines


class PerfectScheduler:
    """Zero-overhead list scheduler over the exact task dependence graph."""

    def __init__(self, program: TaskProgram, num_workers: int = 12) -> None:
        if num_workers < 1:
            raise ValueError("at least one worker is required")
        self.program = program
        self.num_workers = num_workers
        self.graph: TaskGraph = task_graph(program)  # shared: read-only

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Schedule the program and return the roofline result."""
        graph = self.graph
        program = self.program
        num_tasks = program.num_tasks
        successor_rows = graph.successor_rows
        durations = graph.durations
        remaining_preds = list(graph.pred_counts)
        # Stamps by row; the result's timelines are minted from them.
        ready_at = [0] * num_tasks
        started = [0] * num_tasks
        finished = [0] * num_tasks

        # Ready rows ordered by the time they became ready, then by row
        # (creation order), which keeps the schedule deterministic.
        ready: List[Tuple[int, int]] = [
            (0, row) for row in range(num_tasks) if remaining_preds[row] == 0
        ]

        # Workers ordered by the time they become free.
        workers: List[Tuple[int, int]] = [(0, w) for w in range(self.num_workers)]
        heapq.heapify(workers)

        makespan = 0
        scheduled = 0
        # Running rows ordered by completion time, so successors are
        # released in the right order even when the ready pool is empty.
        running: List[Tuple[int, int]] = []

        def release(finish: int, row: int) -> None:
            for successor in successor_rows(row):
                remaining_preds[successor] -= 1
                if remaining_preds[successor] == 0:
                    heapq.heappush(ready, (finish, successor))

        while scheduled < num_tasks:
            if ready:
                ready_time, row = heapq.heappop(ready)
                free_time, worker_id = heapq.heappop(workers)
                start = max(ready_time, free_time)
                finish = start + durations[row]
                heapq.heappush(workers, (finish, worker_id))
                heapq.heappush(running, (finish, row))
                ready_at[row] = ready_time
                started[row] = start
                finished[row] = finish
                makespan = max(makespan, finish)
                scheduled += 1
            else:
                # No task is ready: advance to the next completion and
                # release its successors.
                if not running:
                    raise RuntimeError(
                        "perfect scheduler stalled with no running task "
                        "(cyclic dependence graph?)"
                    )
                release(*heapq.heappop(running))

            # Release successors of any task that completed no later than the
            # earliest moment a new task could start; this keeps ready times
            # exact without a full event queue.
            while running and ready and running[0][0] <= ready[0][0]:
                release(*heapq.heappop(running))

        # Tasks still running are all scheduled already: releasing their
        # successors would be bookkeeping only.
        zeros = [0] * num_tasks
        return SimulationResult(
            simulator="perfect",
            program_name=program.name,
            num_workers=self.num_workers,
            makespan=makespan,
            sequential_cycles=program.sequential_cycles,
            num_tasks=num_tasks,
            timelines=mint_timelines(
                graph.task_ids, zeros, zeros, ready_at, started, finished
            ),
            counters={"critical_path": graph.critical_path_length()},
            drain_time=makespan,
        )

    # ------------------------------------------------------------------
    # analytic bounds
    # ------------------------------------------------------------------
    def critical_path(self) -> int:
        """Length of the critical path in cycles (infinite-worker makespan)."""
        return self.graph.critical_path_length()

    def roofline_speedup(self) -> float:
        """Upper bound of the speedup with infinitely many workers."""
        return self.graph.max_parallelism()


def perfect_speedup(program: TaskProgram, num_workers: int) -> float:
    """Convenience helper: the Perfect-Simulator speedup for one point."""
    return PerfectScheduler(program, num_workers).run().speedup


# ----------------------------------------------------------------------
# backend registration
# ----------------------------------------------------------------------
class PerfectBackend:
    """Simulator backend wrapping :class:`PerfectScheduler`.

    Configuration, policy and overhead parameters are rejected by the typed
    request API (the roofline scheduler has zero management overhead by
    definition).
    """

    name = BACKEND_PERFECT
    description = "Perfect scheduler (zero-overhead roofline upper bound)"
    #: The roofline scheduler has zero management overhead by definition;
    #: it accepts no request parameters beyond the worker count.
    accepts = frozenset()

    def simulate(
        self,
        program: TaskProgram,
        *,
        num_workers: int = 12,
        **kwargs: object,
    ) -> SimulationResult:
        return PerfectScheduler(program, num_workers=num_workers).run()


register_backend(PerfectBackend(), replace=True)
