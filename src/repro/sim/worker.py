"""Worker cores of the Hardware-In-the-Loop platform.

Workers execute task bodies for the duration recorded in the trace.  In the
HW-only mode they live inside the programmable logic and start a ready task
immediately; in the other modes the ARM core must first retrieve the ready
task over the AXI stream, so a worker is *reserved* while its dispatch
message is in flight.  The :class:`WorkerPool` keeps track of each
worker's task and of the idle workers.
"""

from __future__ import annotations

from typing import List, Optional


class WorkerState:
    """Bookkeeping for a single worker core.

    A plain ``__slots__`` value class -- the pool touches these records on
    every reserve/start/release, so they stay ``__dict__``-free.
    ``current_task`` is the task currently assigned (reserved or
    executing), if any.
    """

    __slots__ = ("worker_id", "current_task")

    def __init__(self, worker_id: int, current_task: Optional[int] = None) -> None:
        self.worker_id = worker_id
        self.current_task = current_task

    def __repr__(self) -> str:
        return f"WorkerState(worker_id={self.worker_id}, current_task={self.current_task})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkerState):
            return NotImplemented
        return (
            self.worker_id == other.worker_id
            and self.current_task == other.current_task
        )


class WorkerPool:
    """A fixed pool of worker cores.

    Worker ids are dense (``0 .. num_workers - 1``), so the per-worker
    state lives in a list indexed by id -- the reserve/start/release
    triple runs once per simulated task, and a list index is measurably
    cheaper than the dict probe it replaced.
    """

    __slots__ = ("num_workers", "_workers", "_idle")

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("at least one worker is required")
        self.num_workers = num_workers
        self._workers: List[WorkerState] = [
            WorkerState(worker_id) for worker_id in range(num_workers)
        ]
        self._idle: List[int] = list(range(num_workers - 1, -1, -1))

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def has_idle(self) -> bool:
        """Whether at least one worker can accept a task."""
        return bool(self._idle)

    def state(self, worker_id: int) -> WorkerState:
        """Bookkeeping record of one worker."""
        return self._workers[worker_id]

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def reserve(self, task_id: int) -> int:
        """Reserve an idle worker for ``task_id`` and return its id."""
        if not self._idle:
            raise RuntimeError("no idle worker available")
        worker_id = self._idle.pop()
        self._workers[worker_id].current_task = task_id
        return worker_id

    def start_execution(self, worker_id: int, start: int, duration: int) -> int:
        """Record that a reserved worker starts executing; returns end time."""
        if self._workers[worker_id].current_task is None:
            raise RuntimeError(f"worker {worker_id} has no task assigned")
        return start + duration

    def release(self, worker_id: int) -> None:
        """Return a worker to the idle pool after its task finished."""
        state = self._workers[worker_id]
        if state.current_task is None:
            raise RuntimeError(f"worker {worker_id} was not assigned a task")
        state.current_task = None
        self._idle.append(worker_id)
