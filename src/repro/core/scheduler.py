"""Task Scheduler (TS): the ready-task queue of the Picos accelerator.

The TS is the second interface between Picos and the processing cores: it
stores ready tasks and hands them to idle workers.  The prototype uses a
FIFO queue by default; Section V-A (Figure 9, right) also evaluates a LIFO
queue as a way of changing the wake-up order of ready tasks, so both
policies are provided.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional


class SchedulingPolicy(enum.Enum):
    """Ready-queue ordering policy of the Task Scheduler."""

    FIFO = "fifo"
    LIFO = "lifo"


class TaskScheduler:
    """Ready-task queue with a configurable ordering policy."""

    def __init__(self, policy: SchedulingPolicy = SchedulingPolicy.FIFO) -> None:
        self.policy = policy
        self._queue: Deque[int] = deque()
        self._max_occupancy = 0

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def max_occupancy(self) -> int:
        """High-water mark of the ready queue."""
        return self._max_occupancy

    # ------------------------------------------------------------------
    # queue operations
    # ------------------------------------------------------------------
    def push(self, task_id: int) -> None:
        """Add a ready task to the queue."""
        queue = self._queue
        queue.append(task_id)
        if len(queue) > self._max_occupancy:
            self._max_occupancy = len(queue)

    def pop(self) -> int:
        """Return the next task to execute according to the policy."""
        if not self._queue:
            raise IndexError("the Task Scheduler has no ready task")
        if self.policy is SchedulingPolicy.FIFO:
            return self._queue.popleft()
        return self._queue.pop()

    def try_pop(self) -> Optional[int]:
        """Return the next ready task, or ``None`` if the queue is empty."""
        if not self._queue:
            return None
        return self.pop()
