#!/usr/bin/env python3
"""Quickstart: drive the Picos accelerator by hand.

This example plays the role of the OmpSs master thread and of the workers:
it creates a handful of tasks with data dependences (the blocked Cholesky
snippet of Figure 2 of the paper, on a 3x3 block matrix), submits them to a
:class:`~repro.core.picos.PicosAccelerator`, queues the tasks each operation
makes ready in a Task Scheduler, pulls them out of it, "executes" them and
notifies their completion -- printing what the accelerator does at every
step.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import PicosConfig
from repro.core.picos import PicosAccelerator
from repro.core.scheduler import TaskScheduler
from repro.runtime.task import Dependence, Direction, Task


def block(i: int, j: int) -> int:
    """Address of block (i, j) of a 3x3 blocked matrix."""
    return 0x4000_0000 + (i * 3 + j) * 64 * 1024


def cholesky_3x3_tasks() -> list[Task]:
    """The task graph of a 3x3 blocked Cholesky factorisation (Figure 2)."""
    tasks: list[Task] = []
    task_id = 0

    def add(label: str, deps: list[Dependence]) -> None:
        nonlocal task_id
        tasks.append(Task(task_id=task_id, dependences=deps, duration=100, label=label))
        task_id += 1

    for k in range(3):
        add(f"potrf({k})", [Dependence(block(k, k), Direction.INOUT)])
        for i in range(k + 1, 3):
            add(
                f"trsm({k},{i})",
                [
                    Dependence(block(k, k), Direction.IN),
                    Dependence(block(i, k), Direction.INOUT),
                ],
            )
        for i in range(k + 1, 3):
            add(
                f"syrk({k},{i})",
                [
                    Dependence(block(i, k), Direction.IN),
                    Dependence(block(i, i), Direction.INOUT),
                ],
            )
            for j in range(k + 1, i):
                add(
                    f"gemm({k},{i},{j})",
                    [
                        Dependence(block(i, k), Direction.IN),
                        Dependence(block(j, k), Direction.IN),
                        Dependence(block(i, j), Direction.INOUT),
                    ],
                )
    return tasks


def main() -> None:
    tasks = cholesky_3x3_tasks()
    labels = {task.task_id: task.label for task in tasks}

    accelerator = PicosAccelerator(PicosConfig())
    # The Task Scheduler (a FIFO queue): every submit and finish result
    # lists the tasks it made ready, in order, and the workers take them
    # from here.
    scheduler = TaskScheduler()
    print(f"Submitting {len(tasks)} Cholesky tasks to Picos "
          f"({accelerator.config.dm_design.display_name})\n")

    # --- task-creation time: send every task and its dependences ----------
    for task in tasks:
        result = accelerator.submit_task(task)
        for ready in result.ready:
            scheduler.push(ready.task_id)
        status = "ready immediately" if result.ready else "waiting on dependences"
        print(
            f"  submit {labels[task.task_id]:<12} "
            f"{task.num_dependences} dep(s), pipeline occupancy "
            f"{result.occupancy:3d} cycles -> {status}"
        )

    # --- execution loop: pop ready tasks, execute, notify finish ----------
    print("\nExecution order (as the Task Scheduler releases work):")
    executed = 0
    while executed < len(tasks):
        task_id = scheduler.try_pop()
        if task_id is None:
            raise RuntimeError("deadlock: no ready task but work remains")
        finish = accelerator.notify_finish(task_id)
        for ready in finish.ready:
            scheduler.push(ready.task_id)
        woken = ", ".join(labels[r.task_id] for r in finish.ready) or "-"
        print(f"  run {labels[task_id]:<12} finished; wakes: {woken}")
        executed += 1

    print("\nHardware counters after the run:")
    for key, value in sorted(accelerator.describe()["stats"].items()):
        if value:
            print(f"  {key:28s} {value}")
    assert accelerator.is_drained()
    print("\nAll tasks retired; every DM/VM/TM entry was recycled.")


if __name__ == "__main__":
    main()
