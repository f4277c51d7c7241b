"""Blocked LU factorisation (the paper's ``Lu`` benchmark).

The OmpSs ``lu`` kernel of the BSC Application Repository used by the paper
decomposes an ``m x n`` matrix in square blocks and, per factorisation step
``k``, runs one diagonal task followed by one panel task per remaining
column of the step's row.  Table I pins the structure down precisely: for a
``2048`` problem the task count is ``nb * (nb + 1) / 2`` (36, 136, 528 and
2080 tasks for block sizes 256, 128, 64 and 32) with 2 dependences per task.
The generator reproduces exactly that structure:

* diagonal task ``D_k``: ``inout A(k, k)`` plus, for ``k > 0``, ``in
  A(k-1, k)`` (the panel block the previous step produced on its column);
* panel task ``P_{k, j}`` (``j > k``): ``in A(k, k)`` and ``inout A(k, j)``.

The critical path is ``D_0 -> P_{0,1} -> D_1 -> P_{1,2} -> ...``: after each
diagonal task the panel tasks of the step are independent of each other, but
only the *first* panel task (``j = k + 1``) feeds the next diagonal.

This makes Lu the corner case discussed in Section V-A: Picos wakes the
consumers of ``A(k, k)`` starting from the *last* one, so with the default
creation order (``j`` increasing) the critical panel task is woken last and
the critical path is delayed.  :func:`modified_lu_program` reproduces the
paper's *MLu* fix by creating the panel tasks in reverse column order, which
places the critical consumer last in creation order and therefore first in
wake-up order (Figure 9, left); using a LIFO Task Scheduler has a similar
effect (Figure 9, right).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.apps.common import BlockAddressMap, validate_blocking
from repro.runtime.task import Dependence, DependencePool, TaskProgram

#: Relative work units of the diagonal (getrf-like) task.
_DIAG_WORK = 2
#: Relative work units of a panel (trsm-like) task.
_PANEL_WORK = 3


def _build(
    problem_size: int,
    block_size: int,
    panel_order_reversed: bool,
    name: str,
    base_address: Optional[int],
) -> TaskProgram:
    nb = validate_blocking(problem_size, block_size)
    matrix = BlockAddressMap(nb, block_size, base_address or BlockAddressMap(nb, block_size).base)
    program = TaskProgram(name=f"{name}-{problem_size}-{block_size}")
    block = matrix.address
    pool = DependencePool()

    for k in range(nb):
        diagonal = block(k, k)
        deps: List[Dependence] = [pool.inout(diagonal)]
        if k > 0:
            deps.append(pool.input(block(k - 1, k)))
        program.create_task(deps, duration=_DIAG_WORK, label="lu_diag")

        reads_diagonal = pool.input(diagonal)
        columns: Iterable[int] = range(k + 1, nb)
        if panel_order_reversed:
            columns = reversed(range(k + 1, nb))
        for j in columns:
            program.create_task(
                [reads_diagonal, pool.inout(block(k, j))],
                duration=_PANEL_WORK,
                label="lu_panel",
            )
    return program


def lu_program(
    problem_size: int = 2048,
    block_size: int = 256,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build the Lu benchmark with the original creation order."""
    return _build(problem_size, block_size, False, "lu", base_address)


def modified_lu_program(
    problem_size: int = 2048,
    block_size: int = 256,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build the *MLu* variant of Figure 9 (reversed panel creation order)."""
    return _build(problem_size, block_size, True, "mlu", base_address)


def lu_task_count(problem_size: int, block_size: int) -> int:
    """Number of tasks of the Lu benchmark (``nb * (nb + 1) / 2``)."""
    nb = validate_blocking(problem_size, block_size)
    return nb * (nb + 1) // 2
