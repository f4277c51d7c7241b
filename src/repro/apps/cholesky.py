"""Blocked Cholesky factorisation.

The OmpSs Cholesky benchmark (Figure 2 of the paper) factorises an ``n x
n`` symmetric positive-definite matrix into ``A = L * L'`` using the
standard right-looking blocked algorithm with four kernels per step ``k``:

* ``potrf(k)``: ``inout A(k, k)`` -- 1 dependence;
* ``trsm(k, i)`` for ``i > k``: ``in A(k, k)``, ``inout A(i, k)`` -- 2;
* ``syrk(k, i)`` for ``i > k``: ``in A(i, k)``, ``inout A(i, i)`` -- 2;
* ``gemm(k, i, j)`` for ``k < j < i``: ``in A(i, k)``, ``in A(j, k)``,
  ``inout A(i, j)`` -- 3.

For a 2048-element matrix the task counts match Table I exactly: 120, 816,
5984 and 45760 tasks for block sizes 256, 128, 64 and 32, with 1-3
dependences per task.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.common import BlockAddressMap, validate_blocking
from repro.runtime.task import DependencePool, TaskProgram

#: Relative work units of the block kernels (proportional to their flops:
#: potrf ~ b^3/3, trsm ~ b^3, syrk ~ b^3, gemm ~ 2 b^3).
_POTRF_WORK = 1
_TRSM_WORK = 3
_SYRK_WORK = 3
_GEMM_WORK = 6


def cholesky_program(
    problem_size: int = 2048,
    block_size: int = 256,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build the blocked Cholesky task program."""
    nb = validate_blocking(problem_size, block_size)
    matrix = BlockAddressMap(nb, block_size, base_address or BlockAddressMap(nb, block_size).base)
    program = TaskProgram(name=f"cholesky-{problem_size}-{block_size}")
    block = matrix.address
    pool = DependencePool()

    for k in range(nb):
        diagonal = block(k, k)
        program.create_task([pool.inout(diagonal)], duration=_POTRF_WORK, label="potrf")
        reads_diagonal = pool.input(diagonal)
        # A(r, k) for every row r: step k's panel column.
        column = [block(r, k) for r in range(nb)]
        for i in range(k + 1, nb):
            program.create_task(
                [reads_diagonal, pool.inout(column[i])],
                duration=_TRSM_WORK,
                label="trsm",
            )
        for i in range(k + 1, nb):
            reads_ik = pool.input(column[i])
            program.create_task(
                [reads_ik, pool.inout(block(i, i))],
                duration=_SYRK_WORK,
                label="syrk",
            )
            for j in range(k + 1, i):
                program.create_task(
                    [reads_ik, pool.input(column[j]), pool.inout(block(i, j))],
                    duration=_GEMM_WORK,
                    label="gemm",
                )
    return program


def cholesky_task_count(problem_size: int, block_size: int) -> int:
    """Number of tasks the blocked Cholesky creates (Table I ``#Tasks``)."""
    nb = validate_blocking(problem_size, block_size)
    potrf = nb
    trsm = nb * (nb - 1) // 2
    syrk = nb * (nb - 1) // 2
    gemm = sum((nb - 1 - k) * (nb - 2 - k) // 2 for k in range(nb))
    return potrf + trsm + syrk + gemm
