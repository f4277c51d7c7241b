"""Blocked sparse LU factorisation (the paper's ``SparseLu`` benchmark).

The OmpSs SparseLU benchmark factorises a blocked matrix in which only some
blocks are allocated; the sparsity pattern is generated deterministically
(the classic BSC/BOTS ``genmat`` pattern) and fill-in blocks are allocated
on demand when an update touches a previously-null block.  Per step ``k``
four kernels are created, each only for non-null operand blocks:

* ``lu0(k)``: ``inout A(k, k)`` -- 1 dependence;
* ``fwd(k, j)``: ``in A(k, k)``, ``inout A(k, j)`` -- 2;
* ``bdiv(k, i)``: ``in A(k, k)``, ``inout A(i, k)`` -- 2;
* ``bmod(k, i, j)``: ``in A(i, k)``, ``in A(k, j)``, ``inout A(i, j)`` -- 3
  (allocating ``A(i, j)`` as fill-in when it was null).

The 1-3 dependences per task match Table I.  Because the sparsity pattern
here is a faithful re-implementation rather than the exact binary the
authors traced, task counts are close to but not identical with Table I;
the actual counts are recorded by the Table I experiment driver.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.apps.common import BlockAddressMap, validate_blocking
from repro.runtime.task import DependencePool, TaskProgram

#: Relative work units of the sparse kernels.
_LU0_WORK = 2
_FWD_WORK = 3
_BDIV_WORK = 3
_BMOD_WORK = 6


def initial_structure(nb: int) -> Set[Tuple[int, int]]:
    """Non-null blocks of the initial sparse matrix.

    The pattern follows the spirit of the BSC ``genmat`` generators: a full
    block diagonal, the first off-diagonals, and a sparse lattice of blocks
    selected by small modular conditions on the block coordinates.  The
    constants are calibrated so that, with fill-in, the task counts track
    the Table I values of the paper's SparseLu traces (they match within a
    few percent for the two finest block sizes, which dominate the
    evaluation; the coarse block sizes create so few tasks that the absolute
    discrepancy is a handful of tasks).
    """
    non_null: Set[Tuple[int, int]] = set()
    for ii in range(nb):
        for jj in range(nb):
            if ii == jj or ii == jj - 1 or ii - 1 == jj:
                non_null.add((ii, jj))
            elif ii % 3 == 0 and jj % 3 == 0 and (ii + jj) % 2 == 0:
                non_null.add((ii, jj))
    return non_null


def sparselu_program(
    problem_size: int = 2048,
    block_size: int = 256,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build the blocked sparse LU task program."""
    nb = validate_blocking(problem_size, block_size)
    matrix = BlockAddressMap(nb, block_size, base_address or BlockAddressMap(nb, block_size).base)
    program = TaskProgram(name=f"sparselu-{problem_size}-{block_size}")
    non_null = initial_structure(nb)
    block = matrix.address
    pool = DependencePool()

    for k in range(nb):
        diagonal = block(k, k)
        program.create_task([pool.inout(diagonal)], duration=_LU0_WORK, label="lu0")
        reads_diagonal = pool.input(diagonal)
        for j in range(k + 1, nb):
            if (k, j) in non_null:
                program.create_task(
                    [reads_diagonal, pool.inout(block(k, j))],
                    duration=_FWD_WORK,
                    label="fwd",
                )
        for i in range(k + 1, nb):
            if (i, k) in non_null:
                program.create_task(
                    [reads_diagonal, pool.inout(block(i, k))],
                    duration=_BDIV_WORK,
                    label="bdiv",
                )
        for i in range(k + 1, nb):
            if (i, k) not in non_null:
                continue
            reads_ik = pool.input(block(i, k))
            for j in range(k + 1, nb):
                if (k, j) not in non_null:
                    continue
                # The update allocates A(i, j) as fill-in when it was null.
                non_null.add((i, j))
                program.create_task(
                    [reads_ik, pool.input(block(k, j)), pool.inout(block(i, j))],
                    duration=_BMOD_WORK,
                    label="bmod",
                )
    return program


def density(nb: int) -> float:
    """Initial fraction of non-null blocks (diagnostic helper)."""
    return len(initial_structure(nb)) / float(nb * nb)
