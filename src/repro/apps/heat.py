"""Gauss-Seidel heat diffusion (blocked, one sweep).

The OmpSs Heat benchmark (BSC Application Repository) performs an iterative
Gauss-Seidel relaxation over a 2-D grid decomposed in square blocks.  One
sweep creates one task per block; because Gauss-Seidel updates in place, the
task for block ``(i, j)`` reads the already-updated left and upper
neighbours of the *current* sweep and the not-yet-updated right and lower
neighbours of the *previous* sweep, and updates its own block:

* ``inout`` on block ``(i, j)``;
* ``in`` on blocks ``(i-1, j)``, ``(i, j-1)``, ``(i+1, j)``, ``(i, j+1)``
  (those that exist).

Interior tasks therefore carry 5 dependences (the Table I ``#Dep`` value);
boundary tasks carry fewer.  The resulting dependence graph is the classic
wavefront: parallelism grows along anti-diagonals, which is why Heat is the
benchmark most sensitive to how fast the dependence manager can uncover
work (Figure 8 and Figure 11a).
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.common import BlockAddressMap, validate_blocking
from repro.runtime.task import Dependence, DependencePool, TaskProgram


def heat_program(
    problem_size: int = 2048,
    block_size: int = 256,
    sweeps: int = 1,
    base_address: Optional[int] = None,
) -> TaskProgram:
    """Build one (or more) blocked Gauss-Seidel sweeps.

    Parameters
    ----------
    problem_size:
        Grid side length in elements (the paper uses 2048).
    block_size:
        Block side length in elements (256 down to 32 in the paper).
    sweeps:
        Number of Gauss-Seidel sweeps; the paper's traces contain one.
    base_address:
        Override of the grid base address (defaults to the shared map base).
    """
    nb = validate_blocking(problem_size, block_size)
    grid = BlockAddressMap(nb, block_size, base_address or BlockAddressMap(nb, block_size).base)
    program = TaskProgram(name=f"heat-{problem_size}-{block_size}")
    pool = DependencePool()

    for _ in range(sweeps):
        for i in range(nb):
            for j in range(nb):
                deps: List[Dependence] = [pool.inout(grid.address(i, j))]
                for ni, nj in ((i - 1, j), (i, j - 1), (i + 1, j), (i, j + 1)):
                    if 0 <= ni < nb and 0 <= nj < nb:
                        deps.append(pool.input(grid.address(ni, nj)))
                # The relaxation work per block is proportional to the block
                # area; all blocks are the same size, so all tasks weigh the
                # same in relative units.
                program.create_task(deps, duration=4, label="gauss_seidel_block")
    return program


def heat_task_count(problem_size: int, block_size: int, sweeps: int = 1) -> int:
    """Number of tasks a Heat sweep creates (the Table I ``#Tasks`` column)."""
    nb = validate_blocking(problem_size, block_size)
    return nb * nb * sweeps
