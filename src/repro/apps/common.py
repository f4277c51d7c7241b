"""Shared helpers for the application task-graph generators.

All generators address matrix blocks through :class:`BlockAddressMap`,
which mimics the memory layout of the real OmpSs benchmarks: block ``(i,
j)`` of a blocked matrix lives at ``base + (i * nb + j) * block_bytes``.
Because block sizes are powers of two times the element size, the resulting
addresses are strongly aligned -- exactly the clustering that makes the
direct-hash DM designs conflict (Section III-C and Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.task import TaskProgram

#: Size in bytes of one matrix element (double precision).
ELEMENT_BYTES = 8
#: Default base address of the first matrix of a benchmark.
DEFAULT_BASE_ADDRESS = 0x4000_0000


@dataclass(frozen=True)
class BlockAddressMap:
    """Address map of one blocked matrix."""

    #: Number of blocks per matrix dimension.
    num_blocks: int
    #: Block side length in elements.
    block_size: int
    #: Base address of the matrix.
    base: int = DEFAULT_BASE_ADDRESS

    @property
    def block_bytes(self) -> int:
        """Bytes occupied by one block."""
        return self.block_size * self.block_size * ELEMENT_BYTES

    def address(self, i: int, j: int) -> int:
        """Address of block ``(i, j)``."""
        if not (0 <= i < self.num_blocks and 0 <= j < self.num_blocks):
            raise IndexError(
                f"block ({i}, {j}) outside a {self.num_blocks}x{self.num_blocks} grid"
            )
        return self.base + (i * self.num_blocks + j) * self.block_bytes

    def next_matrix_base(self) -> int:
        """Base address for a second matrix laid out after this one."""
        total = self.num_blocks * self.num_blocks * self.block_bytes
        return self.base + _round_up(total, 1 << 20)


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def validate_blocking(problem_size: int, block_size: int) -> int:
    """Check a problem/block size pair and return the number of blocks."""
    if problem_size <= 0 or block_size <= 0:
        raise ValueError("problem and block sizes must be positive")
    if problem_size % block_size != 0:
        raise ValueError(
            f"problem size {problem_size} is not a multiple of block size "
            f"{block_size}"
        )
    num_blocks = problem_size // block_size
    if num_blocks < 1:
        raise ValueError("the problem must contain at least one block")
    return num_blocks


def scale_durations_to_mean(program: TaskProgram, target_mean: float) -> TaskProgram:
    """Scale every task duration so the program mean matches ``target_mean``.

    Generators emit durations in *relative work units* (roughly proportional
    to the floating-point work of each kernel); this helper rescales them to
    the average task size reported in Table I so sequential execution times
    and management/computation ratios match the paper's traces.
    """
    if target_mean <= 0:
        raise ValueError("target mean duration must be positive")
    current_mean = program.average_task_size
    if current_mean <= 0:
        return program
    factor = target_mean / current_mean
    for task in program:
        task.duration = max(1, int(round(task.duration * factor)))
    program._graph = None  # a memoized dependence graph holds the old durations
    return program
