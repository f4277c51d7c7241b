"""Benchmark registry and Table I calibration data.

This module ties the application generators to the exact configurations of
the paper: for every benchmark and block size of Table I it records the
reference task count, dependence range, average task size and sequential
execution time, and it knows how to build the corresponding task program
with durations scaled so the average task size matches the reference.

The registry is the single entry point used by the experiment drivers: give
it a benchmark name and a block size and it returns a ready-to-simulate
:class:`~repro.runtime.task.TaskProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.common import scale_durations_to_mean
from repro.apps.cholesky import cholesky_program
from repro.apps.h264dec import h264dec_program
from repro.apps.heat import heat_program
from repro.apps.lu import lu_program, modified_lu_program
from repro.apps.sparselu import sparselu_program
from repro.runtime.task import TaskProgram


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I (one benchmark at one block size)."""

    benchmark: str
    problem_size: str
    block_size: int
    num_tasks: int
    dep_range: Tuple[int, int]
    average_task_size: float
    sequential_cycles: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark known to the registry."""

    name: str
    #: Human-readable problem-size label of Table I ("2048", "10f").
    problem_label: str
    #: Block sizes evaluated in the paper, coarse to fine.
    block_sizes: Tuple[int, ...]
    #: Generator building the program for ``(block_size)``.
    builder: Callable[[int], TaskProgram]
    #: Table I reference data keyed by block size.
    table1: Dict[int, Table1Row]


def _rows(
    benchmark: str,
    problem: str,
    data: List[Tuple[int, int, Tuple[int, int], float, float]],
) -> Dict[int, Table1Row]:
    rows: Dict[int, Table1Row] = {}
    for block_size, tasks, dep_range, avg_size, seq in data:
        rows[block_size] = Table1Row(
            benchmark=benchmark,
            problem_size=problem,
            block_size=block_size,
            num_tasks=tasks,
            dep_range=dep_range,
            average_task_size=avg_size,
            sequential_cycles=seq,
        )
    return rows


#: Table I of the paper, transcribed verbatim.
TABLE1: Dict[str, Dict[int, Table1Row]] = {
    "heat": _rows(
        "heat",
        "2048",
        [
            (256, 64, (1, 5), 3.51e6, 2.25e8),
            (128, 256, (1, 5), 8.20e5, 2.07e8),
            (64, 1024, (1, 5), 2.17e5, 2.11e8),
            (32, 4096, (1, 5), 7.19e4, 2.41e8),
        ],
    ),
    "lu": _rows(
        "lu",
        "2048",
        [
            (256, 36, (1, 2), 5.67e7, 2.04e9),
            (128, 136, (1, 2), 1.49e7, 2.04e9),
            (64, 528, (1, 2), 4.13e6, 2.17e9),
            (32, 2080, (1, 2), 1.53e6, 3.18e9),
        ],
    ),
    "sparselu": _rows(
        "sparselu",
        "2048",
        [
            (256, 34, (1, 3), 2.74e7, 9.30e8),
            (128, 212, (1, 3), 4.36e6, 9.24e8),
            (64, 1512, (1, 3), 6.47e5, 9.78e8),
            (32, 11472, (1, 3), 8.28e4, 9.50e8),
        ],
    ),
    "cholesky": _rows(
        "cholesky",
        "2048",
        [
            (256, 120, (1, 3), 6.63e6, 7.61e8),
            (128, 816, (1, 3), 9.71e5, 7.89e8),
            (64, 5984, (1, 3), 1.47e5, 8.77e8),
            (32, 45760, (1, 3), 2.94e4, 1.34e9),
        ],
    ),
    "h264dec": _rows(
        "h264dec",
        "10f",
        [
            (8, 2659, (2, 6), 2.06e6, 5.48e9),
            (4, 9306, (2, 6), 5.91e5, 5.50e9),
            (2, 35894, (2, 6), 1.53e5, 5.48e9),
            (1, 139934, (2, 6), 3.94e4, 5.51e9),
        ],
    ),
}

#: Default problem size (elements) used for the dense/sparse kernels.
DEFAULT_PROBLEM_SIZE = 2048
#: Default frame count for H264dec.
DEFAULT_FRAMES = 10


def _heat_builder(block_size: int, problem_size: int = DEFAULT_PROBLEM_SIZE) -> TaskProgram:
    return heat_program(problem_size, block_size)


def _lu_builder(block_size: int, problem_size: int = DEFAULT_PROBLEM_SIZE) -> TaskProgram:
    return lu_program(problem_size, block_size)


def _mlu_builder(block_size: int, problem_size: int = DEFAULT_PROBLEM_SIZE) -> TaskProgram:
    return modified_lu_program(problem_size, block_size)


def _sparselu_builder(block_size: int, problem_size: int = DEFAULT_PROBLEM_SIZE) -> TaskProgram:
    return sparselu_program(problem_size, block_size)


def _cholesky_builder(block_size: int, problem_size: int = DEFAULT_PROBLEM_SIZE) -> TaskProgram:
    return cholesky_program(problem_size, block_size)


def _h264dec_builder(block_size: int, frames: int = DEFAULT_FRAMES) -> TaskProgram:
    return h264dec_program(frames=frames, block_size=block_size)


PAPER_BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "heat": BenchmarkSpec(
        name="heat",
        problem_label="2048",
        block_sizes=(256, 128, 64, 32),
        builder=_heat_builder,
        table1=TABLE1["heat"],
    ),
    "lu": BenchmarkSpec(
        name="lu",
        problem_label="2048",
        block_sizes=(256, 128, 64, 32),
        builder=_lu_builder,
        table1=TABLE1["lu"],
    ),
    "mlu": BenchmarkSpec(
        name="mlu",
        problem_label="2048",
        block_sizes=(256, 128, 64, 32),
        builder=_mlu_builder,
        table1=TABLE1["lu"],
    ),
    "sparselu": BenchmarkSpec(
        name="sparselu",
        problem_label="2048",
        block_sizes=(256, 128, 64, 32),
        builder=_sparselu_builder,
        table1=TABLE1["sparselu"],
    ),
    "cholesky": BenchmarkSpec(
        name="cholesky",
        problem_label="2048",
        block_sizes=(256, 128, 64, 32),
        builder=_cholesky_builder,
        table1=TABLE1["cholesky"],
    ),
    "h264dec": BenchmarkSpec(
        name="h264dec",
        problem_label="10f",
        block_sizes=(8, 4, 2, 1),
        builder=_h264dec_builder,
        table1=TABLE1["h264dec"],
    ),
}


def benchmark_names() -> Tuple[str, ...]:
    """Names of the benchmarks evaluated in the paper (plus ``mlu``)."""
    return tuple(PAPER_BENCHMARKS)


def table1_reference(benchmark: str, block_size: int) -> Table1Row:
    """The Table I row for one benchmark / block-size pair."""
    spec = _spec(benchmark)
    if block_size not in spec.table1:
        raise KeyError(
            f"block size {block_size} of {benchmark!r} is not part of Table I; "
            f"available: {sorted(spec.table1)}"
        )
    return spec.table1[block_size]


def build_benchmark(
    benchmark: str,
    block_size: int,
    problem_size: Optional[int] = None,
    scale_to_table1: bool = True,
) -> TaskProgram:
    """Build the task program for one benchmark at one block size.

    Parameters
    ----------
    benchmark:
        One of :func:`benchmark_names`.
    block_size:
        Block size (or H264dec granularity) to generate.
    problem_size:
        Override of the problem size (matrix dimension, or frame count for
        H264dec).  The paper's value is used when omitted; smaller values
        give proportionally smaller programs with the same dependence
        structure, which the experiment drivers use to keep run times short.
    scale_to_table1:
        When ``True`` (default) task durations are scaled so the mean task
        size matches (or extrapolates) the Table I ``AveTSize`` column.
    """
    spec = _spec(benchmark)
    if benchmark == "h264dec":
        frames = problem_size if problem_size is not None else DEFAULT_FRAMES
        program = spec.builder(block_size, frames)  # type: ignore[call-arg]
    else:
        size = problem_size if problem_size is not None else DEFAULT_PROBLEM_SIZE
        program = spec.builder(block_size, size)  # type: ignore[call-arg]
    if scale_to_table1:
        scale_durations_to_mean(program, reference_task_size(benchmark, block_size))
    return program


def reference_task_size(benchmark: str, block_size: int) -> float:
    """Average task size (cycles) for a benchmark at one block size.

    Uses the Table I value when the block size was measured by the paper and
    extrapolates with the natural work law of the kernel otherwise (cubic in
    the block size for the dense/sparse factorisations, quadratic for the
    stencil and the decoder regions).
    """
    spec = _spec(benchmark)
    if block_size in spec.table1:
        return spec.table1[block_size].average_task_size
    # Anchor the extrapolation on the closest measured block size so small
    # extrapolation steps stay consistent with the measured trend.
    reference_bs = min(spec.table1, key=lambda bs: abs(bs - block_size))
    reference = spec.table1[reference_bs]
    exponent = 2.0 if benchmark in ("heat", "h264dec") else 3.0
    ratio = (block_size / reference_bs) ** exponent
    return max(1.0, reference.average_task_size * ratio)


def _spec(benchmark: str) -> BenchmarkSpec:
    if benchmark not in PAPER_BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; choose from {benchmark_names()}"
        )
    return PAPER_BENCHMARKS[benchmark]
