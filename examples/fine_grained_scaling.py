#!/usr/bin/env python3
"""Fine-grained task scaling: hardware vs software dependence management.

This example reproduces, on a laptop-sized problem, the headline experiment
of the paper (Figure 11): it takes one real application (blocked Cholesky),
shrinks the task granularity step by step, and compares three runtimes --

* the Picos prototype in the HIL Full-system mode,
* the Nanos++ software-only runtime,
* the Perfect simulator (the zero-overhead Nanos++ schedule) --

showing how the software runtime collapses once tasks become small while
the hardware accelerator keeps scaling.

Run with::

    python examples/fine_grained_scaling.py [problem_size] [workers]
"""

from __future__ import annotations

import sys

from repro.analysis.report import render_series
from repro.apps.registry import build_benchmark
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest


def main() -> None:
    problem_size = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    block_sizes = [128, 64, 32, 16]

    print(
        f"Blocked Cholesky, problem size {problem_size}, {workers} workers; "
        "speedup vs task granularity\n"
    )

    picos_curve, nanos_curve, perfect_curve, task_counts, task_sizes = [], [], [], [], []
    for block_size in block_sizes:
        program = build_benchmark("cholesky", block_size, problem_size=problem_size)
        task_counts.append(program.num_tasks)
        task_sizes.append(program.average_task_size)

        picos = simulate_request(
            SimulationRequest.for_program(program, backend="hil-full", num_workers=workers)
        )
        nanos = NanosRuntimeSimulator(program, num_threads=workers).run()
        perfect = simulate_request(
            SimulationRequest.for_program(program, backend="perfect", num_workers=workers)
        )

        picos_curve.append(picos.speedup)
        nanos_curve.append(nanos.speedup)
        perfect_curve.append(perfect.speedup)

        print(
            f"  block {block_size:4d}: {program.num_tasks:6d} tasks of "
            f"~{program.average_task_size:,.0f} cycles -> "
            f"Picos {picos.speedup:5.2f}x, Nanos++ {nanos.speedup:5.2f}x, "
            f"Perfect {perfect.speedup:5.2f}x"
        )

    print()
    print(
        render_series(
            title="Speedup vs block size (finer blocks = smaller tasks)",
            x_label="block size",
            x_values=block_sizes,
            series={
                "Picos full-system": picos_curve,
                "Nanos++ software-only": nanos_curve,
                "Perfect (zero overhead)": perfect_curve,
            },
        )
    )

    finest = len(block_sizes) - 1
    advantage = picos_curve[finest] / max(nanos_curve[finest], 1e-9)
    print(
        f"\nAt the finest granularity ({task_counts[finest]} tasks of "
        f"~{task_sizes[finest]:,.0f} cycles) the hardware dependence manager "
        f"is {advantage:.1f}x faster than the software-only runtime."
    )


if __name__ == "__main__":
    main()
