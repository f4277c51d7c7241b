#!/usr/bin/env python3
"""Bring your own application: trace it, save it, simulate it.

The Picos methodology is trace driven: any task-based application can be
expressed as a stream of task creations with dependence addresses and
directions.  This example shows the full round trip for a small pipeline-
and-reduce workload that is *not* one of the paper's benchmarks:

1. describe the application as a :class:`~repro.runtime.task.TaskProgram`
   (here: a three-stage image-processing pipeline over a set of tiles,
   followed by a tree reduction);
2. save it as a portable text trace and load it back;
3. simulate it on the Picos prototype, the Nanos++ runtime and the Perfect
   simulator (the zero-overhead Nanos++ schedule) and print a comparison.

Run with::

    python examples/custom_application.py [tiles] [workers]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.analysis.report import render_table
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Dependence, Direction, TaskProgram
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.traces.trace import TaskTrace, load_trace, save_trace

TILE_BYTES = 256 * 1024


def build_pipeline(tiles: int) -> TaskProgram:
    """A 3-stage tile pipeline (decode -> filter -> score) plus a reduction."""
    program = TaskProgram(name=f"tile-pipeline-{tiles}")
    tile_addr = lambda t: 0x1000_0000 + t * TILE_BYTES          # noqa: E731
    score_addr = lambda t: 0x3000_0000 + t * 4096               # noqa: E731
    partial_addr = lambda t: 0x5000_0000 + t * 4096             # noqa: E731

    for tile in range(tiles):
        # decode: writes the tile buffer.
        program.create_task(
            [Dependence(tile_addr(tile), Direction.OUT)],
            duration=40_000,
            label="decode",
        )
        # filter: updates the tile in place.
        program.create_task(
            [Dependence(tile_addr(tile), Direction.INOUT)],
            duration=60_000,
            label="filter",
        )
        # score: reads the tile, writes a per-tile score.
        program.create_task(
            [
                Dependence(tile_addr(tile), Direction.IN),
                Dependence(score_addr(tile), Direction.OUT),
            ],
            duration=25_000,
            label="score",
        )

    # Tree reduction over the per-tile scores.
    level = [score_addr(t) for t in range(tiles)]
    partial = 0
    while len(level) > 1:
        next_level = []
        for left, right in zip(level[0::2], level[1::2]):
            out = partial_addr(partial)
            partial += 1
            program.create_task(
                [
                    Dependence(left, Direction.IN),
                    Dependence(right, Direction.IN),
                    Dependence(out, Direction.OUT),
                ],
                duration=8_000,
                label="reduce",
            )
            next_level.append(out)
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return program


def main() -> None:
    tiles = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    program = build_pipeline(tiles)
    print(
        f"Custom application: {program.num_tasks} tasks "
        f"({tiles} tiles, 3-stage pipeline + tree reduction), "
        f"dependences per task {program.dependence_count_range}\n"
    )

    # --- trace round trip --------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "pipeline.trace"
        save_trace(TaskTrace(program), trace_path)
        restored = load_trace(trace_path).program
        print(
            f"Saved and re-loaded the trace ({trace_path.stat().st_size} bytes); "
            f"{restored.num_tasks} tasks restored.\n"
        )

    # --- simulate with the three runtimes ----------------------------------
    picos = simulate_request(
        SimulationRequest.for_program(restored, backend="hil-full", num_workers=workers)
    )
    nanos = NanosRuntimeSimulator(restored, num_threads=workers).run()
    perfect = simulate_request(
        SimulationRequest.for_program(restored, backend="perfect", num_workers=workers)
    )

    rows = [
        ["Picos full-system", picos.makespan, round(picos.speedup, 2),
         round(picos.worker_busy_fraction(), 2)],
        ["Nanos++ software-only", nanos.makespan, round(nanos.speedup, 2),
         round(nanos.worker_busy_fraction(), 2)],
        ["Perfect (zero overhead)", perfect.makespan, round(perfect.speedup, 2),
         round(perfect.worker_busy_fraction(), 2)],
    ]
    print(
        render_table(
            headers=["runtime", "makespan (cycles)", "speedup", "worker utilisation"],
            rows=rows,
            title=f"{workers}-worker execution of the custom application",
        )
    )

    print(
        "\nPer-task management latency (submission -> ready) on Picos: "
        f"mean {sum(t.management_latency for t in picos.timelines.values()) / len(picos.timelines):,.0f} cycles."
    )


if __name__ == "__main__":
    main()
