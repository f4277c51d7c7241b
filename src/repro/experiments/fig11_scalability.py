"""Figure 11: scalability of the real benchmarks (Picos vs Perfect vs Nanos++).

The headline evaluation of the paper: the five real applications, each at
four block sizes, are executed with the Picos prototype under the HIL
Full-system mode, with the Perfect simulator and with the Nanos++
software-only runtime, for 2 to 24 workers.  The Perfect simulator is the
zero-overhead Nanos++ schedule: the Nanos++ model with every cost at zero.
It is a greedy list schedule, not a bound (Picos may finish slightly
before it); the bound is max(critical path, ceil(work / workers)).  The
observations the reproduction must preserve:

* the Picos prototype reaches (nearly) the Perfect speedup for the coarse
  and medium block sizes;
* Nanos++ saturates around 8 workers and then degrades, while the prototype
  keeps scaling;
* as the block size shrinks, Nanos++ collapses while the prototype keeps
  advancing or at least remains stable.

The full paper matrix (five benchmarks x four block sizes x seven worker
counts x three simulators, with programs of up to 140k tasks) is exactly
the kind of embarrassingly parallel sweep the shared runner exists for:
every (benchmark, block size, workers, simulator) cell is one independent
job, all of them are submitted in a single batch, and the on-disk cache
makes re-rendering the figure free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_series
from repro.analysis.speedup import ScalabilityCurve
from repro.core.config import DMDesign
from repro.experiments.runner import (
    RunnerOptions,
    SweepPoint,
    run_points,
)
from repro.sim.backend import BACKEND_HIL_FULL, BACKEND_NANOS, BACKEND_PERFECT

#: Worker counts of the x-axis.
FIG11_WORKERS: Tuple[int, ...] = (2, 4, 8, 12, 16, 20, 24)

#: The full benchmark matrix of the figure (benchmark -> block sizes).
FIG11_FULL_MATRIX: Dict[str, Tuple[int, ...]] = {
    "heat": (256, 128, 64, 32),
    "cholesky": (256, 128, 64, 32),
    "lu": (256, 128, 64, 32),
    "sparselu": (256, 128, 64, 32),
    "h264dec": (8, 4, 2, 1),
}

#: A representative subset that runs in a couple of minutes and still shows
#: every qualitative effect (used by the benchmark suite).
FIG11_QUICK_MATRIX: Dict[str, Tuple[int, ...]] = {
    "heat": (128, 64),
    "cholesky": (128, 64),
    "lu": (64, 32),
    "sparselu": (128, 64),
    "h264dec": (8, 4),
}

#: Curve label -> simulator backend of the three comparison points.
FIG11_BACKENDS: Dict[str, str] = {
    "picos": BACKEND_HIL_FULL,
    "perfect": BACKEND_PERFECT,
    "nanos": BACKEND_NANOS,
}

#: The three simulators compared in each plot.
FIG11_SIMULATORS: Tuple[str, ...] = tuple(FIG11_BACKENDS)

#: Display labels of the rendered series.
FIG11_SERIES_LABELS: Dict[str, str] = {
    "picos": "Picos full-system",
    "perfect": "Perfect simulator",
    "nanos": "Nanos++ RTS",
}


def fig11_points(
    matrix: Dict[str, Sequence[int]],
    worker_counts: Sequence[int] = FIG11_WORKERS,
    problem_size: Optional[int] = None,
    design: DMDesign = DMDesign.PEARSON8,
    simulators: Sequence[str] = FIG11_SIMULATORS,
) -> Dict[Tuple[str, int, str], SweepPoint]:
    """Declare every Figure 11 job, keyed by (benchmark, block, simulator).

    The DM design only parameterises the Picos backend; the software
    runtime and the Perfect simulator have no Picos configuration, so
    their points carry none (and therefore share cache entries across
    designs).
    """
    points: Dict[Tuple[str, int, str], SweepPoint] = {}
    for benchmark, block_sizes in matrix.items():
        for block_size in block_sizes:
            for workers in worker_counts:
                for simulator in simulators:
                    backend = FIG11_BACKENDS[simulator]
                    points[(benchmark, block_size, f"{simulator}@{workers}")] = SweepPoint(
                        experiment="fig11",
                        workload=benchmark,
                        block_size=block_size,
                        problem_size=problem_size,
                        backend=backend,
                        dm_design=design.value if backend == BACKEND_HIL_FULL else None,
                        num_workers=workers,
                    )
    return points


def run_fig11(
    matrix: Optional[Dict[str, Sequence[int]]] = None,
    worker_counts: Sequence[int] = FIG11_WORKERS,
    problem_size: Optional[int] = None,
    design: DMDesign = DMDesign.PEARSON8,
    simulators: Sequence[str] = FIG11_SIMULATORS,
    options: Optional[RunnerOptions] = None,
) -> Dict[Tuple[str, int], Dict[str, ScalabilityCurve]]:
    """Compute the Figure 11 curves for a benchmark matrix.

    ``matrix`` defaults to the quick subset; pass ``FIG11_FULL_MATRIX`` for
    the complete paper sweep.  Every cell of the matrix is submitted as one
    batch so a parallel runner saturates all cores.
    """
    matrix = matrix if matrix is not None else FIG11_QUICK_MATRIX
    points = fig11_points(matrix, worker_counts, problem_size, design, simulators)
    job_results = run_points(list(points.values()), options)

    results: Dict[Tuple[str, int], Dict[str, ScalabilityCurve]] = {}
    for (benchmark, block_size, tag), point in points.items():
        simulator = tag.split("@", 1)[0]
        curves = results.setdefault(
            (benchmark, block_size),
            {
                name: ScalabilityCurve(label=f"{benchmark}-{block_size}-{name}")
                for name in simulators
            },
        )
        curves[simulator].add(point.num_workers, job_results[point].speedup)
    return results


def run_fig11_point(
    benchmark: str,
    block_size: int,
    worker_counts: Sequence[int] = FIG11_WORKERS,
    problem_size: Optional[int] = None,
    design: DMDesign = DMDesign.PEARSON8,
    simulators: Sequence[str] = FIG11_SIMULATORS,
    options: Optional[RunnerOptions] = None,
) -> Dict[str, ScalabilityCurve]:
    """Scalability curves of one benchmark / block-size pair.

    Returns ``{"picos": curve, "perfect": curve, "nanos": curve}``.
    """
    results = run_fig11(
        matrix={benchmark: (block_size,)},
        worker_counts=worker_counts,
        problem_size=problem_size,
        design=design,
        simulators=simulators,
        options=options,
    )
    return results[(benchmark, block_size)]


def render_fig11(
    results: Dict[Tuple[str, int], Dict[str, ScalabilityCurve]]
) -> str:
    """Render the Figure 11 curves, one table per benchmark / block size."""
    sections: List[str] = []
    for (benchmark, block_size), curves in results.items():
        present = [name for name in FIG11_SERIES_LABELS if name in curves]
        worker_counts = curves[present[0]].worker_counts()
        series = {
            FIG11_SERIES_LABELS[name]: curves[name].speedups() for name in present
        }
        sections.append(
            render_series(
                title=f"Figure 11 -- {benchmark} (block size {block_size}): "
                "speedup vs workers",
                x_label="workers",
                x_values=worker_counts,
                series=series,
            )
        )
    return "\n\n".join(sections)


def qualitative_checks(
    curves: Dict[str, ScalabilityCurve]
) -> Dict[str, bool]:
    """The paper's qualitative claims for one benchmark / block-size point."""
    picos = curves["picos"]
    perfect = curves["perfect"]
    nanos = curves["nanos"]
    max_workers = max(picos.worker_counts())
    return {
        # The prototype stays within 2 % of the zero-overhead Nanos++
        # schedule, which is a greedy schedule, not a bound.
        "picos_below_roofline": all(
            picos.points[w] <= perfect.points[w] * 1.02 for w in picos.worker_counts()
        ),
        # The prototype at the largest worker count beats the software peak.
        "picos_beats_nanos_peak": picos.points[max_workers] >= nanos.peak()[1],
        # The software runtime saturates no later than the prototype.
        "nanos_saturates_earlier": nanos.peak()[0] <= picos.peak()[0],
    }


def main() -> None:
    """Run and print the quick Figure 11 subset (console entry point)."""
    print(render_fig11(run_fig11()))


if __name__ == "__main__":
    main()
