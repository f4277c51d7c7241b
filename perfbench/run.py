"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs untraced iterations, then wraps every layer (see
``layers.py``) and runs traced ones; it prints the per-layer table, checks
the layer-coverage predictions and that the traced outputs equal the
untraced ones, and writes the spans under ``.perfbench-out/``.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--all``
runs every workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Cold set-ups per run, in the fresh process before the timed iterations;
#: ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Iterations measured at least, however long they take.
MIN_ITERATIONS = 2
WORKLOAD_NAMES = ("batch", "stream-hw-snapshot", "service-nanos")


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile, interpolated between the nearest samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, minimum: int = MIN_ITERATIONS, before=None, after=None) -> list:
    """Run iterations while the next one is expected to end within ``seconds``.

    ``before()`` runs ahead of each iteration and ``after(iteration)``
    behind each one that completed.
    """
    from workloads import Iteration

    iterations = []
    started = time.perf_counter()
    while len(iterations) < minimum or (time.perf_counter() - started) * (
        len(iterations) + 1
    ) / len(iterations) <= seconds:
        gc.collect()
        if before is not None:
            before()
        try:
            it = workload.iteration()
        except Exception as error:  # an operation that raised has failed
            failed = Iteration()
            failed.check(False, f"iteration raised {type(error).__name__}: {error}")
            iterations.append(failed)
            break
        iterations.append(it)
        if after is not None:
            after(it)
    return iterations


def timed_setups(workload, repeats: int) -> List[float]:
    times = []
    for repeat in range(repeats):
        if repeat:
            workload.teardown()
        gc.collect()
        start = time.process_time()
        workload.setup()
        times.append(time.process_time() - start)
    return times


def determinism_errors(iterations: list) -> List[str]:
    first = iterations[0].work
    return [
        f"iteration {index} work counts {it.work} differ from iteration 0 {first}"
        for index, it in enumerate(iterations[1:], 1)
        if it.work != first
    ]


def fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def best_of(iterations: list, kind: str) -> Dict[object, float]:
    """Each operation's best (lowest) time over the run's iterations.

    Every operation is deterministic work, and on a shared host noise only
    ever adds time: it comes in periods of seconds to minutes in which the
    same work costs 20-90 % more CPU, so an operation's best of N
    repetitions is its steadiest estimate.
    """
    best: Dict[object, float] = {}
    for it in iterations:
        for key, value in it.timings.get(kind, {}).items():
            if key not in best or value < best[key]:
                best[key] = value
    return best


def end_to_end(
    workload, seconds: float, units: Dict[str, str]
) -> Tuple[Dict[str, float], list, List[str]]:
    setups = timed_setups(workload, SETUP_REPEATS)
    iterations = measure(workload, seconds)
    checked = iterations + [workload.verify()]
    workload.teardown()
    errors = [e for it in checked for e in it.errors] + determinism_errors(iterations)
    ops = list(best_of(iterations, "op").values())
    firsts = list(best_of(iterations, "first").values())
    if not ops or not firsts:
        errors.append("no operation completed")
        return {}, checked, errors
    if workload.run_cpu_kinds:
        run_cpu_s = sum(
            sum(best_of(iterations, kind).values()) for kind in workload.run_cpu_kinds
        ) / 1e3
    else:
        run_cpu_s = min(it.run_cpu_s for it in iterations if it.timings)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_cpu_s": run_cpu_s,
        "op_p50_ms": quantile(ops, 0.5),
        "op_p90_ms": quantile(ops, 0.9),
        "first_output_ms": quantile(firsts, 0.5),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"# {workload.name}: {len(iterations)} iterations, {len(ops)} distinct "
          f"operations (best of the iterations each), {len(setups)} set-ups")
    for name, value in metrics.items():
        print(f"{name:<28} {fmt(value):>16} {units.get(name, '?')}")
    for line in named_metrics(workload.name, iterations):
        print(line)
    attempted = sum(it.attempted for it in checked)
    failed = sum(it.failed for it in checked)
    print(f"{'fail_ratio':<28} {fmt(failed / max(attempted, 1)):>16} -  "
          f"({failed} of {attempted} operations)")
    for key, value in sorted(iterations[0].work.items()):
        print(f"work.{key:<23} {fmt(value):>16} count")
    return metrics, checked, errors


def named_metrics(name: str, iterations: list) -> List[str]:
    """The workload-specific metrics, under their own names."""

    def p(kind: str, q: float = 0.5) -> float:
        return quantile(list(best_of(iterations, kind).values()), q)

    rows: List[Tuple[str, float, str]] = []
    if name == "batch":
        calls = best_of(iterations, "op")
        rows += [
            ("full_call_ms (cpu)", calls["full"], "ms"),
            ("dormant_fault_call_ms (cpu)", calls["dormant-fault"], "ms"),
            ("dormant_fault_ratio", calls["dormant-fault"] / calls["full"], "x"),
        ]
    elif name == "stream-hw-snapshot":
        rows += [
            ("slice_p50_ms (cpu)", p("op"), "ms"),
            ("slice_p90_ms (cpu)", p("op", 0.9), "ms"),
            ("slice_loop_cpu_s", p("slice_loop_ms") / 1e3, "s"),
            ("capture_ms", p("capture_ms"), "ms"),
            ("restore_ms", p("restore_ms"), "ms"),
            ("fork_ms", p("fork_ms"), "ms"),
            ("resume_first_slice_ms", p("first"), "ms"),
        ]
    elif name == "service-nanos":
        requests = iterations[0].work.get("requests", 0)
        rows += [
            ("request_p50_ms (wall)", p("op"), "ms"),
            ("request_p90_ms (wall)", p("op", 0.9), "ms"),
            ("first_event_p50_ms (wall)", p("first"), "ms"),
            ("requests_per_s", requests / (p("wave_ms") / 1e3), "1/s"),
        ]
    return [f"{label:<28} {fmt(value):>16} {unit}" for label, value, unit in rows]


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------
def traced(workload, seconds: float, seed: int) -> Tuple[Dict[str, float], list, List[str]]:
    import layers
    from tracer import Tracer

    # Untraced baseline: the overhead base and the reference outputs.
    workload.setup()
    baseline = measure(workload, seconds / 2, minimum=1)
    verified = workload.verify()
    workload.teardown()

    tracer = Tracer()
    layers.install(tracer)
    workload.tracer = tracer
    rows: List[Dict[str, float]] = []

    def tabulate(it) -> None:
        rows.append(layers.per_layer_metrics(tracer, it.work, it.run_cpu_s, workload.uses_server))

    try:
        workload.setup()
        build_s = tracer.get("apps", "build_benchmark").total_ns / 1e9
        iterations = measure(workload, seconds / 2, 1, before=tracer.reset, after=tabulate)
        workload.teardown()
    finally:
        tracer.uninstall()
        workload.tracer = None
    index = tracer.write(OUT_DIR, f"{workload.name}-seed{seed}")

    errors = [e for it in baseline + iterations + [verified] for e in it.errors]
    errors += determinism_errors(baseline + iterations)
    if not rows:
        return {}, baseline + iterations + [verified], errors
    metrics: Dict[str, float] = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name in layers.COUNT_METRICS:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced iterations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["apps.build_s"] = build_s
    base_cpu = statistics.median(it.run_cpu_s for it in baseline)
    traced_cpu = statistics.median(it.run_cpu_s for it in iterations)
    metrics["trace.overhead_ratio"] = traced_cpu / base_cpu if base_cpu else 0.0
    coverage = layers.coverage_errors(workload.name, metrics)
    errors += coverage

    print(f"# {workload.name}: {len(baseline)} untraced + {len(iterations)} traced "
          f"iterations; spans in {index.relative_to(ROOT)}")
    print(f"{'metric':<28} {'value':>16}  {'should move':<46} {'predicted 0 on'}")
    for name, value in metrics.items():
        moves, zero_on = layers.prediction_for(name)
        marker = "  <-- not 0" if workload.name in zero_on and value else ""
        print(f"{name:<28} {fmt(value):>16}  {moves:<46} {', '.join(zero_on) or '-'}{marker}")
    print(f"coverage check: {'ok' if not coverage else 'FAILED'}")
    print(f"traced outputs equal untraced: {'yes' if not determinism_errors(baseline + iterations) else 'NO'}")
    return metrics, baseline + iterations + [verified], errors


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_workload

    units = declared_units(trace)
    workload = make_workload(name, seed)
    try:
        if trace:
            metrics, iterations, errors = traced(workload, seconds, seed)
        else:
            metrics, iterations, errors = end_to_end(workload, seconds, units)
    except Exception as error:  # a set-up that raised fails the run
        metrics, iterations, errors = {}, [], [f"{type(error).__name__}: {error}"]
    finally:
        workload.close()
    if metrics and set(metrics) != set(units):
        errors.append(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both measured "
            "and declared in BENCHMARK.json"
        )
        metrics = {key: value for key, value in metrics.items() if key in units}
    for error in errors:
        print(f"ERROR: {error}")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    print(
        json.dumps(
            {
                "correct": not errors and failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    if args.all:
        status = 0
        for name in WORKLOAD_NAMES:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            status = max(status, subprocess.run(command, check=False).returncode)
        return status
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
