"""The service bench: serving throughput and slice latency of the server.

:func:`run_service_bench` starts an in-process simulation server and times
waves of concurrent NDJSON clients (``picos-experiment bench``);
:func:`write_bench_file` records the rows as ``BENCH_service_<date>.json``.
The repository's speed is judged by a different benchmark, ``perfbench/``,
through the A/B tool ``tools/perf_ab.py`` (see ``docs/benchmarks.md``).
"""

from repro.bench.service import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_CONCURRENCY_LEVELS,
    BenchResult,
    ServiceBenchSpec,
    bench_document,
    render_results,
    run_service_bench,
    service_bench_file_name,
    write_bench_file,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_CONCURRENCY_LEVELS",
    "BenchResult",
    "ServiceBenchSpec",
    "bench_document",
    "render_results",
    "run_service_bench",
    "service_bench_file_name",
    "write_bench_file",
]
