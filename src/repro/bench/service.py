"""The service bench behind ``picos-experiment bench``.

It times the *server around the simulators*: an in-process
:class:`~repro.service.server.SimulationServer` is started on a loopback
TCP port and a wave of concurrent NDJSON clients drives identical requests
through the full open/run/stream/result protocol.  Each concurrency level
becomes one :class:`BenchResult` row whose ``extras`` carry the
service-specific numbers:

``requests``
    Requests completed in the timed wave (= the concurrency level).
``requests_per_second``
    Wave size / wall seconds -- the end-to-end serving throughput.
``median_slice_ms`` / ``p99_slice_ms``
    Cooperative-slice latency quantiles from the server's own histogram:
    how long one session occupies the event loop per slice, the number
    that decides streaming responsiveness under load.

The rows are written to ``BENCH_service_<date>.json``.  They inform and
never gate: speed claims and the CI gate come from the repository
benchmark, ``perfbench/``, through ``tools/perf_ab.py`` (see
``docs/benchmarks.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import platform
import sys
import time
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Bumped whenever the ``BENCH_service_*.json`` document layout changes.
BENCH_SCHEMA_VERSION = 1

#: Concurrency levels of the default service matrix.
DEFAULT_CONCURRENCY_LEVELS: Tuple[int, ...] = (1, 16, 64)


@dataclass(frozen=True)
class ServiceBenchSpec:
    """One service timing matrix: a request crossed with concurrency levels."""

    workload: str = "cholesky"
    block_size: Optional[int] = 128
    problem_size: Optional[int] = 1024
    backend: str = "hil-full"
    num_workers: int = 2
    #: Simultaneous client sessions per timed wave.
    concurrency_levels: Tuple[int, ...] = DEFAULT_CONCURRENCY_LEVELS
    #: Cycle budget per cooperative slice (small enough that every run
    #: takes several slices, so the latency histogram has data).
    slice_cycles: int = 250_000

    def request_document(self) -> dict:
        document = {
            "workload": self.workload,
            "backend": self.backend,
            "workers": self.num_workers,
            "stream": {"slice_cycles": self.slice_cycles},
        }
        if self.block_size is not None:
            document["block_size"] = self.block_size
        if self.problem_size is not None:
            document["problem_size"] = self.problem_size
        return document


@dataclass(frozen=True)
class BenchResult:
    """One timed wave of the service bench (JSON round-trippable)."""

    workload: str
    block_size: Optional[int]
    problem_size: Optional[int]
    backend: str
    #: The wave's concurrency level (simultaneous client sessions).
    num_workers: int
    #: Wall-clock seconds of the whole wave.
    wall_seconds: float
    #: Lifecycle events streamed to the clients during the wave.
    events_processed: int
    #: ``events_processed / wall_seconds``.
    events_per_second: float
    #: Simulated tasks retired per wall-clock second.
    tasks_per_second: float
    #: Always false here; kept so the document layout stays unchanged.
    events_estimated: bool
    makespan: int
    num_tasks: int
    #: Process-wide peak RSS (KiB) observed after the wave.
    peak_rss_kb: int
    repeats: int = 1
    #: The service numbers: requests/s and slice-latency quantiles.
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def label(self) -> str:
        """Human-readable cell name used by reports."""
        block = f"/{self.block_size}" if self.block_size is not None else ""
        size = f"@{self.problem_size}" if self.problem_size is not None else ""
        return f"{self.workload}{block}{size} {self.backend} w{self.num_workers}"


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (0 where the resource module is missing)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise to KiB.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(usage // 1024)
    return int(usage)


async def _drive_one(host: str, port: int, document: dict) -> Tuple[int, int, int]:
    """One client: open/run/consume; returns (events, makespan, tasks)."""
    from repro.service.protocol import decode_frame, encode_frame
    from repro.service.server import _READ_LIMIT

    # The server's own line limit: a result frame can outgrow asyncio's
    # 64 KiB default (cholesky/64 on nanos sends about 341 kB).
    reader, writer = await asyncio.open_connection(host, port, limit=_READ_LIMIT)
    try:
        await reader.readline()  # hello
        writer.write(encode_frame({"type": "open", "request": document}))
        await writer.drain()
        accepted = decode_frame(await reader.readline())
        if accepted["type"] != "accepted":
            raise RuntimeError(f"bench request rejected: {accepted}")
        writer.write(encode_frame({"type": "run", "id": accepted["id"]}))
        await writer.drain()
        events = 0
        while True:
            frame = decode_frame(await reader.readline())
            if frame["type"] == "events":
                events += len(frame["events"])
            elif frame["type"] == "result":
                result = frame["result"]
                return events, int(result["makespan"]), int(result["num_tasks"])
            else:
                raise RuntimeError(f"unexpected frame during bench: {frame}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def _run_wave(spec: ServiceBenchSpec, concurrency: int) -> BenchResult:
    """Start a fresh server, run one wave of ``concurrency`` clients."""
    from repro.service import ServerConfig, SimulationServer

    server = SimulationServer(
        ServerConfig(port=0, http_port=None, cache_dir=None)
    )
    await server.start()
    document = spec.request_document()
    try:
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                _drive_one("127.0.0.1", server.tcp_port, document)
                for _ in range(concurrency)
            )
        )
        wall = time.perf_counter() - start
        histogram = server.metrics.slice_latency
        median_ms = histogram.quantile(0.5)
        p99_ms = histogram.quantile(0.99)
    finally:
        await server.shutdown(drain=False)
    events = sum(entry[0] for entry in outcomes)
    makespan = outcomes[0][1]
    tasks_per_request = outcomes[0][2]
    tasks = sum(entry[2] for entry in outcomes)
    return BenchResult(
        workload="service-tcp",
        block_size=spec.block_size,
        problem_size=spec.problem_size,
        backend=spec.backend,
        num_workers=concurrency,
        wall_seconds=wall,
        events_processed=events,
        events_per_second=(events / wall) if wall > 0 else 0.0,
        tasks_per_second=(tasks / wall) if wall > 0 else 0.0,
        events_estimated=False,
        makespan=makespan,
        num_tasks=tasks_per_request,
        peak_rss_kb=_peak_rss_kb(),
        extras={
            "requests": float(concurrency),
            "requests_per_second": (concurrency / wall) if wall > 0 else 0.0,
            "median_slice_ms": float(median_ms) if median_ms is not None else 0.0,
            "p99_slice_ms": float(p99_ms) if p99_ms is not None else 0.0,
        },
    )


def run_service_bench(
    spec: Optional[ServiceBenchSpec] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Time the serving path at each concurrency level of ``spec``."""
    spec = spec or ServiceBenchSpec()
    results: List[BenchResult] = []
    for concurrency in spec.concurrency_levels:
        row = asyncio.run(_run_wave(spec, concurrency))
        if progress is not None:
            extras = row.extras
            progress(
                f"{row.label():<40} {row.wall_seconds * 1000:9.1f} ms  "
                f"{extras['requests_per_second']:8.1f} req/s  "
                f"median slice {extras['median_slice_ms']:g} ms"
            )
        results.append(row)
    return results


def service_bench_file_name(when: Optional[date] = None) -> str:
    """``BENCH_service_<date>.json`` (one snapshot per day by convention)."""
    stamp = when if when is not None else date.today()
    return f"BENCH_service_{stamp.isoformat()}.json"


def bench_document(results: Sequence[BenchResult]) -> Dict[str, object]:
    """The JSON document of one bench run, with its provenance."""
    from repro import __version__

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "package_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": [row.as_dict() for row in results],
    }


def write_bench_file(results: Sequence[BenchResult], path: Union[str, Path]) -> Path:
    """Write the bench document of ``results`` to ``path``."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as stream:
        json.dump(bench_document(results), stream, indent=1, sort_keys=True)
        stream.write("\n")
    return target


def render_results(results: Sequence[BenchResult]) -> str:
    """Result rows as a fixed-width report table."""
    lines = [
        f"{'cell':<42} {'wall (ms)':>10} {'events/s':>14} "
        f"{'tasks/s':>12} {'peak RSS (MB)':>14}"
    ]
    for row in results:
        lines.append(
            f"{row.label():<42} {row.wall_seconds * 1000:>10.1f} "
            f"{row.events_per_second:>14,.0f} "
            f"{row.tasks_per_second:>12,.0f} {row.peak_rss_kb / 1024:>14.1f}"
        )
    return "\n".join(lines)
