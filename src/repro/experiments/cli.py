"""Command-line interface: ``picos-experiment <experiment>``.

Runs any table or figure of the paper from a terminal::

    picos-experiment table4
    picos-experiment fig8 --jobs 8
    picos-experiment fig11 --full --cache-dir /tmp/picos-cache
    picos-experiment all --quick

The ``--quick`` flag shrinks the problem sizes so every experiment finishes
in seconds (useful for smoke testing); ``--full`` selects the complete
paper matrix where a reduced default exists (Figure 11).

Simulations fan out over a process pool (``--jobs``, defaulting to every
CPU) and memoize their results in an on-disk cache (``--cache-dir``,
defaulting to ``$PICOS_CACHE_DIR`` or ``.picos-cache``), so re-rendering an
experiment is instant.  ``--backend`` re-targets an experiment's primary
sweep at any registered simulator backend; ``picos-experiment backends``
lists them.

``picos-experiment simulate`` drives one workload through the typed
request/session API instead of a paper figure::

    picos-experiment simulate --workload cholesky --block-size 32
    picos-experiment simulate --workload case3 --backend hil-hw \\
        --workers 4 --until-cycle 20000 --show-events 10

It opens a streaming session, optionally stops delivering events at a
cycle horizon (``--until-cycle``, the early-abort scenario) and prints the
lifecycle-event head plus the session statistics and final result summary.
Checkpoint/resume rides on the same command::

    picos-experiment simulate --workload cholesky --block-size 128 \\
        --checkpoint-at 60000 --checkpoint-to /tmp/chol.snap.json
    picos-experiment simulate --restore /tmp/chol.snap.json

The first invocation snapshots the run at the cycle-60000 boundary (then
finishes it normally); the second resumes from the snapshot document and
produces the bit-exact same result -- see ``docs/snapshots.md``.

``picos-experiment bench`` times the simulation *server*: requests per
second and slice latency of waves of 1, 16 and 64 concurrent sessions,
written to ``BENCH_service_<date>.json`` (or ``--output PATH``)::

    picos-experiment bench
    picos-experiment bench --backend nanos --output /tmp/service.json

It informs and never gates.  The repository's speed is judged by
``perfbench/`` through ``python3 tools/perf_ab.py REV``, an interleaved
A/B verdict of the working tree against ``REV`` -- see
``docs/benchmarks.md``.

``picos-experiment serve`` starts the simulation service: an asyncio
server accepting typed simulation requests over a newline-delimited-JSON
TCP protocol (plus an HTTP adapter with ``/metrics``, ``/healthz`` and an
SSE ``/simulate``), with per-tenant admission control and an optional
shared on-disk result cache::

    picos-experiment serve --port 9178
    picos-experiment serve --port 0 --cache-dir /tmp/picos-cache \\
        --tenant-sessions teamA=4 --tenant-rate teamA=2e8

It prints one ``serving <proto> on <host>:<port>`` line per listener
(parseable, so ``--port 0`` works for tooling) and runs until SIGINT or
SIGTERM, draining running sessions before exiting.  See
``docs/service.md`` for the protocol and operations guide.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.experiments import (
    fig01_granularity,
    fig08_dm_designs,
    fig09_lu_corner,
    fig10_nanos_overhead,
    fig11_scalability,
    table1_benchmarks,
    table2_dm_conflicts,
    table3_resources,
    table4_synthetic,
)
from repro.experiments.runner import RunnerOptions, default_cache_dir
from repro.sim.backend import describe_backends
from repro.sim.hil import HILMode

#: Problem size used by ``--quick`` for the dense / sparse kernels.
QUICK_PROBLEM_SIZE = 1024
#: Frame count used by ``--quick`` for H264dec.
QUICK_FRAMES = 2

#: Signature of every experiment entry: (quick, full, options, backend).
ExperimentRunner = Callable[[bool, bool, RunnerOptions, Optional[str]], str]


def _run_fig01(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig01_granularity.render_fig01(
        fig01_granularity.run_fig01(problem_size=problem, options=options, **kwargs)
    )


def _run_fig08(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig08_dm_designs.render_fig08(
        fig08_dm_designs.run_fig08(problem_size=problem, options=options, **kwargs)
    )


def _run_fig09(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig09_lu_corner.render_fig09(
        fig09_lu_corner.run_fig09(problem_size=problem, options=options, **kwargs)
    )


def _run_fig10(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return fig10_nanos_overhead.render_fig10(
        fig10_nanos_overhead.run_fig10(options=options)
    )


def _run_fig11(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    matrix = fig11_scalability.FIG11_FULL_MATRIX if full else None
    if quick:
        matrix = {"heat": (64,), "cholesky": (64,), "lu": (32,), "sparselu": (64,)}
    simulators = fig11_scalability.FIG11_SIMULATORS
    if backend:
        simulators = tuple(
            label
            for label, name in fig11_scalability.FIG11_BACKENDS.items()
            if name == backend
        )
        if not simulators:
            comparands = ", ".join(fig11_scalability.FIG11_BACKENDS.values())
            raise SystemExit(
                f"fig11 compares {comparands}; --backend {backend!r} is not one of them"
            )
    return fig11_scalability.render_fig11(
        fig11_scalability.run_fig11(
            matrix=matrix, simulators=simulators, options=options
        )
    )


def _run_table1(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return table1_benchmarks.render_table1(table1_benchmarks.run_table1(options=options))


def _run_table2(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    hil_backends = tuple(mode.backend_name for mode in HILMode)
    if backend and backend not in hil_backends:
        raise SystemExit(
            "table2 counts Dependence Memory conflicts, a Picos hardware "
            f"counter; --backend {backend!r} must be one of "
            + ", ".join(hil_backends)
        )
    kwargs = {"backend": backend} if backend else {}
    return table2_dm_conflicts.render_table2(
        table2_dm_conflicts.run_table2(problem_size=problem, options=options, **kwargs)
    )


def _run_table3(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return table3_resources.render_table3(table3_resources.run_table3(options=options))


def _run_table4(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    modes = table4_synthetic.TABLE4_MODES
    if backend:
        modes = tuple(mode for mode in modes if mode.backend_name == backend)
        if not modes:
            comparands = ", ".join(m.backend_name for m in table4_synthetic.TABLE4_MODES)
            raise SystemExit(
                f"table4 compares {comparands}; --backend {backend!r} is not one of them"
            )
    return table4_synthetic.render_table4(
        table4_synthetic.run_table4(modes=modes, options=options)
    )


EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "fig1": _run_fig01,
    "fig8": _run_fig08,
    "fig9": _run_fig09,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
}


def render_backends() -> str:
    """One line per registered simulator backend."""
    lines = ["registered simulator backends:"]
    for name, description in describe_backends().items():
        lines.append(f"  {name:<10} {description}")
    return "\n".join(lines)


def run_simulate(args: argparse.Namespace) -> str:
    """Drive one workload through a streaming session (see module docs)."""
    from repro.sim.request import SimulationRequest
    from repro.sim.session import open_session
    from repro.sim.snapshot import SnapshotError, load_snapshot, save_snapshot
    from repro.sim.snapshot import restore as restore_session

    if args.checkpoint_at is not None and args.checkpoint_to is None:
        raise SystemExit("--checkpoint-at requires --checkpoint-to PATH")
    faults = ()
    if args.fault:
        from repro.faults.scenario import FaultConfigurationError, parse_fault_spec

        try:
            faults = tuple(parse_fault_spec(spec) for spec in args.fault)
        except FaultConfigurationError as exc:
            raise SystemExit(f"--fault: {exc}") from None
    lines = []
    if args.restore is not None:
        if args.workload:
            raise SystemExit("--restore resumes a snapshot; drop --workload")
        if faults:
            raise SystemExit(
                "--fault cannot be combined with --restore: armed scenarios "
                "travel inside the snapshot document"
            )
        try:
            snapshot = load_snapshot(args.restore)
            session = restore_session(snapshot)
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
        request = session.request
        lines.append(
            f"restored: kind={snapshot.kind!r} cycle={snapshot.cycle} "
            f"backend={request.backend!r} workers={request.num_workers} "
            f"from {args.restore}"
        )
    else:
        if not args.workload:
            raise SystemExit(
                "simulate requires --workload (a benchmark or caseN name) "
                "or --restore PATH"
            )
        backend = args.backend or "hil-full"
        request = SimulationRequest.for_workload(
            args.workload,
            block_size=args.block_size,
            problem_size=args.problem_size,
            backend=backend,
            num_workers=args.workers,
            faults=faults,
        )
        try:
            session = open_session(request)
        except ValueError as exc:
            # Unknown workloads and benchmarks missing --block-size surface
            # here (program construction); give a CLI error, not a traceback.
            raise SystemExit(str(exc)) from None
        lines.append(
            f"request: workload={args.workload!r} backend={backend!r} "
            f"workers={args.workers} cache_key={request.cache_key()}"
        )
        for spec, scenario in zip(args.fault or [], faults):
            lines.append(f"fault armed: {scenario.kind.value} ({spec})")
    shown: list = []
    if args.checkpoint_to is not None:
        # Snapshot at the requested cycle boundary (0 = before any work),
        # then let the run continue below: the snapshot is copy-on-capture,
        # so finishing this session does not disturb the saved document.
        at = args.checkpoint_at if args.checkpoint_at is not None else 0
        if at > 0:
            for event in session.advance(at).events:
                if len(shown) < args.show_events:
                    shown.append(event)
        snapshot = session.checkpoint()
        save_snapshot(snapshot, args.checkpoint_to)
        lines.append(
            f"checkpoint: kind={snapshot.kind!r} cycle={snapshot.cycle} "
            f"digest={snapshot.digest} -> {args.checkpoint_to}"
        )
    if args.show_events > 0 or args.until_cycle is not None:
        for event in session.events(until_cycle=args.until_cycle):
            if len(shown) < args.show_events:
                shown.append(event)
    stats = session.stats()
    if shown:
        lines.append(f"first {len(shown)} lifecycle events:")
        for event in shown:
            lines.append(f"  cycle {event.cycle:>10}  {event.kind:<9} task {event.task_id}")
    if args.until_cycle is not None:
        lines.append(
            f"stopped at cycle horizon {args.until_cycle}: "
            f"{stats.tasks_retired}/{stats.tasks_submitted} tasks retired, "
            f"{stats.events_delivered} events delivered"
        )
    result = session.result()
    lines.append(
        f"result: makespan={result.makespan} speedup={result.speedup:.2f} "
        f"tasks={result.num_tasks} simulator={result.simulator}"
    )
    if "faults_injected" in result.counters:
        lines.append(
            f"faults: injected={result.counters['faults_injected']} "
            f"recovered={result.counters['faults_recovered']}"
        )
    return "\n".join(lines)


def _parse_tenant_value(entries, what: str, convert):
    """Parse repeated ``tenant=value`` CLI options into a dict."""
    parsed = {}
    for entry in entries or []:
        tenant, sep, raw = entry.partition("=")
        if not sep or not tenant:
            raise SystemExit(f"--{what} expects TENANT=VALUE, got {entry!r}")
        try:
            parsed[tenant] = convert(raw)
        except ValueError:
            raise SystemExit(f"--{what}: invalid value {raw!r} for {tenant!r}") from None
    return parsed


def run_serve(args: argparse.Namespace) -> int:
    """Start the simulation service in the foreground (see module docs)."""
    import asyncio

    from repro.service import ServerConfig, TenantQuota, serve_until_interrupted

    sessions_by_tenant = _parse_tenant_value(
        args.tenant_sessions, "tenant-sessions", int
    )
    rate_by_tenant = _parse_tenant_value(args.tenant_rate, "tenant-rate", float)
    tenant_quotas = {
        tenant: TenantQuota(
            max_sessions=sessions_by_tenant.get(tenant),
            cycles_per_second=rate_by_tenant.get(tenant),
        )
        for tenant in set(sessions_by_tenant) | set(rate_by_tenant)
    }
    config = ServerConfig(
        host=args.host,
        port=args.port,
        http_port=None if args.no_http else args.http_port,
        # Serving caches only on request: a server writing into the default
        # experiment cache directory unasked would be a surprise.
        cache_dir=args.cache_dir,
        max_sessions=args.max_sessions,
        default_quota=TenantQuota(
            max_sessions=args.default_tenant_sessions,
            cycles_per_second=args.default_tenant_rate,
        ),
        tenant_quotas=tenant_quotas,
        idle_timeout=args.idle_timeout,
    )
    if args.slice_cycles is not None:
        if args.slice_cycles < 1:
            raise SystemExit("--slice-cycles must be at least 1")
        config.slice_cycles = args.slice_cycles
    try:
        asyncio.run(serve_until_interrupted(config))
    except KeyboardInterrupt:
        pass
    return 0


def run_bench_command(args: argparse.Namespace) -> int:
    """Time the simulation server and write the rows (see module docs)."""
    from repro.bench import (
        ServiceBenchSpec,
        render_results,
        run_service_bench,
        service_bench_file_name,
        write_bench_file,
    )

    spec = ServiceBenchSpec(backend=args.backend or ServiceBenchSpec.backend)
    results = run_service_bench(spec, progress=print)
    print()
    print(render_results(results))
    out_path = write_bench_file(results, args.output or service_bench_file_name())
    print(f"\nwrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="picos-experiment",
        description="Reproduce the tables and figures of the Picos ISPASS 2016 paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "backends", "simulate", "bench", "serve", "lint"],
        help="which table/figure to reproduce ('all' for every one, "
        "'backends' to list the simulator backends, 'simulate' to drive "
        "one workload through the streaming session API, 'bench' to time "
        "the simulation server and write a BENCH_service_<date>.json, 'serve' to "
        "start the simulation service, 'lint' to run the repro-lint "
        "invariant checker over the package)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced problem sizes so every experiment finishes in seconds",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the complete paper matrix where a reduced default exists",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="simulation jobs to run in parallel (default: all CPUs)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="re-target the experiment's sweep at one simulator backend "
        "(hil-full, hil-hw, hil-comm, nanos, perfect, or a plug-in); "
        "ignored by the purely analytic experiments (fig10, table1, table3)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="directory of the on-disk result cache "
        "(default: $PICOS_CACHE_DIR or .picos-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    simulate = parser.add_argument_group(
        "simulate", "options for the 'simulate' session-driven command"
    )
    simulate.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="benchmark (cholesky, lu, ...) or synthetic case (case1..case7)",
    )
    simulate.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="N",
        help="block size of the benchmark (unused for synthetic cases)",
    )
    simulate.add_argument(
        "--problem-size",
        type=int,
        default=None,
        metavar="N",
        help="problem-size override (default: the paper's size)",
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=12,
        metavar="N",
        help="worker cores to simulate (default: 12, as in the paper)",
    )
    simulate.add_argument(
        "--until-cycle",
        type=int,
        default=None,
        metavar="CYCLE",
        help="stop delivering lifecycle events at this cycle (early abort)",
    )
    simulate.add_argument(
        "--show-events",
        type=int,
        default=0,
        metavar="K",
        help="print the first K lifecycle events of the run",
    )
    simulate.add_argument(
        "--checkpoint-at",
        type=int,
        default=None,
        metavar="CYCLE",
        help="snapshot the run at this cycle boundary (0 = before any "
        "work); the run then continues to completion as usual",
    )
    simulate.add_argument(
        "--checkpoint-to",
        default=None,
        metavar="PATH",
        help="write the snapshot document to PATH (required with "
        "--checkpoint-at; without it, snapshots before any work)",
    )
    simulate.add_argument(
        "--restore",
        default=None,
        metavar="PATH",
        help="resume a run from a snapshot document instead of opening a "
        "fresh workload (mutually exclusive with --workload)",
    )
    simulate.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="arm one fault scenario (repeatable); SPEC is "
        "KIND@TRIGGER[:OPT=V...], e.g. "
        "'kill-worker@cycle=5000:worker=3' or "
        "'drop-event@p=0.01:class=ready:seed=7' (see docs/faults.md)",
    )
    bench = parser.add_argument_group(
        "bench", "options for the 'bench' service-timing command"
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the bench rows "
        "(default: ./BENCH_service_<today>.json)",
    )
    serve = parser.add_argument_group(
        "serve", "options for the 'serve' simulation-service command"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="address to bind the listeners to (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=9178,
        metavar="N",
        help="TCP (NDJSON) port; 0 picks an ephemeral port (default: 9178)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=0,
        metavar="N",
        help="HTTP adapter port (/metrics, /healthz, SSE /simulate); "
        "0 picks an ephemeral port (default: 0)",
    )
    serve.add_argument(
        "--no-http",
        action="store_true",
        help="disable the HTTP adapter entirely",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="server-wide concurrent-session cap (default: unlimited)",
    )
    serve.add_argument(
        "--default-tenant-sessions",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant concurrent-session quota applied to tenants "
        "without an explicit --tenant-sessions entry (default: unlimited)",
    )
    serve.add_argument(
        "--default-tenant-rate",
        type=float,
        default=None,
        metavar="CYCLES",
        help="per-tenant simulated-cycles-per-second throttle applied to "
        "tenants without an explicit --tenant-rate entry (default: none)",
    )
    serve.add_argument(
        "--tenant-sessions",
        action="append",
        metavar="TENANT=N",
        help="concurrent-session quota of one tenant (repeatable)",
    )
    serve.add_argument(
        "--tenant-rate",
        action="append",
        metavar="TENANT=CYCLES",
        help="cycles-per-second throttle of one tenant (repeatable)",
    )
    serve.add_argument(
        "--slice-cycles",
        type=int,
        default=None,
        metavar="N",
        help="upper bound on one cooperative slice's cycle budget for "
        "requests whose stream options set none (default: unbounded; "
        "each slice is sized by the lifecycle events the last one returned)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="evict sessions that were accepted but never run after this "
        "long idle (default: 300)",
    )
    lint = parser.add_argument_group(
        "lint", "options for the 'lint' invariant-checker command"
    )
    lint.add_argument(
        "--lint-path",
        action="append",
        metavar="PATH",
        help="file or directory to lint (repeatable; default: the installed "
        "repro package)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered lint rules and exit",
    )
    return parser


def runner_options_from_args(args: argparse.Namespace) -> RunnerOptions:
    """Translate parsed CLI arguments into runner options."""
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    return RunnerOptions(jobs=jobs, cache_dir=cache_dir)


def main(argv: Optional[list] = None) -> int:
    """Console-script entry point."""
    args = build_parser().parse_args(argv)
    if args.experiment == "backends":
        print(render_backends())
        return 0
    if args.experiment == "lint":
        from repro.lint.cli import main as lint_main

        lint_argv = list(args.lint_path or [])
        if args.list_rules:
            lint_argv.append("--list-rules")
        return lint_main(lint_argv)
    if args.experiment == "simulate":
        if args.backend is not None and args.backend not in describe_backends():
            print(f"unknown backend {args.backend!r}", file=sys.stderr)
            print(render_backends(), file=sys.stderr)
            return 2
        print(run_simulate(args))
        return 0
    if args.experiment == "serve":
        return run_serve(args)
    if args.experiment == "bench":
        if args.backend is not None and args.backend not in describe_backends():
            print(f"unknown backend {args.backend!r}", file=sys.stderr)
            print(render_backends(), file=sys.stderr)
            return 2
        return run_bench_command(args)
    if args.backend is not None and args.backend not in describe_backends():
        print(f"unknown backend {args.backend!r}", file=sys.stderr)
        print(render_backends(), file=sys.stderr)
        return 2
    options = runner_options_from_args(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        try:
            output = EXPERIMENTS[name](args.quick, args.full, options, args.backend)
        except (SystemExit, ValueError) as exc:
            # An experiment that cannot honour --backend aborts with a
            # message (SystemExit from a wrapper, ValueError from the
            # library specs); under "all" that one is skipped instead of
            # killing the remaining experiments.
            if args.experiment != "all":
                raise SystemExit(str(exc)) from None
            print(f"===== {name} (skipped) =====")
            print(exc)
            print()
            continue
        elapsed = time.time() - start
        print(f"===== {name} ({elapsed:.1f}s) =====")
        print(output)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
