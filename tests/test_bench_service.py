"""Tests for the service bench (``picos-experiment bench``) and its rows."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    ServiceBenchSpec,
    bench_document,
    render_results,
    run_service_bench,
    service_bench_file_name,
    write_bench_file,
)


@pytest.fixture(scope="module")
def service_rows():
    # A tiny matrix so the whole bench runs in seconds: two waves against
    # a real loopback server.
    spec = ServiceBenchSpec(
        workload="cholesky",
        block_size=128,
        problem_size=512,
        backend="hil-full",
        num_workers=2,
        concurrency_levels=(1, 4),
        slice_cycles=50_000,
    )
    return run_service_bench(spec)


class TestServiceBench:
    def test_one_row_per_concurrency_level(self, service_rows):
        assert [row.num_workers for row in service_rows] == [1, 4]
        assert all(row.workload == "service-tcp" for row in service_rows)

    def test_rows_carry_the_service_extras(self, service_rows):
        for row in service_rows:
            assert row.wall_seconds > 0
            assert row.extras["requests"] == row.num_workers
            assert row.extras["requests_per_second"] > 0
            assert "median_slice_ms" in row.extras
            assert "p99_slice_ms" in row.extras
            # Every request streamed its full lifecycle.
            assert row.events_processed == 3 * row.num_tasks * row.num_workers

    def test_snapshot_round_trips_with_extras(self, service_rows, tmp_path):
        name = service_bench_file_name()
        assert name.startswith("BENCH_service_") and name.endswith(".json")
        path = write_bench_file(service_rows, tmp_path / name)
        document = json.loads(path.read_text())
        assert document["results"] == [row.as_dict() for row in service_rows]

    def test_document_layout_matches_the_committed_snapshot(self, service_rows):
        # ROADMAP compares future runs with BENCH_service_2026-08-08.json,
        # so the rows keep its layout.
        root = Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_service_2026-08-08.json").read_text())
        document = bench_document(service_rows)
        assert document["schema"] == committed["schema"] == 1
        assert set(document) == set(committed)
        for row in document["results"]:
            assert set(row) == set(committed["results"][0])

    def test_document_carries_provenance(self, service_rows):
        document = bench_document(service_rows)
        for key in ("created", "package_version", "python", "platform"):
            assert document[key]

    def test_report_table_names_every_row(self, service_rows):
        table = render_results(service_rows)
        assert len(table.splitlines()) == 1 + len(service_rows)
        for row in service_rows:
            assert row.label() in table

    def test_result_frames_over_64_kib_are_read(self):
        # cholesky/64 on nanos ends in a result frame of about 341 kB, over
        # asyncio's default 64 KiB line limit.
        rows = run_service_bench(
            ServiceBenchSpec(
                block_size=64,
                problem_size=None,
                backend="nanos",
                concurrency_levels=(1,),
            )
        )
        assert rows[0].num_tasks == 5984
        assert rows[0].events_processed == 3 * rows[0].num_tasks


class TestBenchCli:
    def test_bench_runs_the_service_bench_and_writes_its_rows(
        self, service_rows, tmp_path, capsys, monkeypatch
    ):
        import repro.bench as bench_pkg
        from repro.experiments.cli import main

        specs = []

        def fake_run(spec, progress=None):
            specs.append(spec)
            return service_rows

        # The command imports run_service_bench from the package when it
        # runs, so the fixture's rows stand in for a real wave.
        monkeypatch.setattr(bench_pkg, "run_service_bench", fake_run)
        out = tmp_path / "service.json"
        assert main(["bench", "--backend", "nanos", "--output", str(out)]) == 0
        assert specs == [ServiceBenchSpec(backend="nanos")]
        assert json.loads(out.read_text())["results"] == [
            row.as_dict() for row in service_rows
        ]
        printed = capsys.readouterr().out
        assert render_results(service_rows) in printed
        assert f"wrote {out}" in printed

    def test_bench_rejects_unknown_backend(self, capsys):
        from repro.experiments.cli import main

        assert main(["bench", "--backend", "nope"]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestServeCliParsing:
    def test_tenant_value_parsing(self):
        from repro.experiments.cli import _parse_tenant_value

        assert _parse_tenant_value(["a=1", "b=2"], "tenant-sessions", int) == {
            "a": 1,
            "b": 2,
        }
        assert _parse_tenant_value(None, "tenant-sessions", int) == {}
        with pytest.raises(SystemExit):
            _parse_tenant_value(["nope"], "tenant-sessions", int)
        with pytest.raises(SystemExit):
            _parse_tenant_value(["a=lots"], "tenant-sessions", int)

    def test_parser_accepts_serve_options(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--tenant-sessions",
                "teamA=4",
                "--tenant-rate",
                "teamA=2e8",
                "--slice-cycles",
                "100000",
            ]
        )
        assert args.experiment == "serve"
        assert args.tenant_sessions == ["teamA=4"]
        assert args.tenant_rate == ["teamA=2e8"]
        assert args.slice_cycles == 100000
