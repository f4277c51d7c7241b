"""Tests for the experiment drivers (reduced problem sizes).

Each driver is exercised end to end on a shrunken problem and its output
is checked both structurally (the right rows / series exist) and
qualitatively (the paper's headline observation holds).
"""

from __future__ import annotations

import pytest

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
from repro.experiments.cli import EXPERIMENTS, build_parser, main

SMALL = 1024


class TestFig01:
    @pytest.fixture(scope="class")
    def results(self):
        sweeps = {"heat": (256, 128, 64, 32), "cholesky": (256, 128, 64, 32)}
        return fig01_granularity.run_fig01(problem_size=SMALL, sweeps=sweeps)

    def test_structure(self, results):
        assert set(results) == {"heat", "cholesky"}
        assert set(results["heat"]) == {256, 128, 64, 32}

    def test_speedup_rises_then_collapses(self, results):
        for curve in results.values():
            peak = fig01_granularity.peak_block_size(curve)
            assert peak != min(curve)  # the finest granularity is never best
            assert curve[min(curve)] < curve[peak]

    def test_render_mentions_each_benchmark(self, results):
        text = fig01_granularity.render_fig01(results)
        assert "heat" in text and "cholesky" in text


class TestFig08:
    @pytest.fixture(scope="class")
    def results(self):
        return fig08_dm_designs.run_fig08(
            benchmarks=(("heat", 64), ("cholesky", 64)),
            worker_counts=(2, 12),
            problem_size=SMALL,
        )

    def test_structure(self, results):
        assert set(results) == {("heat", 64), ("cholesky", 64)}
        for per_design in results.values():
            assert set(per_design) == {"DM 8way", "DM 16way", "DM P+8way"}

    def test_pearson_is_best_at_high_worker_counts(self, results):
        assert fig08_dm_designs.best_design(results, "heat", 64, 12) == "DM P+8way"
        assert fig08_dm_designs.best_design(results, "cholesky", 64, 12) == "DM P+8way"

    def test_render(self, results):
        text = fig08_dm_designs.render_fig08(results)
        assert "DM P+8way" in text and "heat" in text


class TestFig09:
    @pytest.fixture(scope="class")
    def results(self):
        return fig09_lu_corner.run_fig09(block_sizes=(32,), problem_size=SMALL)

    def test_structure(self, results):
        assert set(results) == {"lu-fifo", "mlu-fifo", "lu-lifo"}

    def test_fixes_restore_pearson_advantage(self, results):
        assert fig09_lu_corner.pearson_recovers(results)

    def test_fixes_improve_pearson_speedup(self, results):
        pearson = "DM P+8way"
        original = results["lu-fifo"][32][pearson]
        assert results["mlu-fifo"][32][pearson] > original
        assert results["lu-lifo"][32][pearson] > original

    def test_render(self, results):
        text = fig09_lu_corner.render_fig09(results)
        assert "Modified Lu" in text and "LIFO" in text


class TestFig10:
    def test_structure_and_monotonicity(self):
        curves = fig10_nanos_overhead.run_fig10()
        assert "creation" in curves
        assert "15 DEPs" in curves
        for values in curves.values():
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_submission_dominates_creation(self):
        curves = fig10_nanos_overhead.run_fig10()
        threads = list(fig10_nanos_overhead.FIG10_THREADS)
        twelve = threads.index(12)
        assert curves["5 DEPs"][twelve] > curves["creation"][twelve]

    def test_overhead_at_helper(self):
        curves = fig10_nanos_overhead.run_fig10()
        value = fig10_nanos_overhead.overhead_at(
            curves, "creation", fig10_nanos_overhead.FIG10_THREADS, 1
        )
        assert value == curves["creation"][0]

    def test_render(self):
        text = fig10_nanos_overhead.render_fig10(fig10_nanos_overhead.run_fig10())
        assert "threads" in text and "creation" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def point(self):
        return fig11_scalability.run_fig11_point(
            "cholesky", 64, worker_counts=(2, 8, 16), problem_size=SMALL
        )

    def test_point_structure(self, point):
        assert set(point) == {"picos", "perfect", "nanos"}
        assert point["picos"].worker_counts() == [2, 8, 16]

    def test_qualitative_checks_hold(self, point):
        checks = fig11_scalability.qualitative_checks(point)
        assert checks["picos_below_roofline"]
        assert checks["picos_beats_nanos_peak"]
        assert checks["nanos_saturates_earlier"]

    def test_picos_stays_below_the_perfect_schedule_on_heat(self):
        point = fig11_scalability.run_fig11_point(
            "heat", 128, worker_counts=(4, 8, 12)
        )
        assert fig11_scalability.qualitative_checks(point)["picos_below_roofline"]

    def test_matrix_run_and_render(self):
        results = fig11_scalability.run_fig11(
            matrix={"heat": (64,)}, worker_counts=(2, 8), problem_size=SMALL
        )
        assert ("heat", 64) in results
        text = fig11_scalability.render_fig11(results)
        assert "Picos full-system" in text and "Nanos++ RTS" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1_benchmarks.run_table1()

    def test_all_twenty_rows_present(self, rows):
        assert len(rows) == 20

    def test_dense_kernels_match_exactly(self, rows):
        errors = table1_benchmarks.task_count_error(rows)
        for bench in ("heat", "lu", "cholesky"):
            for (name, _), error in errors.items():
                if name == bench:
                    assert error == 0.0

    def test_approximate_kernels_within_tolerance(self, rows):
        errors = table1_benchmarks.task_count_error(rows)
        for (name, block_size), error in errors.items():
            if name == "h264dec":
                assert error < 0.2
            if name == "sparselu" and block_size in (64, 32):
                assert error < 0.15

    def test_render(self, rows):
        text = table1_benchmarks.render_table1(rows)
        assert "AveTSize" in text and "h264dec" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def results(self):
        return table2_dm_conflicts.run_table2(
            benchmarks=(("heat", 64), ("cholesky", 128)), problem_size=SMALL
        )

    def test_structure(self, results):
        assert set(results) == {("heat", 64), ("cholesky", 128)}

    def test_conflict_ordering_matches_paper(self, results):
        for per_design in results.values():
            assert per_design["DM 8way"] >= per_design["DM 16way"]
            assert per_design["DM 16way"] > per_design["DM P+8way"]
        assert table2_dm_conflicts.pearson_is_conflict_free(results)

    def test_render(self, results):
        text = table2_dm_conflicts.render_table2(results)
        assert "DM 8way" in text and "paper" in text


class TestTable3:
    def test_rows_and_render(self):
        rows = table3_resources.run_table3()
        assert len(rows) == 10
        text = table3_resources.render_table3(rows)
        assert "Full Picos" in text
        assert table3_resources.full_design_fits()

    def test_what_if_32way_doubles_memory(self):
        what_if = table3_resources.what_if_32way()
        assert what_if["dm32_bram_pct"] == pytest.approx(
            2 * what_if["dm16_bram_pct"], rel=0.01
        )


class TestTable4:
    @pytest.fixture(scope="class")
    def results(self):
        return table4_synthetic.run_table4()

    def test_all_modes_and_cases_present(self, results):
        assert set(results) == {"hw-only", "hw-comm", "full-system"}
        for per_case in results.values():
            assert len(per_case) == 7

    @pytest.mark.parametrize(
        "mode,case,metric,tolerance",
        [
            ("hw-only", "case1", "thrTask", 0.05),
            ("hw-only", "case2", "thrTask", 0.05),
            ("hw-only", "case3", "thrTask", 0.10),
            ("hw-only", "case7", "thrTask", 0.10),
            ("hw-only", "case1", "L1st", 0.05),
            ("hw-only", "case3", "L1st", 0.05),
            ("hw-comm", "case1", "thrTask", 0.05),
            ("full-system", "case1", "thrTask", 0.05),
            ("full-system", "case3", "thrTask", 0.05),
            ("full-system", "case7", "thrTask", 0.05),
        ],
    )
    def test_key_cells_match_paper(self, results, mode, case, metric, tolerance):
        assert table4_synthetic.relative_error(results, mode, case, metric) <= tolerance

    def test_mode_costs_ordered(self, results):
        for case in ("case1", "case3", "case7"):
            assert (
                results["hw-only"][case]["thrTask"]
                < results["hw-comm"][case]["thrTask"]
                < results["full-system"][case]["thrTask"]
            )

    def test_render(self, results):
        text = table4_synthetic.render_table4(results)
        assert "hw-only" in text and "full-system" in text


class TestCli:
    def test_parser_accepts_every_experiment(self):
        parser = build_parser()
        for name in list(EXPERIMENTS) + ["all"]:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_cli_runs_fast_experiments(self, capsys):
        assert main(["table3"]) == 0
        assert main(["fig10"]) == 0
        output = capsys.readouterr().out
        assert "table3" in output and "fig10" in output

    def test_cli_quick_flag(self, capsys):
        assert main(["fig9", "--quick"]) == 0
        assert "fig9" in capsys.readouterr().out
