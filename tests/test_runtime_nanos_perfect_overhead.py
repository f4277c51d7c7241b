"""Tests for the Nanos++ model, the Perfect backend and the overhead model."""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.apps.registry import build_benchmark
from repro.runtime.dependence_analysis import (
    build_task_graph,
    ready_order_is_valid,
    task_graph,
)
from repro.runtime.nanos import ZERO_OVERHEAD, NanosRuntimeSimulator, nanos_speedup
from repro.runtime.overhead import NanosOverheadModel
from repro.runtime.task import Direction, TaskProgram
from repro.sim.backend import get_backend

from tests.helpers import make_program


A, B = 0x1000, 0x2000


def wide_program(count: int = 32, duration: int = 100_000) -> TaskProgram:
    return make_program([[]] * count, durations=[duration] * count, name="wide")


def chain(length: int = 10, duration: int = 1000) -> TaskProgram:
    return make_program(
        [[(A, Direction.INOUT)]] * length, durations=[duration] * length, name="chain"
    )


class TestNanosOverheadModel:
    def test_creation_independent_of_dependences(self):
        model = NanosOverheadModel()
        assert model.creation_cycles(4) == model.creation_cycles(4)

    def test_creation_grows_with_threads(self):
        model = NanosOverheadModel()
        values = [model.creation_cycles(t) for t in (1, 4, 8, 12)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_submission_grows_with_dependences_and_threads(self):
        model = NanosOverheadModel()
        assert model.submission_cycles(5, 1) > model.submission_cycles(1, 1)
        assert model.submission_cycles(5, 12) > model.submission_cycles(5, 1)

    def test_submission_contention_dominates_at_high_thread_counts(self):
        """Figure 10's key shape: the 12-thread submission cost is several
        times the single-thread cost."""
        model = NanosOverheadModel()
        assert model.submission_cycles(5, 12) >= 3 * model.submission_cycles(5, 1)

    def test_total_overhead_is_tens_of_thousands_of_cycles_at_12_threads(self):
        model = NanosOverheadModel()
        total = model.creation_and_submission(5, 12)
        assert 10_000 <= total <= 100_000

    def test_worker_side_overheads(self):
        model = NanosOverheadModel()
        assert model.worker_pickup_cycles(12) > model.worker_pickup_cycles(1)
        assert model.release_cycles(3, 4) > model.release_cycles(1, 4)
        assert model.release_cycles(0, 4) == 0

    def test_overhead_table_structure(self):
        model = NanosOverheadModel()
        table = model.overhead_table([1, 5], [1, 2, 4])
        assert set(table) == {"creation", "1 DEPs", "5 DEPs"}
        assert all(len(values) == 3 for values in table.values())

    def test_invalid_arguments(self):
        model = NanosOverheadModel()
        with pytest.raises(ValueError):
            model.creation_cycles(0)
        with pytest.raises(ValueError):
            model.submission_cycles(-1, 4)


def perfect(program: TaskProgram, workers: int):
    """The ``perfect`` backend's result for ``program`` on ``workers``."""
    return get_backend("perfect").simulator(program, num_workers=workers).run()


def perfect_speedup(program: TaskProgram, workers: int) -> float:
    return perfect(program, workers).speedup


class TestPerfectBackend:
    def test_it_is_the_nanos_model_with_every_cost_at_zero(self):
        costs = dataclasses.asdict(ZERO_OVERHEAD)
        assert {name for name, value in costs.items() if value} == {
            "creation_contention",
            "submission_contention",
        }
        program = build_benchmark("cholesky", 128, problem_size=512)
        result = perfect(program, 4)
        zero = NanosRuntimeSimulator(program, 4, ZERO_OVERHEAD).run()
        assert result.simulator == "perfect"
        assert dataclasses.replace(zero, simulator="perfect") == result
        assert result.counters["master_creation_cycles"] == 0

    def test_independent_tasks_scale_linearly(self):
        program = wide_program(count=32)
        for workers in (1, 2, 4, 8):
            assert perfect_speedup(program, workers) == pytest.approx(workers, rel=1e-6)

    def test_chain_never_exceeds_speedup_one(self):
        program = chain(length=12)
        result = perfect(program, 8)
        assert result.speedup == pytest.approx(1.0)
        assert result.makespan == program.sequential_cycles

    def test_speedup_bounded_by_graph_parallelism(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN)],
                [(A, Direction.IN)],
                [(A, Direction.IN)],
            ],
            durations=[100, 100, 100, 100],
        )
        result = perfect(program, 16)
        graph = task_graph(program)
        assert result.speedup <= graph.max_parallelism() + 1e-9
        assert result.makespan == graph.critical_path_length() == 200

    def test_respects_dependences(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(B, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.IN)],
                [(A, Direction.INOUT)],
            ],
            durations=[10, 20, 30, 40],
        )
        result = perfect(program, 2)
        assert ready_order_is_valid(program, result.start_order())
        graph = build_task_graph(program)
        for pred, task_id in graph.edges():
            assert result.timelines[task_id].started >= result.timelines[pred].finished

    def test_zero_overhead_means_no_management_latency(self):
        program = wide_program(count=4)
        result = perfect(program, 4)
        for timeline in result.timelines.values():
            assert timeline.ready == 0
            assert timeline.started == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            perfect(wide_program(), 0)


class TestNanosSimulator:
    def test_all_tasks_complete_and_order_is_valid(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN)],
                [(B, Direction.OUT)],
                [(A, Direction.INOUT), (B, Direction.IN)],
            ],
            durations=[5000] * 4,
        )
        result = NanosRuntimeSimulator(program, num_threads=2).run()
        assert result.completed_all()
        assert ready_order_is_valid(program, result.start_order())

    def test_speedup_below_perfect(self):
        program = wide_program(count=64, duration=50_000)
        for workers in (2, 4, 8):
            assert nanos_speedup(program, workers) <= perfect_speedup(program, workers)

    def test_coarse_tasks_scale_well(self):
        program = wide_program(count=64, duration=5_000_000)
        assert nanos_speedup(program, 8) > 6.0

    def test_fine_tasks_collapse(self):
        """The Figure 1 effect: once task duration approaches the runtime
        overhead the software-only speedup collapses."""
        coarse = wide_program(count=64, duration=1_000_000)
        fine = wide_program(count=64, duration=10_000)
        assert nanos_speedup(fine, 12) < 0.6 * nanos_speedup(coarse, 12)

    def test_serial_creation_limits_throughput(self):
        model = NanosOverheadModel()
        program = wide_program(count=50, duration=1000)
        result = NanosRuntimeSimulator(program, num_threads=8, overhead=model).run()
        minimum_creation = 50 * model.creation_and_submission(0, 8)
        assert result.makespan >= minimum_creation

    def test_single_thread_still_completes(self):
        program = wide_program(count=10, duration=1000)
        result = NanosRuntimeSimulator(program, num_threads=1).run()
        assert result.completed_all()
        assert result.speedup < 1.0  # overhead makes it slower than sequential

    def test_counters_present(self):
        program = wide_program(count=4)
        result = NanosRuntimeSimulator(program, num_threads=4).run()
        assert result.counters["threads"] == 4
        assert result.counters["master_creation_cycles"] > 0

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            NanosRuntimeSimulator(wide_program(), num_threads=0)

    def test_custom_overhead_model_is_used(self):
        cheap = NanosOverheadModel(
            creation_base=1,
            submission_base=1,
            submission_per_dep=1,
            scheduling_cycles=1,
            release_per_dep=1,
            creation_contention=0.0,
            submission_contention=0.0,
        )
        program = wide_program(count=32, duration=10_000)
        cheap_speedup = nanos_speedup(program, 8, cheap)
        default_speedup = nanos_speedup(program, 8)
        assert cheap_speedup > default_speedup

    def test_overheads_are_priced_once_per_dependence_count(self, monkeypatch):
        # The model is frozen: one call per distinct argument list suffices.
        calls = collections.Counter()
        for name in ("creation_and_submission", "release_cycles", "worker_pickup_cycles"):

            def counting(model, *args, _name=name, _priced=getattr(NanosOverheadModel, name)):
                calls[_name, args] += 1
                return _priced(model, *args)

            monkeypatch.setattr(NanosOverheadModel, name, counting)
        program = build_benchmark("cholesky", 128, problem_size=512)
        dep_counts = {task.num_dependences for task in program}
        assert len(dep_counts) > 1
        NanosRuntimeSimulator(program, num_threads=4).run()
        assert set(calls) == {("worker_pickup_cycles", (4,))} | {
            (name, (deps, 4))
            for name in ("creation_and_submission", "release_cycles")
            for deps in dep_counts
        }
        assert set(calls.values()) == {1}
