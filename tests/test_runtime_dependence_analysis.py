"""Unit tests for the exact software dependence analysis."""

from __future__ import annotations

import pytest

from repro.apps.common import scale_durations_to_mean
from repro.apps.registry import build_benchmark
from repro.faults.scenario import parse_fault_spec
from repro.runtime.dependence_analysis import (
    DependenceAnalyzer,
    TaskGraph,
    build_task_graph,
    ready_order_is_valid,
    task_graph,
)
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.perfect import PerfectScheduler
from repro.runtime.task import Dependence, Direction, Task

from tests.helpers import make_program


A, B, C = 0x1000, 0x2000, 0x3000


class TestDependenceAnalyzer:
    def test_reader_after_writer_waits_for_writer(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        preds = analyzer.submit(Task(1, [Dependence(A, Direction.IN)]))
        assert preds == {0}

    def test_reader_without_writer_is_independent(self):
        analyzer = DependenceAnalyzer()
        preds = analyzer.submit(Task(0, [Dependence(A, Direction.IN)]))
        assert preds == frozenset()

    def test_readers_do_not_depend_on_each_other(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        analyzer.submit(Task(1, [Dependence(A, Direction.IN)]))
        preds = analyzer.submit(Task(2, [Dependence(A, Direction.IN)]))
        assert preds == {0}

    def test_writer_waits_for_previous_readers_and_writer(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        analyzer.submit(Task(1, [Dependence(A, Direction.IN)]))
        analyzer.submit(Task(2, [Dependence(A, Direction.IN)]))
        preds = analyzer.submit(Task(3, [Dependence(A, Direction.OUT)]))
        assert preds == {0, 1, 2}

    def test_inout_chain_serialises(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.INOUT)]))
        assert analyzer.submit(Task(1, [Dependence(A, Direction.INOUT)])) == {0}
        assert analyzer.submit(Task(2, [Dependence(A, Direction.INOUT)])) == {1}

    def test_writer_after_writer_only_waits_for_last_writer(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        analyzer.submit(Task(1, [Dependence(A, Direction.OUT)]))
        preds = analyzer.submit(Task(2, [Dependence(A, Direction.OUT)]))
        assert preds == {1}

    def test_independent_addresses_do_not_interact(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        preds = analyzer.submit(Task(1, [Dependence(B, Direction.INOUT)]))
        assert preds == frozenset()

    def test_multi_dependence_task_gathers_all_predecessors(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        analyzer.submit(Task(1, [Dependence(B, Direction.OUT)]))
        preds = analyzer.submit(
            Task(2, [Dependence(A, Direction.IN), Dependence(B, Direction.IN)])
        )
        assert preds == {0, 1}

    def test_predecessors_query_after_submit(self):
        analyzer = DependenceAnalyzer()
        analyzer.submit(Task(0, [Dependence(A, Direction.OUT)]))
        analyzer.submit(Task(1, [Dependence(A, Direction.IN)]))
        assert analyzer.predecessors(1) == {0}


class TestTaskGraph:
    def test_build_graph_counts_edges(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN)],
                [(A, Direction.IN)],
                [(A, Direction.INOUT)],
            ]
        )
        graph = build_task_graph(program)
        assert graph.predecessors[1] == {0}
        assert graph.predecessors[2] == {0}
        assert graph.predecessors[3] == {0, 1, 2}
        assert graph.num_edges == 5

    def test_roots_and_level_widths(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(B, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.IN)],
            ]
        )
        graph = build_task_graph(program)
        assert set(graph.roots()) == {0, 1}
        assert graph.level_widths() == [2, 1]

    def test_critical_path_of_a_chain(self):
        program = make_program(
            [[(A, Direction.INOUT)]] * 5, durations=[3, 3, 3, 3, 3]
        )
        graph = build_task_graph(program)
        assert graph.critical_path_length() == 15
        assert graph.max_parallelism() == pytest.approx(1.0)

    def test_critical_path_of_independent_tasks(self):
        program = make_program([[], [], [], []], durations=[2, 4, 6, 8])
        graph = build_task_graph(program)
        assert graph.critical_path_length() == 8
        assert graph.max_parallelism() == pytest.approx(20 / 8)

    def test_topological_order_rejects_forward_edges(self):
        graph = TaskGraph(num_tasks=2)
        graph.add_edge(1, 0)
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_self_edges_are_ignored(self):
        graph = TaskGraph(num_tasks=1, durations={0: 5})
        graph.add_edge(0, 0)
        assert graph.num_edges == 0

    def test_edges_listing(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        graph = build_task_graph(program)
        assert graph.edges() == [(0, 1)]


class TestReadyOrderOracle:
    def test_valid_order_accepted(self):
        program = make_program(
            [[(A, Direction.OUT)], [(A, Direction.IN)], [(B, Direction.OUT)]]
        )
        assert ready_order_is_valid(program, [0, 2, 1])
        assert ready_order_is_valid(program, [0, 1, 2])

    def test_order_violating_dependence_rejected(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        assert not ready_order_is_valid(program, [1, 0])

    def test_incomplete_order_rejected(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        assert not ready_order_is_valid(program, [0])


class TestSharedTaskGraph:
    """``task_graph`` builds a program's graph once; every run shares it."""

    def test_one_graph_per_program(self):
        program = build_benchmark("cholesky", 128, problem_size=512)
        graph = task_graph(program)
        assert task_graph(program) is graph
        first = NanosRuntimeSimulator(program, num_threads=4)
        second = NanosRuntimeSimulator(program, num_threads=4)
        assert first.graph is graph and second.graph is graph
        assert PerfectScheduler(program, num_workers=4).graph is graph

    def test_adding_a_task_drops_the_memo(self):
        program = make_program([[(A, Direction.OUT)], [(B, Direction.OUT)]])
        before = task_graph(program)
        program.create_task([Dependence(A, Direction.IN)])
        after = task_graph(program)
        assert after is not before
        assert after.num_tasks == 3
        assert after.predecessors[2] == {0}
        assert after == build_task_graph(program)

    def test_rescaling_durations_drops_the_memo(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        task_graph(program)
        scale_durations_to_mean(program, 1_000)
        assert task_graph(program).durations == {0: 1_000, 1: 1_000}
        assert task_graph(program) == build_task_graph(program)

    def test_runs_never_mutate_the_shared_graph(self):
        # ready_order_is_valid is the suite's cross-simulator oracle; the
        # simulators now share its graph, so none of them may edit it.
        program = build_benchmark("cholesky", 128, problem_size=512)
        NanosRuntimeSimulator(program, num_threads=4).run()
        PerfectScheduler(program, num_workers=4).run()
        killed = NanosRuntimeSimulator(
            program,
            num_threads=4,
            faults=(parse_fault_spec("kill-worker@cycle=2000:worker=1"),),
        ).run()
        assert killed.counters["faults_injected"] == 1
        # TaskGraph is a dataclass: == compares it field for field.
        assert task_graph(program) == build_task_graph(program)

    def test_the_oracle_refuses_a_broken_order_after_a_memoized_call(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        assert ready_order_is_valid(program, [0, 1])
        assert task_graph(program) is task_graph(program)
        assert not ready_order_is_valid(program, [1, 0])
