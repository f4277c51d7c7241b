"""Unit tests for the exact software dependence analysis."""

from __future__ import annotations

import gc
import sys

import pytest

from repro.apps.common import scale_durations_to_mean
from repro.apps.registry import build_benchmark
from repro.faults.scenario import parse_fault_spec
from repro.runtime.dependence_analysis import (
    build_task_graph,
    ready_order_is_valid,
    task_graph,
)
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.backend import get_backend

from tests.helpers import make_program


A, B, C = 0x1000, 0x2000, 0x3000


def _predecessors_of_last(*spec):
    """Predecessor ids of the last task of a program built from ``spec``."""
    program = make_program(spec)
    return build_task_graph(program).predecessors(program.num_tasks - 1)


class TestDependenceRules:
    """The last-writer / reader-set rules of :func:`build_task_graph`."""

    def test_reader_after_writer_waits_for_writer(self):
        assert _predecessors_of_last([(A, Direction.OUT)], [(A, Direction.IN)]) == {0}

    def test_reader_without_writer_is_independent(self):
        assert _predecessors_of_last([(A, Direction.IN)]) == frozenset()

    def test_readers_do_not_depend_on_each_other(self):
        preds = _predecessors_of_last(
            [(A, Direction.OUT)], [(A, Direction.IN)], [(A, Direction.IN)]
        )
        assert preds == {0}

    def test_writer_waits_for_previous_readers_and_writer(self):
        preds = _predecessors_of_last(
            [(A, Direction.OUT)],
            [(A, Direction.IN)],
            [(A, Direction.IN)],
            [(A, Direction.OUT)],
        )
        assert preds == {0, 1, 2}

    def test_inout_chain_serialises(self):
        graph = build_task_graph(make_program([[(A, Direction.INOUT)]] * 3))
        assert graph.predecessors(1) == {0}
        assert graph.predecessors(2) == {1}

    def test_writer_after_writer_only_waits_for_last_writer(self):
        preds = _predecessors_of_last(
            [(A, Direction.OUT)], [(A, Direction.OUT)], [(A, Direction.OUT)]
        )
        assert preds == {1}

    def test_independent_addresses_do_not_interact(self):
        assert _predecessors_of_last([(A, Direction.OUT)], [(B, Direction.INOUT)]) == frozenset()

    def test_multi_dependence_task_gathers_all_predecessors(self):
        preds = _predecessors_of_last(
            [(A, Direction.OUT)],
            [(B, Direction.OUT)],
            [(A, Direction.IN), (B, Direction.IN)],
        )
        assert preds == {0, 1}

    def test_a_predecessor_on_two_addresses_counts_once(self):
        program = make_program(
            [[(A, Direction.OUT), (B, Direction.OUT)], [(A, Direction.IN), (B, Direction.INOUT)]]
        )
        graph = build_task_graph(program)
        assert graph.pred_counts == [0, 1]
        assert graph.edges() == [(0, 1)]

    def test_predecessors_of_an_unknown_task(self):
        graph = build_task_graph(make_program([[(A, Direction.OUT)]]))
        with pytest.raises(KeyError):
            graph.predecessors(7)


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
        assert graph.predecessors(1) == {0}
        assert graph.predecessors(2) == {0}
        assert graph.predecessors(3) == {0, 1, 2}
        assert graph.num_edges == 5

    def test_graph_is_a_csr_over_rows(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN)],
                [(A, Direction.IN)],
                [(A, Direction.INOUT)],
            ],
            durations=[1, 2, 3, 4],
        )
        graph = build_task_graph(program)
        assert graph.pred_counts == [0, 1, 1, 3]
        assert graph.succ_offsets == [0, 3, 4, 5, 5]
        assert sorted(graph.successor_rows(0)) == [1, 2, 3]
        assert graph.successor_rows(1) == [3] and graph.successor_rows(3) == []
        assert graph.durations == [1, 2, 3, 4]
        assert graph.task_ids == [0, 1, 2, 3]

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

    def test_empty_program(self):
        graph = build_task_graph(TaskProgram())
        assert graph.num_tasks == graph.num_edges == 0
        assert graph.critical_path_length() == 0
        assert graph.level_widths() == [] and graph.roots() == []

    def test_edges_follow_creation_order_whatever_the_ids(self):
        # Task 1 is created first and writes A, task 0 then reads it: the
        # edge 1 -> 0 runs against the ids but with creation order.
        program = TaskProgram(
            [Task(1, [Dependence(A, Direction.OUT)]), Task(0, [Dependence(A, Direction.IN)])]
        )
        graph = build_task_graph(program)
        assert graph.task_ids == [1, 0]
        assert graph.edges() == [(1, 0)]
        assert graph.successor_rows(0) == [1]
        assert graph.predecessors(0) == {1}
        assert graph.roots() == [1]

    def test_a_repeated_address_makes_no_self_edge(self):
        program = TaskProgram(
            [Task(0, [Dependence(A, Direction.IN), Dependence(A, Direction.OUT)], duration=5)]
        )
        graph = build_task_graph(program)
        assert graph.num_edges == 0
        assert graph.critical_path_length() == 5

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
        assert get_backend("perfect").simulator(program, num_workers=4).graph is graph

    def test_adding_a_task_drops_the_memo(self):
        program = make_program([[(A, Direction.OUT)], [(B, Direction.OUT)]])
        before = task_graph(program)
        program.create_task([Dependence(A, Direction.IN)])
        after = task_graph(program)
        assert after is not before
        assert after.num_tasks == 3
        assert after.predecessors(2) == {0}
        assert after == build_task_graph(program)

    def test_rescaling_durations_drops_the_memo(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        task_graph(program)
        scale_durations_to_mean(program, 1_000)
        assert task_graph(program).durations == [1_000, 1_000]
        assert task_graph(program) == build_task_graph(program)

    def test_runs_never_mutate_the_shared_graph(self):
        # ready_order_is_valid is the suite's cross-simulator oracle; the
        # simulators now share its graph, so none of them may edit it.
        program = build_benchmark("cholesky", 128, problem_size=512)
        NanosRuntimeSimulator(program, num_threads=4).run()
        get_backend("perfect").simulator(program, num_workers=4).run()
        killed = NanosRuntimeSimulator(
            program,
            num_threads=4,
            faults=(parse_fault_spec("kill-worker@cycle=2000:worker=1"),),
        ).run()
        assert killed.counters["faults_injected"] == 1
        # TaskGraph is a dataclass: == compares it field for field.
        assert task_graph(program) == build_task_graph(program)

    def test_a_program_and_its_graph_cost_their_distinct_values(self):
        # cholesky/32: 45 760 tasks, 133 120 dependences on 4 159 distinct
        # values, 131 040 edges.  The collector tracks each task and its
        # dependence list, each distinct Dependence once, and a handful of
        # flat lists for the whole graph.
        gc.collect()
        before = len(gc.get_objects())
        program = build_benchmark("cholesky", 32)
        gc.collect()
        built = len(gc.get_objects())
        graph = task_graph(program)
        gc.collect()
        after = len(gc.get_objects())
        assert graph.num_edges == 131_040
        assert after - built < 50
        limit = 100_000
        if sys.version_info < (3, 11):
            # Before 3.11 every instance gets its namespace dict eagerly,
            # and the collector tracks it: one more object per Task and
            # per distinct Dependence.
            distinct = {id(dep) for task in program for dep in task.dependences}
            limit += program.num_tasks + len(distinct)
        assert after - before < limit

    def test_the_oracle_refuses_a_broken_order_after_a_memoized_call(self):
        program = make_program([[(A, Direction.OUT)], [(A, Direction.IN)]])
        assert ready_order_is_valid(program, [0, 1])
        assert task_graph(program) is task_graph(program)
        assert not ready_order_is_valid(program, [1, 0])
