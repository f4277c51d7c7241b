"""Tests for the trace format and the synthetic benchmarks."""

from __future__ import annotations

import io

import pytest

from repro.runtime.dependence_analysis import build_task_graph
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.traces.synthetic import (
    SYNTHETIC_CASES,
    TASKS_PER_CASE,
    first_and_average_dependences,
    synthetic_case,
    synthetic_case_names,
)
from repro.traces.trace import TaskTrace, TraceFormatError, load_trace, save_trace



A, B = 0x1000, 0x2000


class TestTraceSerialisation:
    def _example(self) -> TaskTrace:
        program = TaskProgram(name="example")
        program.add_task(
            Task(0, [Dependence(A, Direction.OUT)], duration=120, creation_cycles=7, label="producer")
        )
        program.add_task(
            Task(1, [Dependence(A, Direction.IN), Dependence(B, Direction.INOUT)], duration=80)
        )
        program.add_task(Task(2, [], duration=5, label="leaf"))
        return TaskTrace(program)

    def test_round_trip_preserves_everything(self):
        trace = self._example()
        text = trace.dumps()
        parsed = TaskTrace.parses(text)
        assert parsed.name == "example"
        assert parsed.program.num_tasks == 3
        for original, restored in zip(trace.program, parsed.program):
            assert original.task_id == restored.task_id
            assert original.duration == restored.duration
            assert original.creation_cycles == restored.creation_cycles
            assert original.label == restored.label
            assert original.dependences == restored.dependences

    def test_parsing_shares_one_dependence_per_distinct_value(self):
        text = "# picos-trace v1 name=x\ntask 0\ndep 0x1000 in\ntask 1\ndep 0x1000 in\n"
        first, second = TaskTrace.parses(text).program
        assert first.dependences[0] is second.dependences[0]

    def test_file_round_trip(self, tmp_path):
        trace = self._example()
        path = save_trace(trace, tmp_path / "example.trace")
        loaded = load_trace(path)
        assert loaded.program.num_tasks == 3
        assert loaded.program.sequential_cycles == trace.program.sequential_cycles

    def test_len_and_from_tasks(self):
        trace = TaskTrace.from_tasks([Task(0), Task(1)], name="two")
        assert len(trace) == 2
        assert trace.name == "two"

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError):
            TaskTrace.parse(io.StringIO("task 0 dur=1\n"))

    def test_dep_before_task_rejected(self):
        text = "# picos-trace v1 name=x\ndep 0x10 in\n"
        with pytest.raises(TraceFormatError):
            TaskTrace.parses(text)

    def test_unknown_record_rejected(self):
        text = "# picos-trace v1 name=x\nbogus 1 2 3\n"
        with pytest.raises(TraceFormatError):
            TaskTrace.parses(text)

    def test_bad_direction_rejected(self):
        text = "# picos-trace v1 name=x\ntask 0 dur=1\ndep 0x10 sideways\n"
        with pytest.raises(TraceFormatError):
            TaskTrace.parses(text)

    def test_bad_task_fields_rejected(self):
        for line in ("task x dur=1", "task 0 bogus=3", "task 0 dur"):
            text = f"# picos-trace v1 name=x\n{line}\n"
            with pytest.raises(TraceFormatError):
                TaskTrace.parses(text)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("task 0 dur=1\ndep -0x10 in", 3),
            ("task 0\ntask 0", 3),
            ("task -1", 2),
            ("task 0 dur=x", 2),
            ("task 0 create=y", 2),
            ("task 0 dur=-3", 2),
        ],
        ids=[
            "negative-address",
            "repeated-task",
            "negative-task",
            "non-integer-duration",
            "non-integer-creation",
            "negative-duration",
        ],
    )
    def test_bad_values_are_format_errors_naming_their_line(self, body, line):
        text = f"# picos-trace v1 name=x\n{body}\n"
        with pytest.raises(TraceFormatError, match=rf"^line {line}: "):
            TaskTrace.parses(text)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# picos-trace v1 name=x\n"
            "\n"
            "# a comment\n"
            "task 0 dur=3\n"
            "dep 0x10 in\n"
        )
        parsed = TaskTrace.parses(text)
        assert parsed.program.num_tasks == 1


class TestSyntheticCases:
    def test_registry_has_seven_cases(self):
        assert len(SYNTHETIC_CASES) == 7
        assert synthetic_case_names() == tuple(f"case{i}" for i in range(1, 8))

    @pytest.mark.parametrize("name", list(SYNTHETIC_CASES))
    def test_each_case_has_100_single_cycle_tasks(self, name):
        program = synthetic_case(name)
        assert program.num_tasks == TASKS_PER_CASE
        assert all(task.duration == 1 for task in program)

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            synthetic_case("case99")

    @pytest.mark.parametrize(
        "name,expected_first,expected_avg",
        [
            ("case1", 0, 0.0),
            ("case2", 1, 1.0),
            ("case3", 15, 15.0),
            ("case4", 1, 1.0),
            ("case5", 2, 2.0),
            ("case6", 11, 2.0),
            ("case7", 11, 11.0),
        ],
    )
    def test_dependence_counts_match_table4(self, name, expected_first, expected_avg):
        program = synthetic_case(name)
        first, avg = first_and_average_dependences(program)
        assert first == expected_first
        assert avg == pytest.approx(expected_avg, abs=0.01)

    def test_cases_1_to_3_are_fully_independent(self):
        for name in ("case1", "case2", "case3"):
            graph = build_task_graph(synthetic_case(name))
            assert graph.num_edges == 0

    def test_case4_is_a_single_chain(self):
        graph = build_task_graph(synthetic_case("case4"))
        assert graph.num_edges == TASKS_PER_CASE - 1
        assert graph.max_parallelism() == pytest.approx(1.0)

    def test_case5_is_producer_with_consumers(self):
        graph = build_task_graph(synthetic_case("case5"))
        # Each set: 9 consumers depend on 1 producer.
        assert graph.num_edges == 90
        widths = graph.level_widths()
        assert widths[0] == 10  # the ten producers are independent roots

    def test_case6_is_consumer_gathering_producers(self):
        graph = build_task_graph(synthetic_case("case6"))
        # Consumers of sets 1..9 gather the nine producers of the previous set.
        assert graph.num_edges == 9 * 9

    def test_case7_tasks_all_carry_eleven_dependences(self):
        program = synthetic_case("case7")
        assert all(task.num_dependences == 11 for task in program)
        graph = build_task_graph(program)
        assert graph.num_edges > 0

    def test_first_and_average_of_empty_program(self):
        assert first_and_average_dependences(TaskProgram()) == (0, 0.0)

    def test_addresses_do_not_collide_across_cases(self):
        """Each case uses its own address range, so mixing them in one
        experiment never creates accidental dependences."""
        seen = {}
        for name in ("case4", "case5", "case6", "case7"):
            program = synthetic_case(name)
            for address in program.unique_addresses():
                assert seen.setdefault(address, name) == name
