"""Unit tests for the task / dependence model."""

from __future__ import annotations

import pytest

from repro.runtime.task import Dependence, DependencePool, Direction, Task, TaskProgram


class TestDirection:
    def test_reads_and_writes_flags(self):
        assert Direction.IN.reads and not Direction.IN.writes
        assert Direction.OUT.writes and not Direction.OUT.reads
        assert Direction.INOUT.reads and Direction.INOUT.writes

    def test_parse_canonical_forms(self):
        assert Direction.parse("in") is Direction.IN
        assert Direction.parse("out") is Direction.OUT
        assert Direction.parse("inout") is Direction.INOUT

    def test_parse_synonyms(self):
        assert Direction.parse("input") is Direction.IN
        assert Direction.parse("output") is Direction.OUT
        assert Direction.parse("rw") is Direction.INOUT
        assert Direction.parse("  READ ") is Direction.IN

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Direction.parse("sideways")

    def test_merge_same_direction_is_identity(self):
        for direction in Direction:
            assert direction.merged_with(direction) is direction

    def test_merge_different_directions_is_inout(self):
        assert Direction.IN.merged_with(Direction.OUT) is Direction.INOUT
        assert Direction.OUT.merged_with(Direction.IN) is Direction.INOUT
        assert Direction.IN.merged_with(Direction.INOUT) is Direction.INOUT


class TestDependence:
    def test_roles(self):
        assert Dependence(0x100, Direction.IN).is_consumer
        assert not Dependence(0x100, Direction.IN).is_producer
        assert Dependence(0x100, Direction.OUT).is_producer
        assert Dependence(0x100, Direction.INOUT).is_producer

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Dependence(-1, Direction.IN)

    def test_dependences_are_hashable_and_comparable(self):
        a = Dependence(0x100, Direction.IN)
        b = Dependence(0x100, Direction.IN)
        assert a == b
        assert hash(a) == hash(b)


class TestTask:
    def test_basic_construction(self):
        task = Task(task_id=3, dependences=[Dependence(0x10, Direction.IN)], duration=5)
        assert task.task_id == 3
        assert task.num_dependences == 1
        assert task.duration == 5

    def test_duplicate_addresses_are_merged(self):
        task = Task(
            task_id=0,
            dependences=[
                Dependence(0x10, Direction.IN),
                Dependence(0x10, Direction.OUT),
                Dependence(0x20, Direction.IN),
            ],
        )
        assert task.num_dependences == 2
        merged = {d.address: d.direction for d in task.dependences}
        assert merged[0x10] is Direction.INOUT
        assert merged[0x20] is Direction.IN

    def test_merge_preserves_first_appearance_order(self):
        task = Task(
            task_id=0,
            dependences=[
                Dependence(0x30, Direction.IN),
                Dependence(0x10, Direction.IN),
                Dependence(0x30, Direction.IN),
            ],
        )
        assert task.addresses == (0x30, 0x10)

    def test_reads_and_writes(self):
        task = Task(
            task_id=0,
            dependences=[
                Dependence(0x10, Direction.IN),
                Dependence(0x20, Direction.OUT),
                Dependence(0x30, Direction.INOUT),
            ],
        )
        assert set(task.reads()) == {0x10, 0x30}
        assert set(task.writes()) == {0x20, 0x30}

    def test_a_task_owns_its_list_and_shares_its_values(self):
        dependences = [Dependence(0x10, Direction.IN), Dependence(0x20, Direction.OUT)]
        task = Task(task_id=0, dependences=dependences)
        assert task.dependences is not dependences
        assert all(a is b for a, b in zip(task.dependences, dependences))
        dependences.append(Dependence(0x30, Direction.IN))
        assert task.num_dependences == 2

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            Task(task_id=-1)
        with pytest.raises(ValueError):
            Task(task_id=0, duration=-2)
        with pytest.raises(ValueError):
            Task(task_id=0, creation_cycles=-1)


class TestTaskProgram:
    def test_create_task_assigns_sequential_ids(self):
        program = TaskProgram(name="p")
        first = program.create_task()
        second = program.create_task()
        assert (first.task_id, second.task_id) == (0, 1)
        assert len(program) == 2

    def test_create_task_accepts_any_sequence(self):
        program = TaskProgram()
        shared = (Dependence(0x10, Direction.IN),)
        task = program.create_task(shared)
        assert task.dependences == list(shared) and task.dependences[0] is shared[0]

    def test_duplicate_task_ids_rejected(self):
        program = TaskProgram()
        program.add_task(Task(task_id=0))
        with pytest.raises(ValueError):
            program.add_task(Task(task_id=0))

    def test_lookup_and_iteration(self):
        program = TaskProgram()
        for _ in range(5):
            program.create_task(duration=7)
        assert [t.task_id for t in program] == list(range(5))
        assert program.task(3).task_id == 3
        assert program[2].task_id == 2

    def test_aggregate_metrics(self):
        program = TaskProgram()
        program.create_task([Dependence(0x10, Direction.IN)], duration=10)
        program.create_task(
            [Dependence(0x10, Direction.OUT), Dependence(0x20, Direction.IN)],
            duration=30,
        )
        assert program.num_tasks == 2
        assert program.sequential_cycles == 40
        assert program.average_task_size == 20
        assert program.dependence_count_range == (1, 2)
        assert program.average_dependences == 1.5
        assert program.max_dependences == 2

    def test_empty_program_metrics(self):
        program = TaskProgram()
        assert program.sequential_cycles == 0
        assert program.average_task_size == 0.0
        assert program.dependence_count_range == (0, 0)
        assert program.average_dependences == 0.0
        assert program.max_dependences == 0

    def test_unique_addresses_order(self):
        program = TaskProgram()
        program.create_task([Dependence(0x30, Direction.IN)])
        program.create_task(
            [Dependence(0x10, Direction.OUT), Dependence(0x30, Direction.IN)]
        )
        assert program.unique_addresses() == (0x30, 0x10)

    def test_summary_contents(self):
        program = TaskProgram(name="bench")
        program.create_task(duration=4)
        summary = program.summary()
        assert summary["name"] == "bench"
        assert summary["num_tasks"] == 1
        assert summary["sequential_cycles"] == 4

    def test_with_creation_order_permutes(self):
        program = TaskProgram(name="p")
        for i in range(4):
            program.create_task(duration=i + 1)
        reordered = program.with_creation_order([3, 1, 0, 2])
        assert [t.task_id for t in reordered] == [3, 1, 0, 2]
        assert reordered.sequential_cycles == program.sequential_cycles

    def test_with_creation_order_requires_permutation(self):
        program = TaskProgram()
        program.create_task()
        program.create_task()
        with pytest.raises(ValueError):
            program.with_creation_order([0, 0])


class TestDependencePool:
    def test_one_value_per_address_and_direction(self):
        pool = DependencePool()
        assert pool.input(0x10) is pool.input(0x10)
        assert pool.inout(0x10) is pool.get(0x10, Direction.INOUT)
        assert pool.output(0x10) is pool.get(0x10, Direction.OUT)
        assert pool.get(0x10, Direction.IN) is pool.input(0x10)
        values = {pool.input(0x10), pool.output(0x10), pool.inout(0x10)}
        assert values == {
            Dependence(0x10, Direction.IN),
            Dependence(0x10, Direction.OUT),
            Dependence(0x10, Direction.INOUT),
        }

    def test_pools_do_not_share(self):
        assert DependencePool().input(0x10) is not DependencePool().input(0x10)

    def test_negative_address_still_rejected(self):
        with pytest.raises(ValueError):
            DependencePool().input(-1)
