"""Property-based tests (hypothesis) on the core invariants.

The central property: for *any* task program, the Picos hardware model must
realise exactly the OmpSs dependence semantics computed by the reference
software analysis, never deadlock, and leave no state behind once every
task has finished.
"""

from __future__ import annotations

from typing import List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DMDesign, PicosConfig
from repro.core.hashing import pearson_fold, pearson_index
from repro.core.picos import PicosAccelerator
from repro.core.scheduler import SchedulingPolicy, TaskScheduler
from repro.runtime.dependence_analysis import (
    build_task_graph,
    ready_order_is_valid,
    task_graph,
)
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.backend import get_backend
from repro.sim.hil import HILMode, HILSimulator
from repro.traces.trace import TaskTrace

from tests.helpers import drain_functional


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_DIRECTIONS = st.sampled_from(list(Direction))
#: A small pool of addresses so random programs share data and build chains.
_ADDRESSES = st.sampled_from([0x1000 * i for i in range(1, 9)])


@st.composite
def task_programs(draw, max_tasks: int = 24, max_deps: int = 4) -> TaskProgram:
    """Random task programs over a small shared address pool."""
    num_tasks = draw(st.integers(min_value=1, max_value=max_tasks))
    program = TaskProgram(name="random")
    for task_id in range(num_tasks):
        num_deps = draw(st.integers(min_value=0, max_value=max_deps))
        deps: List[Dependence] = []
        for _ in range(num_deps):
            deps.append(Dependence(draw(_ADDRESSES), draw(_DIRECTIONS)))
        duration = draw(st.integers(min_value=1, max_value=50))
        program.add_task(Task(task_id=task_id, dependences=deps, duration=duration))
    return program


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# hardware-model vs reference-analysis equivalence
# ----------------------------------------------------------------------
class TestPicosMatchesReferenceSemantics:
    @_SETTINGS
    @given(program=task_programs())
    def test_functional_drain_respects_dependences_and_drains(self, program):
        accelerator = PicosAccelerator(PicosConfig())
        order = drain_functional(accelerator, program)
        assert sorted(order) == list(range(program.num_tasks))
        assert ready_order_is_valid(program, order)
        assert accelerator.is_drained()

    @_SETTINGS
    @given(program=task_programs(max_tasks=16))
    def test_all_dm_designs_agree_on_semantics(self, program):
        orders = []
        for design in DMDesign:
            accelerator = PicosAccelerator(PicosConfig.paper_prototype(design))
            order = drain_functional(accelerator, program)
            assert ready_order_is_valid(program, order)
            orders.append(sorted(order))
        assert orders[0] == orders[1] == orders[2]

    @_SETTINGS
    @given(program=task_programs(max_tasks=14))
    def test_tiny_memories_never_deadlock(self, program):
        """Capacity stalls (TM / VM / DM) must delay, never deadlock."""
        config = PicosConfig(
            tm_entries=3, vm_entries=6, dm_sets=2, max_deps_per_task=4
        )
        accelerator = PicosAccelerator(config)
        order = drain_functional(accelerator, program)
        assert sorted(order) == list(range(program.num_tasks))
        assert accelerator.is_drained()

    @_SETTINGS
    @given(program=task_programs(max_tasks=16))
    def test_hil_start_times_respect_dependence_graph(self, program):
        graph = build_task_graph(program)
        result = HILSimulator(
            program, mode=HILMode.HW_ONLY, num_workers=3
        ).run()
        assert result.completed_all()
        for pred, task_id in graph.edges():
            assert result.timelines[task_id].started >= result.timelines[pred].finished


# ----------------------------------------------------------------------
# cross-simulator invariants
# ----------------------------------------------------------------------
class TestCrossSimulatorInvariants:
    @_SETTINGS
    @given(program=task_programs(max_tasks=16), workers=st.integers(1, 6))
    def test_no_simulated_system_beats_perfect_on_small_graphs(self, program, workers):
        """On graphs of up to 16 tasks neither HW-only Picos nor Nanos++
        finishes before ``perfect``.

        That does not hold in general: the zero-overhead Nanos++ schedule
        is a greedy list schedule, not a bound.
        """
        perfect = get_backend("perfect").simulator(program, num_workers=workers).run()
        hw_only = HILSimulator(program, mode=HILMode.HW_ONLY, num_workers=workers).run()
        nanos = NanosRuntimeSimulator(program, num_threads=workers).run()
        assert hw_only.makespan >= perfect.makespan
        assert nanos.makespan >= perfect.makespan

    @_SETTINGS
    @given(program=task_programs(max_tasks=16), workers=st.integers(1, 6))
    def test_speedup_never_exceeds_workers_or_parallelism(self, program, workers):
        result = get_backend("perfect").simulator(program, num_workers=workers).run()
        assert result.speedup <= workers + 1e-9
        assert result.speedup <= task_graph(program).max_parallelism() + 1e-9


# ----------------------------------------------------------------------
# data-structure properties
# ----------------------------------------------------------------------
class TestHashingProperties:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_pearson_fold_is_a_byte(self, address):
        assert 0 <= pearson_fold(address) <= 255

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_pearson_index_stable_and_in_range(self, address):
        first = pearson_index(address, 64)
        assert first == pearson_index(address, 64)
        assert 0 <= first < 64

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200))
    def test_pearson_spreads_aligned_streams_better_than_direct(self, offsets):
        """For any set of 1 MiB-aligned addresses the Pearson index never
        uses fewer sets than the direct index."""
        addresses = [0x4000_0000 + (offset << 20) for offset in offsets]
        direct_sets = {address % 64 for address in addresses}
        pearson_sets = {pearson_index(address, 64) for address in addresses}
        assert len(pearson_sets) >= len(direct_sets)


class TestSchedulerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    def test_fifo_preserves_order_lifo_reverses(self, tasks):
        fifo = TaskScheduler(SchedulingPolicy.FIFO)
        lifo = TaskScheduler(SchedulingPolicy.LIFO)
        for task in tasks:
            fifo.push(task)
            lifo.push(task)
        assert [fifo.pop() for _ in tasks] == list(tasks)
        assert [lifo.pop() for _ in tasks] == list(reversed(tasks))


class TestTraceRoundTrip:
    @_SETTINGS
    @given(program=task_programs(max_tasks=20))
    def test_trace_serialisation_round_trips(self, program):
        trace = TaskTrace(program)
        restored = TaskTrace.parses(trace.dumps())
        assert restored.program.num_tasks == program.num_tasks
        for original, parsed in zip(program, restored.program):
            assert original.task_id == parsed.task_id
            assert original.duration == parsed.duration
            assert original.dependences == parsed.dependences


class TestTaskMergeProperties:
    @given(
        st.lists(
            st.tuples(_ADDRESSES, _DIRECTIONS),
            min_size=0,
            max_size=10,
        )
    )
    def test_merged_dependences_are_unique_and_union_semantics(self, dep_spec):
        task = Task(0, [Dependence(a, d) for a, d in dep_spec])
        addresses = [d.address for d in task.dependences]
        assert len(addresses) == len(set(addresses))
        for dep in task.dependences:
            originals = [d for a, d in dep_spec if a == dep.address]
            assert dep.direction.reads == any(d.reads for d in originals)
            assert dep.direction.writes == any(d.writes for d in originals)
