"""Behavioural tests for the Hardware-In-the-Loop simulator."""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.dependence_analysis import build_task_graph, ready_order_is_valid
from repro.runtime.task import Direction, TaskProgram
from repro.sim.driver import simulate_request
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import SimulationRequest
from repro.traces.synthetic import synthetic_case

from tests.helpers import make_program


A, B = 0x1000, 0x2000


def chain_program(length: int = 10, duration: int = 100) -> TaskProgram:
    return make_program(
        [[(A, Direction.INOUT)]] * length, durations=[duration] * length, name="chain"
    )


def independent_program(count: int = 20, duration: int = 100) -> TaskProgram:
    return make_program([[]] * count, durations=[duration] * count, name="independent")


class TestBasicExecution:
    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    def test_all_tasks_complete_in_every_mode(self, mode):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.OUT)],
                [(B, Direction.IN)],
                [],
            ],
            durations=[50, 60, 70, 80],
        )
        result = HILSimulator(program, mode=mode, num_workers=2).run()
        assert result.completed_all()
        assert result.num_tasks == 4
        assert result.makespan > 0

    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    def test_execution_order_respects_dependences(self, mode):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN)],
                [(A, Direction.IN)],
                [(A, Direction.INOUT)],
                [(B, Direction.OUT)],
                [(B, Direction.IN), (A, Direction.IN)],
            ],
            durations=[30] * 6,
        )
        result = HILSimulator(program, mode=mode, num_workers=3).run()
        assert ready_order_is_valid(program, result.start_order())

    def test_empty_program(self):
        result = HILSimulator(TaskProgram(name="empty"), num_workers=2).run()
        assert result.makespan == 0
        assert result.num_tasks == 0

    def test_single_worker_serialises_execution(self):
        program = independent_program(count=5, duration=1000)
        result = HILSimulator(program, mode=HILMode.HW_ONLY, num_workers=1).run()
        assert result.makespan >= 5 * 1000

    def test_timelines_are_monotonic(self):
        program = chain_program(length=6)
        result = HILSimulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2).run()
        for timeline in result.timelines.values():
            assert timeline.created <= timeline.submitted <= timeline.ready
            assert timeline.ready <= timeline.started <= timeline.finished


class TestDependenceEnforcement:
    def test_chain_executes_serially(self):
        program = chain_program(length=8, duration=500)
        result = HILSimulator(program, mode=HILMode.HW_ONLY, num_workers=8).run()
        starts = [result.timelines[i].started for i in range(8)]
        finishes = [result.timelines[i].finished for i in range(8)]
        for i in range(1, 8):
            assert starts[i] >= finishes[i - 1]

    def test_no_task_starts_before_predecessors_finish(self):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(B, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.IN)],
                [(A, Direction.INOUT)],
            ],
            durations=[100, 200, 50, 50],
        )
        graph = build_task_graph(program)
        result = HILSimulator(program, mode=HILMode.FULL_SYSTEM, num_workers=4).run()
        for pred, task_id in graph.edges():
            assert result.timelines[task_id].started >= result.timelines[pred].finished


class TestModesAndCosts:
    def test_mode_overheads_are_ordered(self):
        """Full-system pays more per task than HW+comm, which pays more than
        HW-only (Table IV)."""
        program = independent_program(count=30, duration=10)
        makespans = {
            mode: HILSimulator(program, mode=mode, num_workers=4).run().makespan
            for mode in HILMode
        }
        assert makespans[HILMode.HW_ONLY] < makespans[HILMode.HW_COMM]
        assert makespans[HILMode.HW_COMM] < makespans[HILMode.FULL_SYSTEM]

    def test_hw_only_first_task_latency_matches_config(self):
        program = independent_program(count=5)
        config = PicosConfig()
        result = HILSimulator(program, config=config, mode=HILMode.HW_ONLY, num_workers=2).run()
        assert result.first_task_latency() == config.new_task_ready_latency(0)

    def test_full_system_includes_startup_and_nanos_cost(self):
        program = independent_program(count=3, duration=10)
        config = PicosConfig()
        result = HILSimulator(
            program, config=config, mode=HILMode.FULL_SYSTEM, num_workers=2
        ).run()
        minimum = (
            config.hil_startup_cycles
            + config.nanos_submission_cycles(0)
            + config.comm_cycles
        )
        assert result.first_task_latency() >= minimum

    def test_more_workers_never_hurt_hw_only(self):
        program = independent_program(count=40, duration=2000)
        results = {
            workers: simulate_request(
                SimulationRequest.for_program(
                    program, backend="hil-hw", num_workers=workers
                )
            )
            for workers in (1, 2, 4, 8)
        }
        speedups = [results[w].speedup for w in sorted(results)]
        assert all(b >= a * 0.999 for a, b in zip(speedups, speedups[1:]))

    def test_speedup_bounded_by_worker_count(self):
        program = independent_program(count=64, duration=5000)
        for workers in (1, 2, 4):
            result = simulate_request(
                SimulationRequest.for_program(program, backend="hil-hw", num_workers=workers)
            )
            assert result.speedup <= workers + 1e-9


class TestSchedulingPolicy:
    def test_lifo_and_fifo_give_different_schedules(self):
        # Many independent tasks become ready in submission order; LIFO must
        # start the most recently queued ones first.
        program = independent_program(count=10, duration=10_000)
        fifo = HILSimulator(
            program, mode=HILMode.HW_ONLY, num_workers=1, policy=SchedulingPolicy.FIFO
        ).run()
        lifo = HILSimulator(
            program, mode=HILMode.HW_ONLY, num_workers=1, policy=SchedulingPolicy.LIFO
        ).run()
        assert fifo.start_order() != lifo.start_order()
        assert fifo.start_order() == sorted(fifo.start_order())


class TestCapacityStalls:
    def test_program_larger_than_task_memory_completes(self):
        config = PicosConfig(tm_entries=8)
        program = independent_program(count=100, duration=20)
        result = HILSimulator(program, config=config, mode=HILMode.HW_ONLY, num_workers=2).run()
        assert result.completed_all()
        assert result.counters["tm_full_stalls"] > 0

    def test_dm_conflicts_complete_despite_stalls(self):
        config = PicosConfig.paper_prototype(DMDesign.WAY8)
        spec = [[(0x4000_0000 + i * 512 * 1024, Direction.INOUT)] for i in range(40)]
        program = make_program(spec, durations=[30] * 40, name="aligned")
        result = HILSimulator(program, config=config, mode=HILMode.HW_ONLY, num_workers=4).run()
        assert result.completed_all()
        assert result.counters["dm_conflicts"] > 0

    def test_vm_exhaustion_completes(self):
        config = PicosConfig(vm_entries=4)
        program = chain_program(length=30, duration=10)
        result = HILSimulator(program, config=config, mode=HILMode.HW_ONLY, num_workers=2).run()
        assert result.completed_all()


class TestDesignComparison:
    def test_pearson_outperforms_direct_hash_on_wavefront(self):
        """The Figure 8 headline: for Heat-like wavefronts the Pearson design
        scales and the direct-hash designs stall on conflicts."""
        from repro.apps.heat import heat_program
        from repro.apps.common import scale_durations_to_mean

        program = heat_program(problem_size=1024, block_size=64)
        scale_durations_to_mean(program, 20_000)
        speedups = {}
        for design in (DMDesign.WAY8, DMDesign.PEARSON8):
            result = HILSimulator(
                program,
                config=PicosConfig.paper_prototype(design),
                mode=HILMode.HW_ONLY,
                num_workers=8,
            ).run()
            speedups[design] = result.speedup
        assert speedups[DMDesign.PEARSON8] > 1.5 * speedups[DMDesign.WAY8]


class TestSyntheticCasesEndToEnd:
    @pytest.mark.parametrize("case", ["case1", "case4", "case5", "case6", "case7"])
    def test_synthetic_cases_complete_in_full_system(self, case):
        program = synthetic_case(case)
        result = HILSimulator(program, mode=HILMode.FULL_SYSTEM, num_workers=12).run()
        assert result.completed_all()
        assert ready_order_is_valid(program, result.start_order())
