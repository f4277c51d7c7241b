"""Integration tests across the full stack (apps -> simulators -> analysis).

These tests exercise the same paths the experiment drivers use, on reduced
problem sizes, and assert the qualitative results the paper reports.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import build_benchmark
from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.dependence_analysis import build_task_graph, ready_order_is_valid
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.perfect import PerfectScheduler
from repro.sim.driver import simulate_request
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import SimulationRequest

#: Reduced problem size used throughout this module (same dependence
#: structure as the paper's 2048, four times fewer blocks per dimension).
SMALL = 1024


def run_picos(program, workers, backend="hil-full"):
    """The Picos prototype's result for ``program`` on ``workers`` workers."""
    return simulate_request(
        SimulationRequest.for_program(program, backend=backend, num_workers=workers)
    )


@pytest.fixture(scope="module")
def heat_fine():
    return build_benchmark("heat", 32, problem_size=SMALL)


@pytest.fixture(scope="module")
def cholesky_medium():
    return build_benchmark("cholesky", 128, problem_size=SMALL)


class TestEndToEndCorrectness:
    @pytest.mark.parametrize("bench,block", [("heat", 128), ("cholesky", 128), ("lu", 64), ("sparselu", 128)])
    def test_real_benchmarks_run_correctly_through_picos(self, bench, block):
        program = build_benchmark(bench, block, problem_size=SMALL)
        result = run_picos(program, 8)
        assert result.completed_all()
        assert ready_order_is_valid(program, result.start_order())

    def test_h264dec_runs_correctly_through_picos(self):
        program = build_benchmark("h264dec", 8, problem_size=2)
        result = run_picos(program, 8)
        assert result.completed_all()
        assert ready_order_is_valid(program, result.start_order())

    def test_all_three_simulators_agree_on_dependence_constraints(self, cholesky_medium):
        graph = build_task_graph(cholesky_medium)
        picos = run_picos(cholesky_medium, 6, backend="hil-hw")
        perfect = PerfectScheduler(cholesky_medium, num_workers=6).run()
        nanos = NanosRuntimeSimulator(cholesky_medium, num_threads=6).run()
        for result in (picos, perfect, nanos):
            for task_id, preds in graph.predecessors.items():
                for pred in preds:
                    assert (
                        result.timelines[task_id].started
                        >= result.timelines[pred].finished
                    )


class TestPaperQualitativeClaims:
    def test_picos_tracks_roofline_for_medium_granularity(self, cholesky_medium):
        """Figure 11: the prototype reaches nearly the Perfect-Simulator
        speedup for medium block sizes."""
        for workers in (4, 8):
            picos = run_picos(cholesky_medium, workers).speedup
            perfect = PerfectScheduler(cholesky_medium, num_workers=workers).run().speedup
            assert picos >= 0.85 * perfect

    def test_picos_beats_nanos_for_fine_granularity(self, heat_fine):
        """Figure 11a: for fine-grained Heat the prototype clearly
        outperforms the software-only runtime."""
        picos = run_picos(heat_fine, 8).speedup
        nanos = NanosRuntimeSimulator(heat_fine, num_threads=8).run().speedup
        assert picos > 1.5 * nanos

    def test_nanos_saturates_while_picos_keeps_scaling(self, heat_fine):
        """Figure 11: Nanos++ peaks at a small worker count; the prototype
        keeps improving with more workers."""
        worker_counts = (4, 8, 16)
        picos = [run_picos(heat_fine, w).speedup for w in worker_counts]
        nanos = [
            NanosRuntimeSimulator(heat_fine, num_threads=w).run().speedup
            for w in worker_counts
        ]
        assert picos[-1] > picos[0]
        assert max(nanos) == pytest.approx(nanos[0], rel=0.35) or nanos[-1] < nanos[0]

    def test_granularity_collapse_only_affects_software(self):
        """Figure 1 vs Figure 11: shrinking the block size hurts Nanos++ far
        more than it hurts the prototype."""
        coarse = build_benchmark("cholesky", 128, problem_size=SMALL)
        fine = build_benchmark("cholesky", 32, problem_size=SMALL)
        nanos_drop = (
            NanosRuntimeSimulator(fine, 8).run().speedup
            / NanosRuntimeSimulator(coarse, 8).run().speedup
        )
        picos_drop = run_picos(fine, 8).speedup / run_picos(coarse, 8).speedup
        assert nanos_drop < 0.5
        assert picos_drop > nanos_drop

    def test_pearson_design_wins_on_heat(self, heat_fine):
        """Figure 8: the P+8way design beats the direct-hash designs on the
        wavefront benchmark."""
        speedups = {}
        for design in DMDesign:
            speedups[design] = HILSimulator(
                heat_fine,
                config=PicosConfig.paper_prototype(design),
                mode=HILMode.HW_ONLY,
                num_workers=8,
            ).run().speedup
        assert speedups[DMDesign.PEARSON8] > speedups[DMDesign.WAY8]
        assert speedups[DMDesign.PEARSON8] > speedups[DMDesign.WAY16]

    def test_lu_corner_case_and_its_fixes(self):
        """Figure 9: with the original Lu creation order the 16-way design
        can beat Pearson; reversing the creation order or using a LIFO ready
        queue restores the Pearson advantage."""
        lu = build_benchmark("lu", 32, problem_size=SMALL)
        mlu = build_benchmark("mlu", 32, problem_size=SMALL)

        def speedup(program, design, policy=SchedulingPolicy.FIFO):
            return HILSimulator(
                program,
                config=PicosConfig.paper_prototype(design),
                mode=HILMode.HW_ONLY,
                num_workers=12,
                policy=policy,
            ).run().speedup

        original_pearson = speedup(lu, DMDesign.PEARSON8)
        mlu_pearson = speedup(mlu, DMDesign.PEARSON8)
        lifo_pearson = speedup(lu, DMDesign.PEARSON8, SchedulingPolicy.LIFO)
        assert mlu_pearson > original_pearson
        assert lifo_pearson > original_pearson

    def test_dm_conflicts_vanish_with_pearson(self):
        """Table II: the direct-hash designs conflict heavily, Pearson does
        not."""
        program = build_benchmark("cholesky", 128, problem_size=SMALL)
        conflicts = {}
        for design in DMDesign:
            result = HILSimulator(
                program,
                config=PicosConfig.paper_prototype(design),
                mode=HILMode.HW_ONLY,
                num_workers=12,
            ).run()
            conflicts[design] = result.counters["dm_conflicts"]
        assert conflicts[DMDesign.WAY8] > 50
        assert conflicts[DMDesign.WAY16] > 20
        assert conflicts[DMDesign.WAY8] >= conflicts[DMDesign.WAY16]
        assert conflicts[DMDesign.PEARSON8] <= 5

    def test_worker_sweep_is_monotone_for_picos_on_coarse_tasks(self):
        program = build_benchmark("lu", 128, problem_size=SMALL)
        speedups = [run_picos(program, w).speedup for w in (2, 4, 8)]
        assert speedups[0] < speedups[1] <= speedups[2] * 1.05
