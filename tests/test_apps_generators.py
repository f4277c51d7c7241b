"""Tests for the application task-graph generators."""

from __future__ import annotations

import pytest

from repro.apps.cholesky import cholesky_program, cholesky_task_count
from repro.apps.common import BlockAddressMap, scale_durations_to_mean, validate_blocking
from repro.apps.h264dec import h264dec_program, h264dec_task_count
from repro.apps.heat import heat_program, heat_task_count
from repro.apps.lu import lu_program, lu_task_count, modified_lu_program
from repro.apps.sparselu import density, initial_structure, sparselu_program
from repro.runtime.dependence_analysis import build_task_graph
from repro.runtime.task import Direction


class TestCommonHelpers:
    def test_validate_blocking(self):
        assert validate_blocking(2048, 256) == 8
        with pytest.raises(ValueError):
            validate_blocking(2048, 300)
        with pytest.raises(ValueError):
            validate_blocking(0, 32)

    def test_block_address_map_layout(self):
        grid = BlockAddressMap(num_blocks=4, block_size=64)
        assert grid.block_bytes == 64 * 64 * 8
        assert grid.address(0, 1) - grid.address(0, 0) == grid.block_bytes
        assert grid.address(1, 0) - grid.address(0, 0) == 4 * grid.block_bytes
        with pytest.raises(IndexError):
            grid.address(4, 0)

    def test_block_addresses_are_block_aligned(self):
        """The property that makes the direct-hash DM conflict: block
        addresses are multiples of a large power-of-two-ish stride."""
        grid = BlockAddressMap(num_blocks=8, block_size=128)
        for i in range(8):
            for j in range(8):
                assert (grid.address(i, j) - grid.base) % grid.block_bytes == 0

    def test_next_matrix_base_does_not_overlap(self):
        grid = BlockAddressMap(num_blocks=8, block_size=64)
        assert grid.next_matrix_base() > grid.address(7, 7)

    def test_scale_durations_to_mean(self):
        program = heat_program(512, 128)
        scale_durations_to_mean(program, 1000.0)
        assert program.average_task_size == pytest.approx(1000.0, rel=0.01)
        with pytest.raises(ValueError):
            scale_durations_to_mean(program, 0)


class TestHeat:
    def test_task_count_matches_table1(self):
        assert heat_task_count(2048, 256) == 64
        assert heat_task_count(2048, 32) == 4096
        assert heat_program(2048, 128).num_tasks == 256

    def test_dependence_counts(self):
        program = heat_program(1024, 128)  # 8x8 blocks
        counts = [task.num_dependences for task in program]
        assert max(counts) == 5   # interior blocks
        assert min(counts) == 3   # corner blocks

    def test_wavefront_structure(self):
        program = heat_program(512, 128)  # 4x4 blocks
        graph = build_task_graph(program)
        # The first task has no predecessors, the last depends on neighbours.
        assert graph.predecessors(0) == set()
        assert graph.predecessors(program.num_tasks - 1) != set()
        # Wavefront parallelism: the level widths rise and then fall.
        widths = graph.level_widths()
        assert widths[0] == 1
        assert max(widths) > 1

    def test_each_task_updates_its_own_block_in_place(self):
        program = heat_program(512, 128)
        for task in program:
            inout = [d for d in task.dependences if d.direction is Direction.INOUT]
            assert len(inout) == 1

    def test_multiple_sweeps_multiply_tasks(self):
        assert heat_program(512, 128, sweeps=3).num_tasks == 3 * 16


class TestLu:
    def test_task_count_matches_table1(self):
        assert lu_task_count(2048, 256) == 36
        assert lu_task_count(2048, 128) == 136
        assert lu_task_count(2048, 64) == 528
        assert lu_task_count(2048, 32) == 2080
        assert lu_program(2048, 256).num_tasks == 36

    def test_dependences_per_task_at_most_two(self):
        program = lu_program(1024, 128)
        assert program.dependence_count_range == (1, 2)

    def test_mlu_is_a_permutation_of_lu(self):
        lu = lu_program(1024, 128)
        mlu = modified_lu_program(1024, 128)
        assert lu.num_tasks == mlu.num_tasks
        assert sorted(t.label for t in lu) == sorted(t.label for t in mlu)
        assert lu.sequential_cycles == mlu.sequential_cycles
        # Same dependence structure size, different creation order of panels.
        assert [t.addresses for t in lu] != [t.addresses for t in mlu]
        assert sorted(t.addresses for t in lu) == sorted(t.addresses for t in mlu)

    def test_critical_path_alternates_diag_and_panel(self):
        program = lu_program(1024, 256)  # 4x4 blocks
        graph = build_task_graph(program)
        # The last diagonal task transitively depends on the first one.
        diag_ids = [t.task_id for t in program if t.label == "lu_diag"]
        levels = {tid: 0 for tid in range(program.num_tasks)}
        for tid in graph.task_ids:  # creation order is topological
            preds = graph.predecessors(tid)
            levels[tid] = 0 if not preds else 1 + max(levels[p] for p in preds)
        assert levels[diag_ids[-1]] == 2 * (len(diag_ids) - 1)

    def test_panel_tasks_consume_their_step_diagonal(self):
        program = lu_program(1024, 256)
        graph = build_task_graph(program)
        diag0 = 0
        panel_ids = [t.task_id for t in program if t.label == "lu_panel"][:3]
        for panel in panel_ids:
            assert diag0 in graph.predecessors(panel)


def _distinct_dependences(program):
    """(dependences, distinct objects, distinct values) of ``program``."""
    deps = [dep for task in program for dep in task.dependences]
    return len(deps), len({id(dep) for dep in deps}), len(set(deps))


class TestSharedDependences:
    """Each generator hands out one Dependence per distinct value."""

    def test_cholesky_32_holds_its_distinct_values_once(self):
        assert _distinct_dependences(cholesky_program(2048, 32)) == (133_120, 4_159, 4_159)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cholesky_program(1024, 128),
            lambda: heat_program(1024, 128),
            lambda: lu_program(1024, 128),
            lambda: modified_lu_program(1024, 128),
            lambda: sparselu_program(1024, 128),
            lambda: h264dec_program(frames=2, block_size=8, mb_cols=32, mb_rows=32),
        ],
        ids=["cholesky", "heat", "lu", "mlu", "sparselu", "h264dec"],
    )
    def test_every_generator_shares_its_values(self, build):
        total, objects, values = _distinct_dependences(build())
        assert objects == values < total


class TestCholesky:
    def test_task_count_matches_table1(self):
        assert cholesky_task_count(2048, 256) == 120
        assert cholesky_task_count(2048, 128) == 816
        assert cholesky_task_count(2048, 64) == 5984
        assert cholesky_task_count(2048, 32) == 45760
        assert cholesky_program(2048, 256).num_tasks == 120

    def test_dependence_range(self):
        program = cholesky_program(2048, 256)
        assert program.dependence_count_range == (1, 3)

    def test_kernel_mix(self):
        program = cholesky_program(2048, 256)  # 8x8 blocks
        labels = [t.label for t in program]
        assert labels.count("potrf") == 8
        assert labels.count("trsm") == 28
        assert labels.count("syrk") == 28
        assert labels.count("gemm") == 56

    def test_potrf_chain_is_sequential(self):
        program = cholesky_program(1024, 256)
        graph = build_task_graph(program)
        potrf_ids = [t.task_id for t in program if t.label == "potrf"]
        for earlier, later in zip(potrf_ids, potrf_ids[1:]):
            # Each potrf transitively depends on the previous one; check via
            # reachability over at most two hops (potrf <- syrk <- trsm).
            preds = graph.predecessors(later)
            two_hops = set(preds)
            for p in preds:
                two_hops |= graph.predecessors(p)
            three_hops = set(two_hops)
            for p in two_hops:
                three_hops |= graph.predecessors(p)
            assert earlier in three_hops


class TestSparseLu:
    def test_structure_contains_diagonal_and_neighbours(self):
        structure = initial_structure(8)
        assert all((k, k) in structure for k in range(8))
        assert (0, 1) in structure and (1, 0) in structure

    def test_density_below_dense(self):
        assert 0.1 < density(16) < 0.8

    def test_dependence_range(self):
        program = sparselu_program(2048, 128)
        assert program.dependence_count_range == (1, 3)

    def test_task_count_within_tolerance_of_table1(self):
        # The sparsity pattern is a re-implementation, not the authors'
        # binary; the counts must track Table I within a modest factor for
        # the fine block sizes.
        assert sparselu_program(2048, 64).num_tasks == pytest.approx(1512, rel=0.15)
        assert sparselu_program(2048, 32).num_tasks == pytest.approx(11472, rel=0.15)

    def test_kernel_labels(self):
        program = sparselu_program(2048, 256)
        labels = {t.label for t in program}
        assert labels == {"lu0", "fwd", "bdiv", "bmod"}

    def test_lu0_chain_orders_steps(self):
        program = sparselu_program(2048, 256)
        graph = build_task_graph(program)
        lu0_ids = [t.task_id for t in program if t.label == "lu0"]
        # Every non-first lu0 has at least one predecessor (the trailing
        # update of the previous step touches the diagonal block).
        for task_id in lu0_ids[1:]:
            assert graph.predecessors(task_id)


class TestH264Dec:
    def test_task_counts_close_to_table1(self):
        assert h264dec_task_count(10, 8) == pytest.approx(2659, rel=0.2)
        assert h264dec_task_count(10, 4) == pytest.approx(9306, rel=0.1)
        assert h264dec_task_count(10, 2) == pytest.approx(35894, rel=0.05)
        assert h264dec_task_count(10, 1) == pytest.approx(139934, rel=0.01)

    def test_dependence_range_matches_paper(self):
        program = h264dec_program(frames=2, block_size=8)
        lo, hi = program.dependence_count_range
        assert lo >= 1
        assert hi == 6

    def test_wavefront_and_interframe_dependences(self):
        program = h264dec_program(frames=2, block_size=8, mb_cols=32, mb_rows=32)
        graph = build_task_graph(program)
        per_frame = program.num_tasks // 2
        # A block in the second frame depends on its co-located block in the
        # first frame.
        second_frame_task = per_frame  # block (0, 0) of frame 1
        assert 0 in graph.predecessors(second_frame_task)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            h264dec_program(frames=0)
        with pytest.raises(ValueError):
            h264dec_program(frames=1, block_size=0)
