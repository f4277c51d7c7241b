"""Unit and behavioural tests for the PicosAccelerator facade."""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import StallReason
from repro.core.picos import PicosAccelerator, SubmitStatus
from repro.runtime.dependence_analysis import ready_order_is_valid
from repro.runtime.task import Dependence, Direction, Task

from tests.helpers import drain_functional, make_program, make_task


A, B, C = 0x1000, 0x2000, 0x3000


class TestSubmitInterface:
    def test_independent_task_ready_with_calibrated_latency(self, accelerator):
        result = accelerator.submit_task(make_task(0))
        assert result.accepted
        assert result.occupancy == accelerator.config.new_task_occupancy(0)
        assert len(result.ready) == 1
        assert result.ready[0].latency == accelerator.config.new_task_ready_latency(0)
        assert result.ready[0].task_id == 0

    def test_dependent_task_not_ready_at_submission(self, accelerator):
        accelerator.submit_task(make_task(0, [(A, Direction.OUT)]))
        result = accelerator.submit_task(make_task(1, [(A, Direction.IN)]))
        assert result.accepted
        assert result.ready == []

    def test_occupancy_grows_with_dependences(self, accelerator):
        small = accelerator.submit_task(make_task(0, [(A, Direction.IN)]))
        large = accelerator.submit_task(
            make_task(1, [(0x100 * (i + 2), Direction.IN) for i in range(10)])
        )
        assert large.occupancy > small.occupancy

    def test_in_flight_and_counters(self, accelerator):
        accelerator.submit_task(make_task(0))
        accelerator.submit_task(make_task(1))
        assert accelerator.in_flight == 2
        assert accelerator.tasks_submitted == 2
        accelerator.notify_finish(0)
        assert accelerator.in_flight == 1
        assert accelerator.tasks_finished == 1

    def test_describe_contains_key_counters(self, accelerator):
        accelerator.submit_task(make_task(0))
        description = accelerator.describe()
        assert description["design"] == "DM P+8way"
        assert description["tasks_submitted"] == 1
        assert "dm_conflicts" in description


class TestFinishInterface:
    def test_finish_wakes_dependent_task(self, accelerator):
        accelerator.submit_task(make_task(0, [(A, Direction.OUT)]))
        accelerator.submit_task(make_task(1, [(A, Direction.IN)]))
        result = accelerator.notify_finish(0)
        assert [r.task_id for r in result.ready] == [1]
        assert result.occupancy == accelerator.config.finish_occupancy(1)
        assert result.ready[0].latency >= result.occupancy

    def test_finish_unknown_task_raises(self, accelerator):
        with pytest.raises(KeyError):
            accelerator.notify_finish(99)

    def test_accelerator_drains_completely(self, accelerator):
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.OUT)],
                [(B, Direction.INOUT)],
            ]
        )
        drain_functional(accelerator, program)
        assert accelerator.is_drained()
        assert accelerator.tasks_finished == 3


class TestFigure5Chain:
    """The worked example of Section III-D (Figure 5).

    Six tasks all access the same datum A: Task1 writes it, Tasks 2-4 read
    it, Tasks 5 and 6 write it again.  The wake-up protocol must

    * wake the consumers when Task1 finishes, starting from the last one
      (Task4 -> Task3 -> Task2);
    * wake Task5 only when Task1 and all three consumers have finished;
    * wake Task6 only after Task5.
    """

    def _submit_chain(self, accelerator):
        """Submit the six tasks; the ids each submission made ready."""
        directions = {
            1: Direction.INOUT,
            2: Direction.IN,
            3: Direction.IN,
            4: Direction.IN,
            5: Direction.OUT,
            6: Direction.INOUT,
        }
        return [
            ready.task_id
            for task_id in range(1, 7)
            for ready in accelerator.submit_task(
                Task(task_id=task_id, dependences=[Dependence(A, directions[task_id])])
            ).ready
        ]

    def test_wake_order_follows_the_paper(self, accelerator):
        # Only Task1 is ready after the submissions.
        assert self._submit_chain(accelerator) == [1]

        finish1 = accelerator.notify_finish(1)
        assert [r.task_id for r in finish1.ready] == [4, 3, 2]
        # Chained wake-ups pay one extra Arbiter hop each.
        latencies = [r.latency for r in finish1.ready]
        assert latencies[0] < latencies[1] < latencies[2]

        # Task5 wakes only after the last of the consumers finishes.
        assert accelerator.notify_finish(2).ready == []
        assert accelerator.notify_finish(3).ready == []
        finish4 = accelerator.notify_finish(4)
        assert [r.task_id for r in finish4.ready] == [5]

        finish5 = accelerator.notify_finish(5)
        assert [r.task_id for r in finish5.ready] == [6]
        accelerator.notify_finish(6)
        assert accelerator.is_drained()

    def test_chain_uses_one_dm_entry_and_three_versions(self, accelerator):
        self._submit_chain(accelerator)
        dct = accelerator.dct_instances[0]
        assert dct.dm.occupied == 1
        assert dct.vm.occupied == 3
        assert accelerator.stats.vm_allocations == 3
        assert accelerator.stats.dm_allocations == 1


class TestStallsAndResume:
    def _aligned_task(self, task_id, offset, direction=Direction.INOUT):
        return make_task(task_id, [(0x4000_0000 + offset * 512 * 1024, direction)])

    def test_tm_full_then_resume_by_retirement(self):
        accelerator = PicosAccelerator(PicosConfig(tm_entries=2))
        accelerator.submit_task(make_task(0))
        accelerator.submit_task(make_task(1))
        stalled = accelerator.submit_task(make_task(2))
        assert stalled.status is SubmitStatus.STALLED
        assert stalled.stall_reason is StallReason.TM_FULL
        accelerator.notify_finish(0)
        retry = accelerator.submit_task(make_task(2))
        assert retry.accepted

    def test_dm_conflict_then_resume(self):
        accelerator = PicosAccelerator(PicosConfig.paper_prototype(DMDesign.WAY8))
        for i in range(8):
            accelerator.submit_task(self._aligned_task(i, i))
        stalled = accelerator.submit_task(self._aligned_task(8, 8))
        assert stalled.status is SubmitStatus.STALLED
        assert accelerator.has_pending_submission
        assert accelerator.pending_stall_reason is StallReason.DM_CONFLICT
        assert accelerator.dm_conflicts == 1
        accelerator.notify_finish(0)
        assert accelerator.can_resume()
        resumed = accelerator.resume_submission()
        assert resumed.accepted
        # The resumed submission pays the conflict-stall penalty.
        assert resumed.occupancy > accelerator.config.new_task_occupancy(1)

    def test_resume_without_pending_raises(self, accelerator):
        with pytest.raises(RuntimeError):
            accelerator.resume_submission()


class TestMultiInstanceConfiguration:
    """The 'future architecture' of Figure 3a: several TRS/DCT instances."""

    @pytest.mark.parametrize("instances", [2, 4])
    def test_multi_instance_preserves_dependence_order(self, instances):
        config = PicosConfig(num_trs=instances, num_dct=instances)
        accelerator = PicosAccelerator(config)
        program = make_program(
            [
                [(A, Direction.OUT)],
                [(B, Direction.OUT)],
                [(A, Direction.IN), (B, Direction.IN)],
                [(A, Direction.INOUT)],
                [(C, Direction.OUT)],
                [(C, Direction.IN), (A, Direction.IN)],
            ]
        )
        order = drain_functional(accelerator, program)
        assert ready_order_is_valid(program, order)
        assert accelerator.is_drained()

    def test_multi_instance_spreads_tasks(self):
        config = PicosConfig(num_trs=2, num_dct=2)
        accelerator = PicosAccelerator(config)
        for i in range(10):
            accelerator.submit_task(make_task(i))
        assert accelerator.trs_instances[0].in_flight == 5
        assert accelerator.trs_instances[1].in_flight == 5


class TestFunctionalEquivalence:
    """The accelerator must realise exactly the OmpSs dependence semantics."""

    @pytest.mark.parametrize(
        "spec",
        [
            # producer/consumer fan-out
            [[(A, Direction.OUT)], [(A, Direction.IN)], [(A, Direction.IN)], [(A, Direction.OUT)]],
            # two interleaved chains
            [[(A, Direction.INOUT)], [(B, Direction.INOUT)], [(A, Direction.INOUT)], [(B, Direction.INOUT)]],
            # gather
            [[(A, Direction.OUT)], [(B, Direction.OUT)], [(C, Direction.OUT)],
             [(A, Direction.IN), (B, Direction.IN), (C, Direction.IN)]],
            # write-after-read
            [[(A, Direction.IN)], [(A, Direction.IN)], [(A, Direction.OUT)], [(A, Direction.IN)]],
        ],
        ids=["fanout", "interleaved", "gather", "war"],
    )
    def test_execution_order_respects_dependences(self, accelerator, spec):
        program = make_program(spec)
        order = drain_functional(accelerator, program)
        assert sorted(order) == list(range(len(spec)))
        assert ready_order_is_valid(program, order)
        assert accelerator.is_drained()
