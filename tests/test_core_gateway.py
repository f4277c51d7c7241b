"""Unit tests for the Gateway dispatch engine."""

from __future__ import annotations

import pytest

from repro.core.arbiter import Arbiter
from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.core.gateway import Gateway, GatewayStatus
from repro.core.stats import PicosStats
from repro.core.trs import TaskReservationStation
from repro.runtime.task import Dependence, Direction, Task


def build_gateway(config: PicosConfig):
    stats = PicosStats()
    trs = [TaskReservationStation(i, config, stats) for i in range(config.num_trs)]
    dct = [DependenceChainTracker(i, config, stats) for i in range(config.num_dct)]
    arbiter = Arbiter(config.num_trs, config.num_dct)
    return Gateway(config, trs, dct, arbiter, stats), trs, dct


def task(task_id: int, deps=(), duration: int = 1) -> Task:
    return Task(
        task_id=task_id,
        dependences=[Dependence(a, d) for a, d in deps],
        duration=duration,
    )


A, B = 0x1000, 0x2000


class TestSubmission:
    def test_independent_task_accepted_and_ready(self):
        gateway, _, _ = build_gateway(PicosConfig())
        result = gateway.submit(task(0))
        assert result.status is GatewayStatus.ACCEPTED
        assert [p.task_id for p in result.execute] == [0]

    def test_task_with_fresh_dependences_is_ready(self):
        gateway, _, _ = build_gateway(PicosConfig())
        result = gateway.submit(task(0, [(A, Direction.OUT), (B, Direction.IN)]))
        assert result.status is GatewayStatus.ACCEPTED
        assert [p.task_id for p in result.execute] == [0]
        assert result.dependences_dispatched == 2

    def test_dependent_task_is_not_ready(self):
        gateway, _, _ = build_gateway(PicosConfig())
        gateway.submit(task(0, [(A, Direction.OUT)]))
        result = gateway.submit(task(1, [(A, Direction.IN)]))
        assert result.status is GatewayStatus.ACCEPTED
        assert result.execute == []

    def test_too_many_dependences_rejected(self):
        gateway, _, _ = build_gateway(PicosConfig())
        deps = [(0x100 * (i + 1), Direction.IN) for i in range(16)]
        with pytest.raises(ValueError):
            gateway.submit(task(0, deps))

    def test_slot_tracking(self):
        gateway, _, _ = build_gateway(PicosConfig())
        gateway.submit(task(0))
        trs_id, tm_index = gateway.slot_of(0)
        assert trs_id == 0
        assert gateway.in_flight_tasks() == 1


class TestTmFullStall:
    def test_submission_stalls_when_tm_full(self):
        config = PicosConfig(tm_entries=2)
        gateway, _, _ = build_gateway(config)
        gateway.submit(task(0))
        gateway.submit(task(1))
        result = gateway.submit(task(2))
        assert result.status is GatewayStatus.STALLED
        assert result.stall_reason is StallReason.TM_FULL
        assert not gateway.has_pending_submission  # nothing partially dispatched
        assert gateway.stats.tm_full_stalls == 1

    def test_submission_succeeds_after_retirement(self):
        config = PicosConfig(tm_entries=1)
        gateway, _, _ = build_gateway(config)
        gateway.submit(task(0))
        assert gateway.submit(task(1)).status is GatewayStatus.STALLED
        gateway.notify_finished(0)
        assert gateway.submit(task(1)).status is GatewayStatus.ACCEPTED


class TestConflictStallAndResume:
    def _fill_set_zero(self, gateway, count=8):
        stride = 512 * 1024
        for i in range(count):
            result = gateway.submit(task(i, [(0x4000_0000 + i * stride, Direction.INOUT)]))
            assert result.status is GatewayStatus.ACCEPTED

    def test_conflict_stall_keeps_pending_submission(self):
        gateway, _, _ = build_gateway(PicosConfig.paper_prototype(DMDesign.WAY8))
        self._fill_set_zero(gateway)
        blocked = task(8, [(0x4000_0000 + 8 * 512 * 1024, Direction.INOUT)])
        result = gateway.submit(blocked)
        assert result.status is GatewayStatus.STALLED
        assert result.stall_reason is StallReason.DM_CONFLICT
        assert gateway.has_pending_submission
        assert not gateway.can_resume()
        with pytest.raises(RuntimeError):
            gateway.submit(task(9))  # must resume first

    def test_resume_after_dm_way_freed(self):
        gateway, _, dcts = build_gateway(PicosConfig.paper_prototype(DMDesign.WAY8))
        self._fill_set_zero(gateway)
        blocked = task(8, [(0x4000_0000 + 8 * 512 * 1024, Direction.INOUT)])
        assert gateway.submit(blocked).status is GatewayStatus.STALLED
        # Finishing one of the earlier tasks releases its DM way; the Gateway
        # only runs the TRS half of the finish path, so route the release
        # packets to the DCT explicitly (the accelerator facade does this).
        slots, vm_indices, _ = gateway.notify_finished(0)
        dcts[0].process_finish_run(slots, vm_indices, 0, len(slots))
        assert gateway.can_resume()
        result = gateway.resume()
        assert result.status is GatewayStatus.ACCEPTED
        assert result.retries == 1
        assert [p.task_id for p in result.execute] == [8]

    def test_resume_without_pending_raises(self):
        gateway, _, _ = build_gateway(PicosConfig())
        with pytest.raises(RuntimeError):
            gateway.resume()

    def test_partial_submission_resumes_mid_task(self):
        """A multi-dependence task that stalls on its second dependence must
        resume from that dependence, not restart from scratch."""
        gateway, _, dct = build_gateway(PicosConfig.paper_prototype(DMDesign.WAY8))
        self._fill_set_zero(gateway)
        stride = 512 * 1024
        blocked = task(8, [(0x4000_0000, Direction.IN), (0x4000_0000 + 8 * stride, Direction.OUT)])
        result = gateway.submit(blocked)
        assert result.status is GatewayStatus.STALLED
        assert result.dependences_dispatched == 1
        slots, vm_indices, _ = gateway.notify_finished(1)  # frees a way in set 0
        dct[0].process_finish_run(slots, vm_indices, 0, len(slots))
        resumed = gateway.resume()
        assert resumed.status is GatewayStatus.ACCEPTED
        assert resumed.dependences_dispatched == 1  # only the blocked one remained
        # Task 8 is not ready: its first dependence reads data written by
        # task 0, which is still running.
        assert resumed.execute == []


class TestFinishedPath:
    def test_notify_finished_returns_release_packets(self):
        gateway, _, _ = build_gateway(PicosConfig())
        gateway.submit(task(0, [(A, Direction.OUT), (B, Direction.IN)]))
        slots, vm_indices, addresses = gateway.notify_finished(0)
        assert len(slots) == len(vm_indices) == len(addresses) == 2
        assert set(addresses) == {A, B}
        assert gateway.in_flight_tasks() == 0

    def test_notify_unknown_task_raises(self):
        gateway, _, _ = build_gateway(PicosConfig())
        with pytest.raises(KeyError):
            gateway.notify_finished(42)


class TestMultiInstanceRouting:
    def test_round_robin_over_trs_instances(self):
        config = PicosConfig(num_trs=2, num_dct=1)
        gateway, trs, _ = build_gateway(config)
        for i in range(4):
            gateway.submit(task(i))
        assert trs[0].in_flight == 2
        assert trs[1].in_flight == 2

    def test_dependences_distributed_over_dcts(self):
        config = PicosConfig(num_trs=1, num_dct=2)
        gateway, _, dcts = build_gateway(config)
        for i in range(32):
            gateway.submit(task(i, [(0x4000_0000 + i * 0x10_0000, Direction.IN)]))
        assert dcts[0].dm.occupied + dcts[1].dm.occupied == 32
        assert dcts[0].dm.occupied > 0 and dcts[1].dm.occupied > 0

    def test_multi_dct_stall_resumes_at_the_blocked_dependence(self):
        # The batched dispatch routes a whole same-bank run before the DCT
        # processes it; on a mid-run stall only the dependences before the
        # blocked one are stored, exactly like the per-dependence
        # reference flow, and the retry starts at the blocked one.
        config = PicosConfig(num_trs=1, num_dct=2, dm_sets=1)
        gateway, _, dcts = build_gateway(config)
        arbiter = gateway.arbiter
        # Addresses tracked by DCT 0 (stable pure routing decision).
        bank0 = [
            a
            for a in (0x5000_0000 + i * 0x10_0000 for i in range(64))
            if arbiter.dct_index_for(a) == 0
        ]
        ways = config.dm_ways
        # Fill DCT 0's single set through independent single-dep tasks.
        for task_id, address in enumerate(bank0[:ways]):
            assert gateway.submit(
                task(task_id, [(address, Direction.IN)])
            ).status is GatewayStatus.ACCEPTED
        assert dcts[0].dm.occupied == ways
        # One run on DCT 0: a hit, a conflicting miss, an undelivered tail.
        result = gateway.submit(
            task(
                99,
                [
                    (bank0[0], Direction.IN),
                    (bank0[ways], Direction.IN),
                    (bank0[ways + 1], Direction.IN),
                ],
            )
        )
        assert result.status is GatewayStatus.STALLED
        assert result.stall_reason is StallReason.DM_CONFLICT
        assert result.dependences_dispatched == 1
        assert gateway.pending_submission.next_dep_index == 1
        assert dcts[0].dm.occupied == ways
