"""Unit tests for the Task Scheduler and the Arbiter."""

from __future__ import annotations

import pytest

from repro.core.arbiter import Arbiter
from repro.core.packets import TaskSlotRef
from repro.core.scheduler import SchedulingPolicy, TaskScheduler


class TestTaskScheduler:
    def test_fifo_policy_order(self):
        scheduler = TaskScheduler(SchedulingPolicy.FIFO)
        for task in (10, 11, 12):
            scheduler.push(task)
        assert [scheduler.pop() for _ in range(3)] == [10, 11, 12]

    def test_lifo_policy_order(self):
        scheduler = TaskScheduler(SchedulingPolicy.LIFO)
        for task in (10, 11, 12):
            scheduler.push(task)
        assert [scheduler.pop() for _ in range(3)] == [12, 11, 10]

    def test_pop_empty_raises_and_try_pop_returns_none(self):
        scheduler = TaskScheduler()
        with pytest.raises(IndexError):
            scheduler.pop()
        assert scheduler.try_pop() is None

    def test_statistics_and_clear(self):
        scheduler = TaskScheduler()
        for task in range(4):
            scheduler.push(task)
        assert scheduler.total_scheduled == 4
        assert scheduler.max_occupancy == 4
        assert scheduler.peek_all() == [0, 1, 2, 3]
        scheduler.clear()
        assert scheduler.empty


class TestArbiter:
    def test_single_instance_routing(self):
        arbiter = Arbiter(num_trs=1, num_dct=1)
        assert arbiter.dct_for_address(0x1234) == 0
        slot = TaskSlotRef(trs_id=0, tm_index=3, dep_index=1)
        assert arbiter.trs_for_slot(slot) == 0

    def test_address_routing_is_stable(self):
        arbiter = Arbiter(num_trs=2, num_dct=4)
        address = 0xDEAD_BEEF
        first = arbiter.dct_for_address(address)
        assert all(arbiter.dct_for_address(address) == first for _ in range(5))

    def test_address_routing_spreads_over_instances(self):
        arbiter = Arbiter(num_trs=1, num_dct=4)
        targets = {arbiter.dct_for_address(0x4000_0000 + i * 0x10_0000) for i in range(64)}
        assert len(targets) >= 3

    def test_slot_routing_validates_instance(self):
        arbiter = Arbiter(num_trs=2, num_dct=1)
        with pytest.raises(ValueError):
            arbiter.trs_for_slot(TaskSlotRef(trs_id=5, tm_index=0, dep_index=0))

    def test_traffic_counters(self):
        arbiter = Arbiter(num_trs=1, num_dct=2)
        arbiter.dct_for_address(0x100)
        arbiter.dct_for_address(0x200)
        arbiter.trs_for_slot(TaskSlotRef(0, 0, 0))
        assert arbiter.messages_to_dct == 2
        assert arbiter.messages_to_trs == 1
        assert sum(arbiter.dct_load().values()) == 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Arbiter(num_trs=0, num_dct=1)
