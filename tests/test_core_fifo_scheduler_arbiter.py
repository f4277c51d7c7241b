"""Unit tests for the Task Scheduler and the Arbiter."""

from __future__ import annotations

import pytest

from repro.core.arbiter import Arbiter
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

    def test_statistics_and_drain(self):
        scheduler = TaskScheduler()
        for task in range(4):
            scheduler.push(task)
        assert scheduler.max_occupancy == 4
        assert len(scheduler) == 4
        assert [scheduler.try_pop() for _ in range(5)] == [0, 1, 2, 3, None]
        assert len(scheduler) == 0
        assert scheduler.max_occupancy == 4


class TestArbiter:
    def test_single_instance_routing(self):
        arbiter = Arbiter(num_trs=1, num_dct=1)
        assert arbiter.dct_index_for(0x1234) == 0
        assert arbiter.trs_for_slot_index(0) == 0

    def test_address_routing_is_stable(self):
        arbiter = Arbiter(num_trs=2, num_dct=4)
        address = 0xDEAD_BEEF
        first = arbiter.dct_index_for(address)
        assert all(arbiter.dct_index_for(address) == first for _ in range(5))

    def test_address_routing_spreads_over_instances(self):
        arbiter = Arbiter(num_trs=1, num_dct=4)
        targets = {arbiter.dct_index_for(0x4000_0000 + i * 0x10_0000) for i in range(64)}
        assert len(targets) >= 3

    def test_slot_routing_validates_instance(self):
        arbiter = Arbiter(num_trs=2, num_dct=1)
        with pytest.raises(ValueError):
            arbiter.trs_for_slot_index(5)

    def test_runs_split_where_the_route_changes(self):
        arbiter = Arbiter(num_trs=1, num_dct=4)
        addresses = [0x4000_0000 + i * 0x10_0000 for i in range(16)]
        routes = [arbiter.dct_index_for(address) for address in addresses]
        runs = list(arbiter.iter_dct_runs(addresses, 2, 14))
        assert runs[0][1] == 2 and runs[-1][2] == 14
        for (route, start, end), (_, next_start, _) in zip(runs, runs[1:] + [(0, 14, 0)]):
            assert end == next_start
            assert routes[start:end] == [route] * (end - start)
            assert end == 14 or routes[end] != route
        assert list(arbiter.iter_dct_runs(addresses, 5, 5)) == []

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Arbiter(num_trs=0, num_dct=1)
