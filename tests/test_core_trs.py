"""Unit tests for the Task Reservation Station.

The TRS identifies a dependence slot by its packed integer handle
``trs_id * slots_per_trs + tm_index * max_deps + dep_index``, with ``-1``
for *none* (see ``docs/datapath.md``).
"""

from __future__ import annotations

import pytest

from repro.core.config import PicosConfig
from repro.core.trs import TaskReservationStation
from repro.runtime.task import Dependence, Direction


@pytest.fixture
def trs() -> TaskReservationStation:
    return TaskReservationStation(0, PicosConfig())


def readers(count: int):
    return [Dependence(0x100 * (i + 1), Direction.IN) for i in range(count)]


def waiting_task(trs, task_id=0, num_deps=2, predecessors=None):
    """Accept a task whose dependences all wait (dependent outcomes)."""
    tm_index, ready = trs.accept_task(task_id, num_deps)
    assert not ready
    slots = trs.record_dependences(tm_index, readers(num_deps), 0, num_deps)
    links = predecessors or [-1] * num_deps
    trs.apply_submission_outcomes(
        tm_index, 0, [(False, dep, link) for dep, link in enumerate(links)]
    )
    return tm_index, slots


class TestNewTaskPath:
    def test_task_without_dependences_is_ready_immediately(self, trs):
        tm_index, ready = trs.accept_task(7, 0)
        assert ready
        assert trs.tm_index_of(7) == tm_index
        assert trs.stats.tasks_without_deps == 1
        trs.accept_task(8, 2)
        assert trs.stats.tasks_without_deps == 1

    def test_task_with_dependences_waits(self, trs):
        _, ready = trs.accept_task(7, 2)
        assert not ready
        assert trs.stats.tasks_without_deps == 0

    def test_record_dependence_returns_slot_handle(self, trs):
        tm_index, _ = trs.accept_task(3, 1)
        slots = trs.record_dependences(tm_index, readers(1), 0, 1)
        assert list(slots) == [trs.slot_base + tm_index * trs.slot_stride]

    def test_capacity_status(self, trs):
        assert trs.has_free_slot
        assert trs.in_flight == 0
        trs.accept_task(0, 0)
        assert trs.in_flight == 1


class TestReadiness:
    def test_task_ready_only_after_all_dependences(self, trs):
        _, slots = waiting_task(trs)
        assert trs.handle_ready_slot(slots[0], 0) == (None, -1)
        assert trs.handle_ready_slot(slots[1], 1) == (0, -1)

    def test_duplicate_ready_notifications_are_ignored(self, trs):
        tm_index, slots = waiting_task(trs, num_deps=2)
        assert trs.handle_ready_slot(slots[0], 0) == (None, -1)
        # A duplicate notification must change nothing.
        assert trs.handle_ready_slot(slots[0], 0) == (None, -1)
        assert trs.task_memory._ready_deps[tm_index] == 1
        assert trs.handle_ready_slot(slots[1], 1) == (0, -1)

    def test_dependent_notification_stores_chain_link(self, trs):
        predecessor = 99 * trs.slot_stride
        tm_index, slots = waiting_task(trs, num_deps=1, predecessors=[predecessor])
        offset = tm_index * trs.slot_stride
        assert trs.task_memory._slot_vm_index[offset] == 0
        assert trs.task_memory._slot_predecessor[offset] == predecessor

    def test_ready_for_a_slot_past_the_recorded_dependences_raises(self, trs):
        # The slot right after a task's last recorded dependence lies in
        # its TMX row but holds nothing: a notification for it is refused.
        _, slots = waiting_task(trs, num_deps=2)
        with pytest.raises(KeyError, match="no dependence slot 2"):
            trs.handle_ready_slot(slots[1] + 1, 0)

    def test_ready_walks_consumer_chain_backwards(self, trs):
        # Two single-dependence tasks; the second chains the first behind
        # it.  The first holds TM entry 0, so its slot handle is 0: the
        # chained wake-up of handle 0 must still count as a chain hop.
        _, (first,) = waiting_task(trs, task_id=0, num_deps=1)
        _, (second,) = waiting_task(trs, task_id=1, num_deps=1, predecessors=[first])
        assert first == 0
        assert trs.handle_ready_slot(second, 0) == (1, first)
        assert trs.stats.chain_hops == 1
        # Delivering the chained wake-up readies the first task as well.
        assert trs.handle_ready_slot(first, 0) == (0, -1)
        assert trs.stats.chain_hops == 1


class TestFinishPath:
    def test_finish_emits_one_run_entry_per_dependence(self, trs):
        tm_index, _ = trs.accept_task(4, 2)
        deps = [Dependence(0x100, Direction.OUT), Dependence(0x200, Direction.IN)]
        slots = trs.record_dependences(tm_index, deps, 0, 2)
        trs.apply_submission_outcomes(tm_index, 0, [(True, 0, -1), (True, 1, -1)])
        finish_slots, vm_indices, addresses = trs.handle_finished(4, tm_index)
        assert list(finish_slots) == list(slots)
        assert vm_indices == [0, 1]
        assert addresses == [0x100, 0x200]
        assert trs.in_flight == 0
        assert trs.stats.tasks_retired == 1

    def test_finish_of_unready_task_is_rejected(self, trs):
        tm_index, _ = waiting_task(trs, task_id=4, num_deps=1)
        with pytest.raises(RuntimeError):
            trs.handle_finished(4, tm_index)

    def test_finish_with_mismatched_task_id_is_rejected(self, trs):
        tm_index, _ = trs.accept_task(4, 0)
        with pytest.raises(ValueError):
            trs.handle_finished(99, tm_index)

    def test_lookup_helpers(self, trs):
        tm_index, _ = trs.accept_task(11, 0)
        assert trs.holds_task(11)
        assert trs.tm_index_of(11) == tm_index
        assert not trs.holds_task(12)
