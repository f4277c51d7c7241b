"""Unit tests of the flat integer-handle datapath surface.

The hot core (DM/VM/TM/TRS/DCT) stores its per-dependence state in
parallel flat lists and identifies everything by packed integer handles
(see ``docs/datapath.md``).  These tests cover the handle encoding itself,
the ``-1`` sentinels, and the invariants the flat layout depends on
(released ways clear their tag; recycled TM entries expose no stale slot
state).
"""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.core.dependence_memory import DependenceMemory, DependenceMemoryConflict
from repro.core.task_memory import TaskMemory, TaskMemoryFullError
from repro.core.trs import TaskReservationStation
from repro.core.version_memory import VersionMemory, VersionMemoryFullError
from repro.runtime.task import Dependence, Direction

STRIDE = 512 * 1024  # direct-hash aliases: all such addresses land in set 0


def dep(address: int, direction: Direction) -> Dependence:
    return Dependence(address=address, direction=direction)


class TestFlatDependenceMemory:
    def test_handles_encode_set_and_way(self):
        dm = DependenceMemory(DMDesign.WAY8)
        address = 0x4000_0000  # set 0 under the direct hash
        handle = dm.allocate(address, input_only=False)
        assert handle == dm.set_index(address) * dm.ways_per_set + 0
        assert dm.lookup(address) == handle
        other = address + STRIDE  # same set, next way
        assert dm.allocate(other, input_only=True) == handle + 1

    def test_lookup_miss_returns_minus_one(self):
        dm = DependenceMemory(DMDesign.WAY8)
        assert dm.lookup(0x1234) == -1

    def test_release_clears_the_tag(self):
        # The tag scan has no valid qualifier: a released way must never
        # alias a live address, so release resets the tag to -1.
        dm = DependenceMemory(DMDesign.WAY8)
        handle = dm.allocate(0x4000_0000, input_only=False)
        dm.release_handle(handle)
        assert dm.lookup(0x4000_0000) == -1
        assert dm.occupied == 0
        assert dm.live_addresses() == []

    def test_freed_way_is_reused_by_priority(self):
        dm = DependenceMemory(DMDesign.WAY8)
        addresses = [0x4000_0000 + i * STRIDE for i in range(8)]
        for address in addresses:
            dm.allocate(address, input_only=False)
        assert dm.set_is_full(0)
        dm.release(addresses[3])
        assert not dm.set_is_full(0)
        newcomer = 0x4000_0000 + 8 * STRIDE
        # The priority encoder picks the lowest free way: the freed one.
        assert dm.allocate(newcomer, input_only=False) == 3
        assert dm.lookup(newcomer) == 3

    def test_conflict_raises_and_leaves_the_set_full(self):
        dm = DependenceMemory(DMDesign.WAY8)
        for i in range(8):
            dm.allocate(0x4000_0000 + i * STRIDE, input_only=False)
        with pytest.raises(DependenceMemoryConflict) as exc:
            dm.allocate(0x4000_0000 + 8 * STRIDE, input_only=False)
        assert exc.value.set_index == 0
        assert dm.occupied == 8
        assert dm.set_is_full(0)

    def test_release_unknown_address_raises(self):
        dm = DependenceMemory(DMDesign.WAY8)
        with pytest.raises(KeyError):
            dm.release(0xDEAD)


class TestFlatVersionMemory:
    def test_entries_allocate_in_index_order(self):
        vm = VersionMemory(entries=4)
        assert [vm.allocate(0x100 * i) for i in range(4)] == [0, 1, 2, 3]
        assert vm.full
        with pytest.raises(VersionMemoryFullError):
            vm.allocate(0x999)

    def test_release_recycles_and_resets(self):
        vm = VersionMemory(entries=4)
        for i in range(4):
            vm.allocate(0x100 * i)
        vm.release(1)
        assert not vm.is_occupied(1)
        assert vm.allocate(0xABC) == 1  # recycled entry, lowest free index
        assert vm.live_versions_of(0xABC) == [1]
        assert vm.live_versions_of(0x100) == []
        assert vm.occupied == 4

    def test_release_unoccupied_raises(self):
        vm = VersionMemory(entries=4)
        with pytest.raises(KeyError):
            vm.release(2)


class TestFlatTaskMemory:
    def test_recycled_entry_exposes_no_stale_slot_state(self):
        # Allocating over a released entry must reset every TMX field:
        # a stale ready bit or predecessor link from the previous tenant
        # would corrupt the readiness count of the new task.
        config = PicosConfig()
        trs = TaskReservationStation(0, config)
        tm_index, _ = trs.accept_task(7, 2)
        deps = [dep(0x1000, Direction.OUT), dep(0x2000, Direction.OUT)]
        slots = trs.record_dependences(tm_index, deps, 0, 2)
        trs.apply_submission_outcomes(
            tm_index, 0, [(True, 0, -1), (False, 1, slots[0])]
        )
        trs.handle_ready_slot(slots[1], 1)
        trs.handle_finished(7, tm_index)
        # The freed entry is recycled for a different task.
        new_index, _ = trs.accept_task(8, 2)
        assert new_index == tm_index
        new_slots = trs.record_dependences(tm_index, deps, 0, 2)
        ready_task, chained = trs.handle_ready_slot(new_slots[0], 5)
        assert ready_task is None  # one of two deps ready, not both
        assert chained == -1  # no stale predecessor link

    def test_too_many_dependences_rejected(self):
        tm = TaskMemory(entries=4, max_deps_per_task=2)
        with pytest.raises(ValueError):
            tm.allocate(0, 3)

    def test_duplicate_task_rejected(self):
        tm = TaskMemory(entries=4, max_deps_per_task=2)
        tm.allocate(0, 1)
        with pytest.raises(ValueError):
            tm.allocate(0, 1)

    def test_full_memory_rejects_new_tasks(self):
        tm = TaskMemory(entries=2, max_deps_per_task=2)
        tm.allocate(0, 1)
        tm.allocate(1, 1)
        with pytest.raises(TaskMemoryFullError):
            tm.allocate(2, 1)


class TestFlatTaskReservationStation:
    def test_slot_handles_are_globally_unique_per_trs(self):
        config = PicosConfig()
        first = TaskReservationStation(0, config)
        second = TaskReservationStation(1, config)
        ti0, _ = first.accept_task(0, 1)
        ti1, _ = second.accept_task(1, 1)
        deps = [dep(0x1000, Direction.IN)]
        range0 = first.record_dependences(ti0, deps, 0, 1)
        range1 = second.record_dependences(ti1, deps, 0, 1)
        assert range0[0] == ti0 * first.slot_stride
        assert range1[0] == second.slot_base + ti1 * second.slot_stride
        assert second.slot_base == config.tm_entries * config.max_deps_per_task

    def test_ready_slot_is_idempotent(self):
        config = PicosConfig()
        trs = TaskReservationStation(0, config)
        tm_index, _ = trs.accept_task(3, 2)
        slots = trs.record_dependences(
            tm_index, [dep(0x1000, Direction.IN), dep(0x2000, Direction.IN)], 0, 2
        )
        trs.apply_submission_outcomes(
            tm_index, 0, [(False, 0, -1), (False, 1, -1)]
        )
        assert trs.handle_ready_slot(slots[0], 0) == (None, -1)
        # A duplicate notification must change nothing.
        assert trs.handle_ready_slot(slots[0], 0) == (None, -1)
        ready_task, _ = trs.handle_ready_slot(slots[1], 1)
        assert ready_task == 3

    def test_finish_emits_parallel_runs_in_pragma_order(self):
        config = PicosConfig()
        trs = TaskReservationStation(0, config)
        tm_index, _ = trs.accept_task(9, 2)
        deps = [dep(0x2000, Direction.OUT), dep(0x1000, Direction.IN)]
        slots = trs.record_dependences(tm_index, deps, 0, 2)
        trs.apply_submission_outcomes(
            tm_index, 0, [(True, 4, -1), (True, 6, -1)]
        )
        finish_slots, vm_indices, addresses = trs.handle_finished(9, tm_index)
        assert list(finish_slots) == list(slots)
        assert vm_indices == [4, 6]
        assert addresses == [0x2000, 0x1000]
        assert not trs.holds_task(9)


class TestFlatDependenceChainTracker:
    def setup_method(self):
        self.config = PicosConfig.paper_prototype(DMDesign.WAY8)
        self.dct = DependenceChainTracker(0, self.config)

    def test_batch_outcome_triples(self):
        # slot handles are arbitrary unique ints from the DCT's viewpoint.
        deps = [
            dep(0x1000, Direction.OUT),  # new address: ready producer
            dep(0x1000, Direction.IN),  # reader of a live version: chained
            dep(0x2000, Direction.IN),  # new input-only address: ready
        ]
        outcomes, stall = self.dct.process_batch([10, 11, 12], deps, 0, 3)
        assert stall is None
        ready, vm_writer, predecessor = outcomes[0]
        assert (ready, predecessor) == (True, -1)
        ready, vm_reader, predecessor = outcomes[1]
        assert (ready, vm_reader, predecessor) == (False, vm_writer, -1)
        assert outcomes[2][0] is True

    def test_second_reader_chains_to_the_first(self):
        deps = [
            dep(0x1000, Direction.OUT),
            dep(0x1000, Direction.IN),
            dep(0x1000, Direction.IN),
        ]
        outcomes, _ = self.dct.process_batch([20, 21, 22], deps, 0, 3)
        # The consumer chain is walked backwards: the later reader stores
        # the earlier reader's slot handle as its predecessor.
        assert outcomes[2] == (False, outcomes[1][1], 21)

    def test_conflict_stalls_mid_batch(self):
        fillers = [dep(0x4000_0000 + i * STRIDE, Direction.OUT) for i in range(8)]
        outcomes, stall = self.dct.process_batch(list(range(8)), fillers, 0, 8)
        assert stall is None and len(outcomes) == 8
        batch = [dep(0x4000_0000, Direction.IN), dep(0x4000_0000 + 8 * STRIDE, Direction.OUT)]
        outcomes, stall = self.dct.process_batch([30, 31], batch, 0, 2)
        assert stall is StallReason.DM_CONFLICT
        assert len(outcomes) == 1  # the hit before the conflict was stored
        assert self.dct.stats.dm_conflicts == 1

    def test_finish_run_wakes_the_chain_and_recycles(self):
        deps = [dep(0x1000, Direction.OUT), dep(0x1000, Direction.IN)]
        outcomes, _ = self.dct.process_batch([40, 41], deps, 0, 2)
        vm_index = outcomes[0][1]
        wakeups = self.dct.process_finish_run([40], [vm_index], 0, 1)
        assert wakeups == [(41, outcomes[1][1])]
        # The reader finishing retires the version and frees the DM way.
        assert self.dct.process_finish_run([41], [vm_index], 0, 1) == []
        assert self.dct.dm.lookup(0x1000) == -1
        assert self.dct.is_idle()
