"""Unit tests for the Dependence Chain Tracker."""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DctStall, StallReason
from repro.core.reference.dct import DependenceChainTracker
from repro.core.packets import DependencePacket, TaskSlotRef
from repro.runtime.task import Direction


def slot(tm_index: int, dep_index: int = 0) -> TaskSlotRef:
    return TaskSlotRef(trs_id=0, tm_index=tm_index, dep_index=dep_index)


def dep_packet(tm_index: int, address: int, direction: Direction, dep_index: int = 0):
    return DependencePacket(slot=slot(tm_index, dep_index), address=address, direction=direction)


def finish_packet(dct: DependenceChainTracker, tm_index: int, vm_index: int, dep_index: int = 0):
    from repro.core.packets import FinishPacket

    return FinishPacket(slot=slot(tm_index, dep_index), vm_index=vm_index)


@pytest.fixture
def dct() -> DependenceChainTracker:
    return DependenceChainTracker(0, PicosConfig())


A, B = 0x1000, 0x2000


class TestNewDependencePath:
    def test_first_access_is_ready(self, dct):
        outcome = dct.process_dependence(dep_packet(0, A, Direction.INOUT))
        assert outcome.ready
        assert dct.dm.occupied == 1
        assert dct.vm.occupied == 1

    def test_first_reader_is_ready_and_counted(self, dct):
        outcome = dct.process_dependence(dep_packet(0, A, Direction.IN))
        assert outcome.ready
        version = dct.vm.entry(outcome.vm_index)
        assert version.consumers_arrived == 1
        assert version.producer is None

    def test_reader_behind_pending_producer_is_dependent(self, dct):
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        reader = dct.process_dependence(dep_packet(1, A, Direction.IN))
        assert producer.ready
        assert not reader.ready
        assert reader.vm_index == producer.vm_index
        assert reader.predecessor is None  # first consumer has no chain link

    def test_consumer_chain_links_previous_consumer(self, dct):
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        second = dct.process_dependence(dep_packet(2, A, Direction.IN))
        third = dct.process_dependence(dep_packet(3, A, Direction.IN))
        assert second.predecessor == slot(1)
        assert third.predecessor == slot(2)

    def test_reader_behind_finished_producer_is_ready(self, dct):
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        # Another consumer keeps the version alive after the producer ends.
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        dct.process_finish(finish_packet(dct, 0, producer.vm_index))
        late_reader = dct.process_dependence(dep_packet(2, A, Direction.IN))
        assert late_reader.ready

    def test_writer_behind_live_version_is_dependent_new_version(self, dct):
        first = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        second = dct.process_dependence(dep_packet(1, A, Direction.OUT))
        assert not second.ready
        assert second.vm_index != first.vm_index
        assert dct.vm.entry(first.vm_index).next_version == second.vm_index
        assert dct.vm.occupied == 2
        assert dct.dm.occupied == 1  # same address, one DM way

    def test_distinct_addresses_use_distinct_dm_ways(self, dct):
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, B, Direction.OUT))
        assert dct.dm.occupied == 2

    def test_stats_count_ready_and_dependent(self, dct):
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        assert dct.stats.ready_packets == 1
        assert dct.stats.dependent_packets == 1
        assert dct.stats.dependences_processed == 2


class TestStalls:
    def test_dm_conflict_stall(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))
        stride = 512 * 1024
        for i in range(8):
            dct.process_dependence(dep_packet(i, 0x4000_0000 + i * stride, Direction.IN))
        with pytest.raises(DctStall) as excinfo:
            dct.process_dependence(dep_packet(8, 0x4000_0000 + 8 * stride, Direction.IN))
        assert excinfo.value.reason is StallReason.DM_CONFLICT
        assert dct.stats.dm_conflicts == 1

    def test_conflict_counted_once_per_blocked_address(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))
        stride = 512 * 1024
        for i in range(8):
            dct.process_dependence(dep_packet(i, 0x4000_0000 + i * stride, Direction.IN))
        blocked = 0x4000_0000 + 8 * stride
        for _ in range(3):
            with pytest.raises(DctStall):
                dct.process_dependence(dep_packet(8, blocked, Direction.IN))
        assert dct.stats.dm_conflicts == 1
        assert dct.stats.dm_conflict_stall_cycles == 3 * dct.config.dm_conflict_stall_cycles

    def test_vm_full_stall(self):
        config = PicosConfig(vm_entries=1)
        dct = DependenceChainTracker(0, config)
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        with pytest.raises(DctStall) as excinfo:
            dct.process_dependence(dep_packet(1, B, Direction.OUT))
        assert excinfo.value.reason is StallReason.VM_FULL
        assert dct.stats.vm_full_stalls == 1

    def test_vm_full_stall_for_new_version_of_existing_address(self):
        config = PicosConfig(vm_entries=1)
        dct = DependenceChainTracker(0, config)
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        with pytest.raises(DctStall) as excinfo:
            dct.process_dependence(dep_packet(1, A, Direction.OUT))
        assert excinfo.value.reason is StallReason.VM_FULL

    def test_can_accept_reflects_capacity(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))
        stride = 512 * 1024
        for i in range(8):
            dct.process_dependence(dep_packet(i, 0x4000_0000 + i * stride, Direction.IN))
        assert not dct.can_accept(0x4000_0000 + 8 * stride, Direction.IN)
        # An address already present can always attach a reader.
        assert dct.can_accept(0x4000_0000, Direction.IN)

    def test_stall_does_not_corrupt_state(self):
        config = PicosConfig(vm_entries=1)
        dct = DependenceChainTracker(0, config)
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dm_before, vm_before = dct.dm.occupied, dct.vm.occupied
        with pytest.raises(DctStall):
            dct.process_dependence(dep_packet(1, B, Direction.OUT))
        assert (dct.dm.occupied, dct.vm.occupied) == (dm_before, vm_before)


class TestFinishPath:
    def test_producer_finish_wakes_last_consumer(self, dct):
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        dct.process_dependence(dep_packet(2, A, Direction.IN))
        outcome = dct.process_finish(finish_packet(dct, 0, producer.vm_index))
        assert len(outcome.wakeups) == 1
        assert outcome.wakeups[0].slot == slot(2)  # the LAST consumer

    def test_producer_finish_without_consumers_retires_version(self, dct):
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        outcome = dct.process_finish(finish_packet(dct, 0, producer.vm_index))
        assert outcome.version_released
        assert outcome.address_released
        assert dct.is_idle()

    def test_version_completion_wakes_next_producer(self, dct):
        first = dct.process_dependence(dep_packet(0, A, Direction.INOUT))
        second = dct.process_dependence(dep_packet(1, A, Direction.INOUT))
        outcome = dct.process_finish(finish_packet(dct, 0, first.vm_index))
        assert [w.slot for w in outcome.wakeups] == [slot(1)]
        assert outcome.version_released
        assert not outcome.address_released  # the second version is still live
        final = dct.process_finish(finish_packet(dct, 1, second.vm_index))
        assert final.address_released
        assert dct.is_idle()

    def test_consumers_must_finish_before_next_producer_wakes(self, dct):
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        writer = dct.process_dependence(dep_packet(2, A, Direction.OUT))
        # Producer ends: wakes the reader but not the next writer.
        wake1 = dct.process_finish(finish_packet(dct, 0, producer.vm_index))
        assert [w.slot for w in wake1.wakeups] == [slot(1)]
        # Reader ends: version complete, next writer woken.
        wake2 = dct.process_finish(finish_packet(dct, 1, producer.vm_index))
        assert [w.slot for w in wake2.wakeups] == [slot(2)]
        # Writer ends: everything retired.
        dct.process_finish(finish_packet(dct, 2, writer.vm_index))
        assert dct.is_idle()

    def test_reader_only_chain_retires_on_last_reader(self, dct):
        first = dct.process_dependence(dep_packet(0, A, Direction.IN))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        partial = dct.process_finish(finish_packet(dct, 0, first.vm_index))
        assert not partial.version_released
        final = dct.process_finish(finish_packet(dct, 1, first.vm_index))
        assert final.version_released and final.address_released

    def test_finish_frees_dm_way_for_conflicting_address(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))
        stride = 512 * 1024
        outcomes = [
            dct.process_dependence(dep_packet(i, 0x4000_0000 + i * stride, Direction.IN))
            for i in range(8)
        ]
        blocked_address = 0x4000_0000 + 8 * stride
        with pytest.raises(DctStall):
            dct.process_dependence(dep_packet(8, blocked_address, Direction.IN))
        dct.process_finish(finish_packet(dct, 0, outcomes[0].vm_index))
        assert dct.can_accept(blocked_address, Direction.IN)
        retry = dct.process_dependence(dep_packet(8, blocked_address, Direction.IN))
        assert retry.ready

    def test_recycled_slot_does_not_alias_finished_producer(self, dct):
        """A consumer reusing the producer's TRS slot must not be mistaken
        for the producer when it finishes (slot-recycling hazard)."""
        producer = dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.IN))
        dct.process_finish(finish_packet(dct, 0, producer.vm_index))
        # A new task recycles TM entry 0 and reads the same address.
        late = dct.process_dependence(dep_packet(0, A, Direction.IN))
        assert late.ready
        version = dct.vm.entry(late.vm_index)
        assert version.consumers_arrived == 2
        dct.process_finish(finish_packet(dct, 0, late.vm_index))
        assert version.consumers_finished == 1  # counted as consumer, not producer


class TestWatermarks:
    def test_memory_watermarks_tracked(self, dct):
        dct.process_dependence(dep_packet(0, A, Direction.OUT))
        dct.process_dependence(dep_packet(1, A, Direction.OUT))
        dct.process_dependence(dep_packet(2, B, Direction.OUT))
        assert dct.stats.vm_high_water == 3
        assert dct.stats.dm_high_water == 2
        assert dct.live_versions == 3
        assert dct.live_addresses == 2
