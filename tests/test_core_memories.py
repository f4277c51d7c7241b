"""Unit tests for the TM/TMX, VM and DM memory structures."""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign
from repro.core.reference.dependence_memory import (
    DependenceMemory,
    DependenceMemoryConflict,
)
from repro.core.packets import TaskSlotRef
from repro.core.reference.task_memory import TaskMemory, TaskMemoryFullError
from repro.core.reference.version_memory import VersionMemory, VersionMemoryFullError


class TestTaskMemory:
    def test_allocate_and_lookup(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        entry = memory.allocate(task_id=7, num_deps=2)
        assert memory.occupied == 1
        assert memory.has_task(7)
        assert memory.entry(entry.tm_index).task_id == 7
        assert memory.entry_for_task(7).tm_index == entry.tm_index

    def test_allocation_exhaustion(self):
        memory = TaskMemory(entries=2, max_deps_per_task=3)
        memory.allocate(0, 0)
        memory.allocate(1, 0)
        assert memory.full
        with pytest.raises(TaskMemoryFullError):
            memory.allocate(2, 0)

    def test_release_recycles_entries(self):
        memory = TaskMemory(entries=1, max_deps_per_task=3)
        entry = memory.allocate(0, 0)
        memory.release(entry.tm_index)
        assert not memory.full
        assert memory.allocate(1, 0).tm_index == entry.tm_index

    def test_release_unoccupied_raises(self):
        memory = TaskMemory(entries=2, max_deps_per_task=3)
        with pytest.raises(KeyError):
            memory.release(0)

    def test_duplicate_task_id_rejected(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        memory.allocate(5, 0)
        with pytest.raises(ValueError):
            memory.allocate(5, 0)

    def test_too_many_dependences_rejected(self):
        memory = TaskMemory(entries=4, max_deps_per_task=2)
        with pytest.raises(ValueError):
            memory.allocate(0, 3)

    def test_dependence_slots(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        entry = memory.allocate(0, 2)
        memory.add_dependence_slot(entry.tm_index, 0, 0x100, is_producer=True)
        memory.add_dependence_slot(entry.tm_index, 1, 0x200, is_producer=False)
        slot = memory.dependence_slot(entry.tm_index, 1)
        assert slot.address == 0x200
        assert not slot.is_producer
        with pytest.raises(KeyError):
            memory.dependence_slot(entry.tm_index, 9)

    def test_high_water_tracking(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        a = memory.allocate(0, 0)
        b = memory.allocate(1, 0)
        memory.release(a.tm_index)
        memory.release(b.tm_index)
        assert memory.high_water == 2
        assert memory.occupied == 0

    def test_in_flight_listing(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        memory.allocate(10, 0)
        memory.allocate(20, 0)
        assert set(memory.in_flight_task_ids()) == {10, 20}

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TaskMemory(entries=0)
        with pytest.raises(ValueError):
            TaskMemory(entries=1, max_deps_per_task=0)


class TestVersionMemory:
    def test_allocate_release_cycle(self):
        memory = VersionMemory(entries=2)
        version = memory.allocate(0x100)
        assert memory.occupied == 1
        memory.release(version.vm_index)
        assert memory.occupied == 0

    def test_exhaustion(self):
        memory = VersionMemory(entries=1)
        memory.allocate(0x100)
        assert memory.full
        with pytest.raises(VersionMemoryFullError):
            memory.allocate(0x200)

    def test_release_unoccupied_raises(self):
        memory = VersionMemory(entries=2)
        with pytest.raises(KeyError):
            memory.release(0)

    def test_entry_lookup_and_live_listing(self):
        memory = VersionMemory(entries=4)
        first = memory.allocate(0x100)
        second = memory.allocate(0x100)
        third = memory.allocate(0x200)
        assert memory.entry(first.vm_index) is first
        assert len(memory.live_versions_of(0x100)) == 2
        assert len(memory.live_entries()) == 3
        assert third in memory.live_entries()

    def test_statistics(self):
        memory = VersionMemory(entries=4)
        a = memory.allocate(0x1)
        memory.allocate(0x2)
        memory.release(a.vm_index)
        memory.allocate(0x3)
        assert memory.total_allocations == 3
        assert memory.high_water == 2
        assert 0.0 < memory.utilisation() <= 1.0
        assert set(memory.snapshot()) == {e.vm_index for e in memory.live_entries()}

    def test_version_entry_state_machine(self):
        memory = VersionMemory(entries=4)
        version = memory.allocate(0x100)
        # A version with no producer behaves as "readers ready".
        assert version.readers_ready
        version.producer = TaskSlotRef(0, 1, 0)
        assert not version.readers_ready
        assert not version.complete
        version.producer_finished = True
        assert version.readers_ready
        assert version.complete
        version.consumers_arrived = 2
        assert not version.complete
        version.consumers_finished = 2
        assert version.complete


class TestDependenceMemory:
    def test_lookup_miss_then_hit(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        assert not dm.lookup(0x100).hit
        dm.allocate(0x100, input_only=True)
        result = dm.lookup(0x100)
        assert result.hit and result.way is not None
        assert result.way.tag == 0x100

    def test_release_and_reuse(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        dm.allocate(0x100, input_only=False)
        dm.release(0x100)
        assert not dm.lookup(0x100).hit
        assert dm.occupied == 0

    def test_release_missing_raises(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        with pytest.raises(KeyError):
            dm.release(0x999)

    def test_conflict_on_full_set_direct_hash(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        # 512 KiB-aligned addresses all map to set 0 with the direct hash.
        stride = 512 * 1024
        for i in range(8):
            dm.allocate(0x4000_0000 + i * stride, input_only=True)
        with pytest.raises(DependenceMemoryConflict):
            dm.allocate(0x4000_0000 + 8 * stride, input_only=True)
        assert dm.conflicts == 1

    def test_pearson_design_avoids_aligned_conflicts(self):
        dm = DependenceMemory(DMDesign.PEARSON8, num_sets=64)
        stride = 512 * 1024
        stored = 0
        for i in range(64):
            try:
                dm.allocate(0x4000_0000 + i * stride, input_only=True)
                stored += 1
            except DependenceMemoryConflict:
                pass
        # The direct hash would have stored only 8; Pearson must do far better.
        assert stored >= 48

    def test_16way_design_has_higher_capacity_per_set(self):
        dm = DependenceMemory(DMDesign.WAY16, num_sets=64)
        stride = 512 * 1024
        for i in range(16):
            dm.allocate(0x4000_0000 + i * stride, input_only=True)
        with pytest.raises(DependenceMemoryConflict):
            dm.allocate(0x4000_0000 + 16 * stride, input_only=True)

    def test_capacity_and_occupancy(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=4)
        assert dm.capacity == 32
        dm.allocate(0x1, input_only=True)
        dm.allocate(0x2, input_only=True)
        assert dm.occupied == 2
        assert dm.high_water == 2

    def test_way_priority_is_lowest_free_index(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        stride = 512 * 1024
        way0, _ = dm.allocate(0x4000_0000, input_only=True)
        way1, _ = dm.allocate(0x4000_0000 + stride, input_only=True)
        assert (way0, way1) == (0, 1)

    def test_set_occupancy_histogram(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        stride = 512 * 1024
        for i in range(4):
            dm.allocate(0x4000_0000 + i * stride, input_only=True)
        histogram = dm.set_occupancy_histogram()
        assert histogram == {0: 4}

    def test_live_addresses_listing(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        dm.allocate(0xAAA0, input_only=True)
        dm.allocate(0xBBB0, input_only=True)
        assert set(dm.live_addresses()) == {0xAAA0, 0xBBB0}

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            DependenceMemory(DMDesign.WAY8, num_sets=0)


class TestDMWayRecycling:
    """The way-recycling edge: live_versions hitting zero frees the way."""

    STRIDE = 512 * 1024  # direct-hash aliases: all addresses land in set 0

    def _full_set_dm(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        addresses = [0x4000_0000 + i * self.STRIDE for i in range(8)]
        for address in addresses:
            _, way = dm.allocate(address, input_only=False)
            way.live_versions = 1
        return dm, addresses

    def test_release_frees_the_way_for_a_different_tag(self):
        dm, addresses = self._full_set_dm()
        newcomer = 0x4000_0000 + 8 * self.STRIDE
        with pytest.raises(DependenceMemoryConflict):
            dm.allocate(newcomer, input_only=True)
        # Retiring the *third* address must make room for the newcomer
        # (a different tag) in the way that just freed.
        dm.release(addresses[2])
        way_index, way = dm.allocate(newcomer, input_only=True)
        assert way.tag == newcomer
        assert way_index == 2  # priority encoder: the freed way is reused
        assert dm.lookup(newcomer).hit
        assert not dm.lookup(addresses[2]).hit
        # Counter bookkeeping: one conflict, occupancy back at 8.
        assert dm.conflicts == 1
        assert sum(dm.set_occupancy_histogram().values()) == dm.occupied == 8

    def test_dct_conflict_then_recycle_resumes_cleanly(self):
        from repro.core.config import PicosConfig
        from repro.core.dct import DctStall, StallReason
        from repro.core.packets import DependencePacket, FinishPacket
        from repro.core.reference.dct import DependenceChainTracker
        from repro.runtime.task import Direction

        config = PicosConfig.paper_prototype(DMDesign.WAY8)
        dct = DependenceChainTracker(0, config)
        outcomes = {}
        for i in range(8):
            address = 0x4000_0000 + i * self.STRIDE
            packet = DependencePacket(
                slot=TaskSlotRef(0, i, 0), address=address, direction=Direction.OUT
            )
            outcomes[address] = dct.process_dependence(packet)
        ninth = 0x4000_0000 + 8 * self.STRIDE
        ninth_packet = DependencePacket(
            slot=TaskSlotRef(0, 8, 0), address=ninth, direction=Direction.OUT
        )
        assert not dct.can_accept(ninth, Direction.OUT)
        with pytest.raises(DctStall) as stall:
            dct.process_dependence(ninth_packet)
        assert stall.value.reason is StallReason.DM_CONFLICT

        # Finishing the first producer completes its version: live_versions
        # drops to zero and the DM way is recycled for the newcomer.
        first = 0x4000_0000
        finish = FinishPacket(
            slot=TaskSlotRef(0, 0, 0),
            vm_index=outcomes[first].vm_index,
            address=first,
        )
        outcome = dct.process_finish(finish)
        assert outcome.version_released and outcome.address_released
        assert dct.can_accept(ninth, Direction.OUT)
        accepted = dct.process_dependence(ninth_packet)
        assert accepted.ready
        assert dct.dm.lookup(ninth).hit
        assert not dct.dm.lookup(first).hit

    def test_conflict_then_recycle_agrees_on_every_delivery_path(self):
        from repro.core.config import PicosConfig
        from repro.sim.request import SimulationRequest
        from tests.helpers import (
            assert_delivery_paths_agree,
            make_program,
            run_delivery_paths,
        )

        # 12 independent producers of set-0-aliasing addresses with equal
        # durations: the DM set fills, submissions stall, and several
        # workers finish in the same cycle, exercising conflict-then-
        # recycle across slicing, fault interception and a snapshot.
        spec = [[(0x4000_0000 + i * self.STRIDE, "out")] for i in range(12)]
        program = make_program(spec, durations=[50] * 12, name="dm-recycle")
        request = SimulationRequest.for_program(
            program,
            backend="hil-hw",
            num_workers=4,
            config=PicosConfig.paper_prototype(DMDesign.WAY8),
        )
        paths = run_delivery_paths(request)
        assert paths["straight"]["counters"]["dm_conflicts"] >= 1
        assert_delivery_paths_agree(paths)
