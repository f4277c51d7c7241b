"""Unit tests for the TM/TMX, VM and DM memory structures.

Each memory is a set of parallel flat columns addressed by an integer
index (the TM entry, the VM index, the DM way handle ``set * ways +
way``), with ``-1`` for *none*; see ``docs/datapath.md``.
"""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign
from repro.core.dependence_memory import DependenceMemory, DependenceMemoryConflict
from repro.core.task_memory import TaskMemory, TaskMemoryFullError
from repro.core.version_memory import VersionMemory, VersionMemoryFullError
from repro.runtime.task import Dependence, Direction

#: Direct-hash aliases: every ``ALIAS + i * STRIDE`` lands in DM set 0.
ALIAS, STRIDE = 0x4000_0000, 512 * 1024


class TestTaskMemory:
    def test_allocate_and_lookup(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        tm_index = memory.allocate(task_id=7, num_deps=2)
        assert memory.occupied == 1
        assert memory.has_task(7)
        assert memory.tm_index_for_task(7) == tm_index
        assert memory.in_flight_task_ids() == [7]

    def test_allocation_exhaustion(self):
        memory = TaskMemory(entries=2, max_deps_per_task=3)
        memory.allocate(0, 0)
        memory.allocate(1, 0)
        assert memory.full
        with pytest.raises(TaskMemoryFullError):
            memory.allocate(2, 0)

    def test_release_recycles_entries(self):
        memory = TaskMemory(entries=1, max_deps_per_task=3)
        tm_index = memory.allocate(0, 0)
        memory.release(tm_index)
        assert not memory.full
        assert not memory.has_task(0)
        assert memory.allocate(1, 0) == tm_index

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
        tm_index = memory.allocate(0, 2)
        deps = [Dependence(0x100, Direction.INOUT), Dependence(0x200, Direction.IN)]
        memory.add_dependence_slots(tm_index, deps, 0, 2)
        offset = tm_index * memory.max_deps_per_task + 1
        assert memory._slot_address[offset] == 0x200
        assert not memory._slot_is_producer[offset]
        assert memory._slot_is_producer[offset - 1]
        assert memory._dep_count[tm_index] == 2
        memory.drop_dependence_slots(tm_index, 1)
        assert memory._dep_count[tm_index] == 1
        with pytest.raises(ValueError):
            memory.add_dependence_slots(tm_index, deps * 2, 2, 4)

    def test_in_flight_listing(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        memory.allocate(10, 0)
        memory.allocate(20, 0)
        assert set(memory.in_flight_task_ids()) == {10, 20}

    def test_one_dependence_per_task_is_a_valid_geometry(self):
        memory = TaskMemory(entries=1, max_deps_per_task=1)
        tm_index = memory.allocate(0, 1)
        memory.add_dependence_slots(tm_index, [Dependence(0x100, Direction.IN)], 0, 1)
        assert memory._dep_count[tm_index] == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TaskMemory(entries=0)
        with pytest.raises(ValueError):
            TaskMemory(entries=1, max_deps_per_task=0)


class TestVersionMemory:
    def test_allocate_release_cycle(self):
        memory = VersionMemory(entries=2)
        vm_index = memory.allocate(0x100)
        assert memory.occupied == 1
        assert memory.is_occupied(vm_index)
        memory.release(vm_index)
        assert memory.occupied == 0
        assert not memory.is_occupied(vm_index)

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

    def test_live_listing(self):
        memory = VersionMemory(entries=4)
        first = memory.allocate(0x100)
        second = memory.allocate(0x100)
        third = memory.allocate(0x200)
        assert memory.live_versions_of(0x100) == [first, second]
        assert memory.live_versions_of(0x200) == [third]
        assert memory.occupied == 3


class TestDependenceMemory:
    def test_lookup_miss_then_hit(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        assert dm.lookup(0x100) == -1
        handle = dm.allocate(0x100, input_only=True)
        assert dm.lookup(0x100) == handle
        assert dm._tag[handle] == 0x100

    def test_release_and_reuse(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        dm.allocate(0x100, input_only=False)
        dm.release(0x100)
        assert dm.lookup(0x100) == -1
        assert dm.occupied == 0

    def test_release_of_the_first_way_of_the_first_set(self):
        # Handle 0 is a real way: only a negative lookup is a miss.
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        assert dm.allocate(ALIAS, input_only=False) == 0
        dm.release(ALIAS)
        assert dm.lookup(ALIAS) == -1
        assert dm.occupied == 0

    def test_release_missing_raises(self):
        dm = DependenceMemory(DMDesign.PEARSON8)
        with pytest.raises(KeyError):
            dm.release(0x999)

    def test_conflict_on_full_set_direct_hash(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        for i in range(8):
            dm.allocate(ALIAS + i * STRIDE, input_only=True)
        with pytest.raises(DependenceMemoryConflict) as exc:
            dm.allocate(ALIAS + 8 * STRIDE, input_only=True)
        assert exc.value.set_index == 0
        assert dm.occupied == 8
        assert dm.set_is_full(0)

    def test_pearson_design_avoids_aligned_conflicts(self):
        dm = DependenceMemory(DMDesign.PEARSON8, num_sets=64)
        stored = 0
        for i in range(64):
            try:
                dm.allocate(ALIAS + i * STRIDE, input_only=True)
                stored += 1
            except DependenceMemoryConflict:
                pass
        # The direct hash would have stored only 8; Pearson must do far better.
        assert stored >= 48

    def test_16way_design_has_higher_capacity_per_set(self):
        dm = DependenceMemory(DMDesign.WAY16, num_sets=64)
        for i in range(16):
            dm.allocate(ALIAS + i * STRIDE, input_only=True)
        with pytest.raises(DependenceMemoryConflict):
            dm.allocate(ALIAS + 16 * STRIDE, input_only=True)

    def test_capacity_and_occupancy(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=4)
        assert dm.capacity == 32
        dm.allocate(0x1, input_only=True)
        dm.allocate(0x2, input_only=True)
        assert dm.occupied == 2

    def test_way_priority_is_lowest_free_index(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        first = dm.allocate(ALIAS, input_only=True)
        second = dm.allocate(ALIAS + STRIDE, input_only=True)
        assert (first, second) == (0, 1)

    def test_set_occupancy_histogram(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        for i in range(4):
            dm.allocate(ALIAS + i * STRIDE, input_only=True)
        assert dm.set_occupancy_histogram() == {0: 4}

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

    def _full_set_dm(self):
        dm = DependenceMemory(DMDesign.WAY8, num_sets=64)
        addresses = [ALIAS + i * STRIDE for i in range(8)]
        for address in addresses:
            dm.allocate(address, input_only=False)
        return dm, addresses

    def test_release_frees_the_way_for_a_different_tag(self):
        dm, addresses = self._full_set_dm()
        newcomer = ALIAS + 8 * STRIDE
        with pytest.raises(DependenceMemoryConflict):
            dm.allocate(newcomer, input_only=True)
        # Retiring the *third* address must make room for the newcomer
        # (a different tag) in the way that just freed.
        dm.release(addresses[2])
        assert not dm.set_is_full(0)
        # Priority encoder: the freed way is reused.
        assert dm.allocate(newcomer, input_only=True) == 2
        assert dm.lookup(newcomer) == 2
        assert dm.lookup(addresses[2]) == -1
        # Occupancy is back at 8.
        assert sum(dm.set_occupancy_histogram().values()) == dm.occupied == 8

    def test_dct_conflict_then_recycle_resumes_cleanly(self):
        from repro.core.config import PicosConfig
        from repro.core.dct import DependenceChainTracker, StallReason

        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))
        fillers = [Dependence(ALIAS + i * STRIDE, Direction.OUT) for i in range(8)]
        outcomes, stall = dct.process_batch(list(range(8)), fillers, 0, 8)
        assert stall is None
        ninth = Dependence(ALIAS + 8 * STRIDE, Direction.OUT)
        assert not dct.can_accept(ninth.address, Direction.OUT)
        assert dct.process_batch([8], [ninth], 0, 1) == ([], StallReason.DM_CONFLICT)

        # Finishing the first producer completes its version: live_versions
        # drops to zero and the DM way is recycled for the newcomer.
        assert dct.process_finish_run([0], [outcomes[0][1]], 0, 1) == []
        assert dct.dm.lookup(ALIAS) == -1
        assert dct.can_accept(ninth.address, Direction.OUT)
        accepted, stall = dct.process_batch([8], [ninth], 0, 1)
        assert stall is None and accepted[0][0]
        assert dct.dm.lookup(ninth.address) == 0  # the recycled way

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
        spec = [[(ALIAS + i * STRIDE, "out")] for i in range(12)]
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
