"""Unit tests for the TM/TMX, VM and DM memory structures.

Each memory is a set of parallel flat columns addressed by an integer
index (the TM entry, the VM index, the DM way handle ``set * ways +
way``), with ``-1`` for *none*; see ``docs/datapath.md``.  The DM and the
VM are driven the way a run drives them: a DCT's ``process_batch`` stores
a dependence (a DM miss writes a way and a version inline) and
``process_finish_run`` retires it.  The tests read the columns, ``lookup``
and ``occupied``.
"""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.core.dependence_memory import DependenceMemory
from repro.core.task_memory import TaskMemory, TaskMemoryFullError
from repro.core.version_memory import VersionMemory
from repro.runtime.task import Dependence, Direction

from tests.helpers import ALIAS, STRIDE, finish, slot, store, way8


class TestTaskMemory:
    def test_allocate_and_release(self):
        memory = TaskMemory(entries=4, max_deps_per_task=3)
        tm_index = memory.allocate(task_id=7, num_deps=2)
        assert memory.occupied == 1
        assert memory._valid[tm_index] and memory._task_id[tm_index] == 7
        assert memory._num_deps[tm_index] == 2
        memory.release(tm_index)
        assert memory.occupied == 0
        assert not memory._valid[tm_index]

    def test_allocate_and_lookup(self):
        # A New Entry Request writes every TM0 field: an entry recycled
        # from a task with ready, recorded dependences starts with none.
        memory = TaskMemory(entries=1, max_deps_per_task=3)
        tm_index = memory.allocate(task_id=7, num_deps=2)
        memory.add_dependence_slots(tm_index, [Dependence(0x100, Direction.IN)] * 2, 0, 2)
        memory._ready_deps[tm_index] = 2  # as the TRS counts ready slots
        memory.release(tm_index)
        assert memory.allocate(task_id=8, num_deps=3) == tm_index
        assert memory._task_id[tm_index] == 8 and memory._num_deps[tm_index] == 3
        assert memory._ready_deps[tm_index] == 0
        assert memory._dep_count[tm_index] == 0

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
        assert memory.allocate(1, 0) == tm_index
        assert memory._task_id[tm_index] == 1

    def test_release_unoccupied_raises(self):
        memory = TaskMemory(entries=2, max_deps_per_task=3)
        with pytest.raises(KeyError):
            memory.release(0)

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
    def test_versions_take_entries_in_index_order(self):
        dct = way8(vm_entries=4)
        stored = [store(dct, i, 0x1000 * (i + 1)) for i in range(4)]
        assert [vm_index for _, vm_index, _ in stored] == [0, 1, 2, 3]
        assert dct.vm.full and dct.vm.occupied == 4
        assert store(dct, 4, 0x9000) is StallReason.VM_FULL

    def test_a_retired_entry_is_reused_first_and_reset(self):
        dct = way8(vm_entries=4)
        store(dct, 0, 0x1000)
        # Entry 1: a producer and one reader, both finished.
        _, version, _ = store(dct, 1, 0x2000)
        assert store(dct, 2, 0x2000, Direction.IN) == (False, version, -1)
        store(dct, 3, 0x3000)
        assert finish(dct, 1, version) == [(slot(2), version)]
        assert finish(dct, 2, version) == []
        vm = dct.vm
        assert not vm._valid[version] and vm.occupied == 2
        # The lowest free entry is the one just released, and every field
        # the first tenant wrote is reset for a reader of a new address.
        assert store(dct, 4, 0x5000, Direction.IN) == (True, version, -1)
        assert vm._valid[version] and vm._address[version] == 0x5000
        assert vm._producer[version] == -1
        assert not vm._producer_finished[version]
        assert vm._last_consumer[version] == -1
        assert vm._consumers_arrived[version] == 1
        assert vm._consumers_finished[version] == 0
        assert vm._next_version[version] == -1
        assert vm._dm_handle[version] == dct.dm.lookup(0x5000)

    def test_allocate_release_cycle(self):
        # A released entry goes on top of the free list: the entry released
        # last is the next one a new version takes.
        dct = way8(vm_entries=3)
        versions = [store(dct, i, 0x1000 * (i + 1))[1] for i in range(3)]
        assert dct.vm.full
        assert finish(dct, 0, versions[0]) == []
        assert finish(dct, 2, versions[2]) == []
        assert dct.vm.occupied == 1
        assert store(dct, 3, 0x8000)[1] == versions[2]
        assert store(dct, 4, 0x9000)[1] == versions[0]
        assert dct.vm.full

    def test_exhaustion(self):
        # A new version the VM cannot hold is not stored: the DM way of its
        # address keeps its latest version, live count and input bit.
        dct = way8(vm_entries=1)
        _, version, _ = store(dct, 0, 0x1000, Direction.IN)
        dm = dct.dm
        handle = dm.lookup(0x1000)
        assert dct.vm.full
        assert store(dct, 1, 0x1000, Direction.OUT) is StallReason.VM_FULL
        assert dm._latest_vm_index[handle] == version
        assert dm._live_versions[handle] == 1
        assert dm._input_only[handle]
        assert dct.vm._next_version[version] == -1
        assert dct.vm._consumers_arrived[version] == 1

    def test_live_listing(self):
        # Every live version of an address caches the same DM way, which
        # counts them and points at the latest.
        dct = way8()
        first = store(dct, 0, 0x100)[1]
        second = store(dct, 1, 0x100)[1]
        third = store(dct, 2, 0x200)[1]
        dm, vm = dct.dm, dct.vm
        handle, other = dm.lookup(0x100), dm.lookup(0x200)
        assert vm._dm_handle[first] == vm._dm_handle[second] == handle
        assert vm._dm_handle[third] == other != handle
        assert dm._live_versions[handle] == 2 and dm._latest_vm_index[handle] == second
        assert dm._live_versions[other] == 1 and dm._latest_vm_index[other] == third
        assert [vm._address[v] for v in (first, second, third)] == [0x100, 0x100, 0x200]
        assert vm.occupied == 3 and dm.occupied == 2

    def test_release_unoccupied_raises(self):
        memory = VersionMemory(entries=2)
        with pytest.raises(KeyError):
            memory.release(0)


class TestDependenceMemory:
    def test_a_miss_takes_the_lowest_free_way_of_its_set(self):
        dct = way8()
        dm = dct.dm
        assert dm.lookup(ALIAS) == -1
        _, vm_index, _ = store(dct, 0, ALIAS)
        handle = dm.lookup(ALIAS)
        assert handle == dm.set_index(ALIAS) * dm.ways_per_set == 0
        assert dm._valid[handle] and dm._tag[handle] == ALIAS
        assert not dm._input_only[handle]
        assert dm._latest_vm_index[handle] == vm_index
        assert dm._live_versions[handle] == 1
        # The next alias of set 0 takes way 1; a reader-only way is input-only.
        store(dct, 1, ALIAS + STRIDE, Direction.IN)
        assert dm.lookup(ALIAS + STRIDE) == handle + 1
        assert dm._input_only[handle + 1]
        assert dm.occupied == 2

    def test_pearson_design_avoids_aligned_conflicts(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.PEARSON8))
        outcomes = [store(dct, i, ALIAS + i * STRIDE) for i in range(64)]
        # The direct hash stores 8 of these; the Pearson hash far more.
        assert sum(o is not StallReason.DM_CONFLICT for o in outcomes) >= 48
        assert dct.dm.occupied >= 48

    def test_lookup_miss_then_hit(self):
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.PEARSON8))
        dm = dct.dm
        assert dm.lookup(0x100) == -1
        store(dct, 0, 0x100, Direction.IN)
        handle = dm.lookup(0x100)
        # The way lies in the row of the address's Pearson set.
        assert handle // dm.ways_per_set == dm.set_index(0x100)
        assert dm._tag[handle] == 0x100
        # A hit stores no new way.
        store(dct, 1, 0x100, Direction.IN)
        assert dm.lookup(0x100) == handle and dm.occupied == 1

    def test_release_and_reuse(self):
        # A recycled way takes the input bit of its new first access.
        dct = DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.PEARSON8))
        dm = dct.dm
        _, version, _ = store(dct, 0, 0x100, Direction.IN)
        handle = dm.lookup(0x100)
        assert dm._input_only[handle]
        assert finish(dct, 0, version) == []
        assert dm.lookup(0x100) == -1 and dm.occupied == 0
        store(dct, 1, 0x100, Direction.OUT)
        assert dm.lookup(0x100) == handle
        assert not dm._input_only[handle]
        assert dm._live_versions[handle] == 1

    def test_release_of_the_first_way_of_the_first_set(self):
        # Handle 0 is a real way: only a negative handle is a miss.
        dct = way8()
        _, vm_index, _ = store(dct, 0, ALIAS)
        assert dct.dm.lookup(ALIAS) == 0
        assert finish(dct, 0, vm_index) == []
        assert dct.dm.lookup(ALIAS) == -1
        assert dct.dm._tag[0] == -1 and dct.dm.occupied == 0

    def test_release_clears_the_tag(self):
        # The tag scan has no valid qualifier: a released way must never
        # alias a live address, so the release resets every way column.
        dct = way8()
        store(dct, 0, ALIAS)
        store(dct, 1, ALIAS)
        dm = dct.dm
        handle = dm.lookup(ALIAS)
        dm.release_handle(handle)
        assert dm.lookup(ALIAS) == -1 and dm.occupied == 0
        assert not dm._valid[handle] and dm._tag[handle] == -1
        assert dm._latest_vm_index[handle] == -1 and dm._live_versions[handle] == 0

    def test_a_full_set_leaves_the_other_sets_open(self):
        dct = way8()
        dm = dct.dm
        for i in range(8):
            store(dct, i, ALIAS + i * STRIDE)
        other = next(a for a in range(ALIAS, ALIAS + STRIDE, 8) if dm.set_index(a) != 0)
        assert dm.set_is_full(0) and not dm.set_is_full(dm.set_index(other))
        assert store(dct, 8, other)[0]
        assert dm.lookup(other) // dm.ways_per_set == dm.set_index(other)
        assert dm.occupied == 9
        assert store(dct, 9, ALIAS + 8 * STRIDE) is StallReason.DM_CONFLICT

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            DependenceMemory(DMDesign.WAY8, num_sets=0)


class TestDMWayRecycling:
    """The way-recycling edge: live versions reaching zero frees the way."""

    def test_a_freed_way_is_reused_lowest_index_first(self):
        dct = way8()
        dm = dct.dm
        addresses = [ALIAS + i * STRIDE for i in range(8)]
        versions = [store(dct, i, address)[1] for i, address in enumerate(addresses)]
        # A reader keeps way 5's version live after its producer ends.
        assert store(dct, 8, addresses[5], Direction.IN) == (False, versions[5], -1)
        newcomers = [ALIAS + i * STRIDE for i in range(8, 11)]
        assert not dct.can_accept(newcomers[0], Direction.OUT)
        assert store(dct, 9, newcomers[0]) is StallReason.DM_CONFLICT
        # The way frees when its address's last live version completes:
        # here on the reader's finish, not on the producer's.
        assert finish(dct, 5, versions[5]) == [(slot(8), versions[5])]
        assert dm.set_is_full(0) and not dct.can_accept(newcomers[0], Direction.OUT)
        assert finish(dct, 8, versions[5]) == []
        assert not dm._valid[5] and dm._tag[5] == -1
        assert dm.lookup(addresses[5]) == -1
        assert not dm.set_is_full(0) and dct.can_accept(newcomers[0], Direction.OUT)
        # Ways 5, 2 and 6 free in that order.  The priority encoder takes
        # the lowest free way first: not the one freed first or last.
        assert finish(dct, 2, versions[2]) == []
        assert finish(dct, 6, versions[6]) == []
        assert dm.occupied == 5
        for tm_index, newcomer in enumerate(newcomers, start=9):
            assert store(dct, tm_index, newcomer)[0]
        assert [dm.lookup(newcomer) for newcomer in newcomers] == [2, 5, 6]
        assert dm.occupied == 8 and dct.stats.dm_conflicts == 1

    def test_conflict_then_recycle_agrees_on_every_delivery_path(self):
        from repro.sim.request import SimulationRequest
        from tests.helpers import assert_delivery_paths_agree, make_program, run_delivery_paths

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
