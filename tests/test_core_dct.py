"""Unit tests for the Dependence Chain Tracker.

The DCT speaks integer handles: a dependence is stored by ``process_batch``
under a packed slot handle (any unique int from the DCT's viewpoint) and
answered with a ``(ready, vm_index, predecessor)`` triple, ``-1`` meaning
no predecessor; ``process_finish_run`` answers ``(slot, vm_index)``
wake-ups in release order.
"""

from __future__ import annotations

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.dct import DependenceChainTracker, StallReason
from repro.runtime.task import Dependence, Direction

A, B = 0x1000, 0x2000
#: Direct-hash aliases: every ``ALIAS + i * STRIDE`` lands in DM set 0.
ALIAS, STRIDE = 0x4000_0000, 512 * 1024


def slot(tm_index: int, dep_index: int = 0) -> int:
    """The packed slot handle of TRS 0 under the default geometry."""
    return tm_index * PicosConfig().max_deps_per_task + dep_index


def store(dct: DependenceChainTracker, tm_index: int, address: int, direction: Direction):
    """Store one dependence: its outcome triple, or the stall reason."""
    outcomes, stall = dct.process_batch(
        [slot(tm_index)], [Dependence(address, direction)], 0, 1
    )
    return outcomes[0] if outcomes else stall


def finish(dct: DependenceChainTracker, tm_index: int, vm_index: int):
    """Finish one dependence: the wake-ups it causes."""
    return dct.process_finish_run([slot(tm_index)], [vm_index], 0, 1)


def way8() -> DependenceChainTracker:
    return DependenceChainTracker(0, PicosConfig.paper_prototype(DMDesign.WAY8))


def fill_set_zero(dct: DependenceChainTracker, direction: Direction = Direction.IN):
    """Eight aliasing addresses: DM set 0 of an 8-way DM is full."""
    return [store(dct, i, ALIAS + i * STRIDE, direction) for i in range(8)]


@pytest.fixture
def dct() -> DependenceChainTracker:
    return DependenceChainTracker(0, PicosConfig())


class TestNewDependencePath:
    def test_first_access_is_ready(self, dct):
        ready, _, predecessor = store(dct, 0, A, Direction.INOUT)
        assert (ready, predecessor) == (True, -1)
        assert dct.dm.occupied == 1
        assert dct.vm.occupied == 1

    def test_first_reader_is_ready_and_counted(self, dct):
        ready, vm_index, _ = store(dct, 0, A, Direction.IN)
        assert ready
        assert dct.vm._consumers_arrived[vm_index] == 1
        assert dct.vm._producer[vm_index] == -1

    def test_reader_behind_pending_producer_is_dependent(self, dct):
        producer = store(dct, 0, A, Direction.OUT)
        reader = store(dct, 1, A, Direction.IN)
        assert producer[0]
        # The first consumer has no chain link.
        assert reader == (False, producer[1], -1)

    def test_consumer_chain_links_previous_consumer(self, dct):
        store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.IN)
        second = store(dct, 2, A, Direction.IN)
        third = store(dct, 3, A, Direction.IN)
        assert second[2] == slot(1)
        assert third[2] == slot(2)

    def test_reader_behind_finished_producer_is_ready(self, dct):
        _, vm_index, _ = store(dct, 0, A, Direction.OUT)
        # Another consumer keeps the version alive after the producer ends.
        store(dct, 1, A, Direction.IN)
        finish(dct, 0, vm_index)
        assert store(dct, 2, A, Direction.IN) == (True, vm_index, -1)

    def test_writer_behind_live_version_is_dependent_new_version(self, dct):
        _, first, _ = store(dct, 0, A, Direction.OUT)
        ready, second, predecessor = store(dct, 1, A, Direction.OUT)
        assert (ready, predecessor) == (False, -1)
        assert second != first
        assert dct.vm._next_version[first] == second
        assert dct.vm.occupied == 2
        assert dct.dm.occupied == 1  # same address, one DM way

    def test_distinct_addresses_use_distinct_dm_ways(self, dct):
        store(dct, 0, A, Direction.OUT)
        store(dct, 1, B, Direction.OUT)
        assert dct.dm.occupied == 2
        assert dct.dm.lookup(A) != dct.dm.lookup(B)

    def test_stats_count_ready_and_dependent(self, dct):
        store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.IN)
        assert dct.stats.ready_packets == 1
        assert dct.stats.dependent_packets == 1
        assert dct.stats.dependences_processed == 2


class TestStalls:
    def test_dm_conflict_stall(self):
        dct = way8()
        fill_set_zero(dct)
        assert store(dct, 8, ALIAS + 8 * STRIDE, Direction.IN) is StallReason.DM_CONFLICT
        assert dct.stats.dm_conflicts == 1

    def test_conflict_counted_once_per_blocked_address(self):
        dct = way8()
        fill_set_zero(dct)
        for _ in range(3):
            assert store(dct, 8, ALIAS + 8 * STRIDE, Direction.IN) is StallReason.DM_CONFLICT
        assert dct.stats.dm_conflicts == 1
        assert dct.stats.dm_conflict_stall_cycles == 3 * dct.config.dm_conflict_stall_cycles

    @pytest.mark.parametrize("address", [B, A], ids=["first-access", "new-version"])
    def test_vm_full_stall_holds_until_a_version_retires(self, address):
        # One VM entry: a first access to B and a new version of the live A
        # both need a second entry, each on its own branch of process_batch.
        dct = DependenceChainTracker(0, PicosConfig(vm_entries=1))
        _, vm_index, _ = store(dct, 0, A, Direction.OUT)
        for attempt in (1, 2):
            assert not dct.can_accept(address, Direction.OUT)
            assert store(dct, 1, address, Direction.OUT) is StallReason.VM_FULL
            assert dct.stats.vm_full_stalls == attempt
        finish(dct, 0, vm_index)
        assert dct.can_accept(address, Direction.OUT)
        assert store(dct, 1, address, Direction.OUT)[0]
        assert dct.stats.vm_full_stalls == 2

    def test_can_accept_reflects_capacity(self):
        dct = way8()
        fill_set_zero(dct)
        assert not dct.can_accept(ALIAS + 8 * STRIDE, Direction.IN)
        # An address already present can always attach a reader.
        assert dct.can_accept(ALIAS, Direction.IN)

    def test_stall_does_not_corrupt_state(self):
        dct = DependenceChainTracker(0, PicosConfig(vm_entries=1))
        store(dct, 0, A, Direction.OUT)
        dm_before, vm_before = dct.dm.occupied, dct.vm.occupied
        assert store(dct, 1, B, Direction.OUT) is StallReason.VM_FULL
        assert (dct.dm.occupied, dct.vm.occupied) == (dm_before, vm_before)
        assert dct.dm.lookup(B) == -1


class TestFinishPath:
    def test_producer_finish_wakes_last_consumer(self, dct):
        _, vm_index, _ = store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.IN)
        store(dct, 2, A, Direction.IN)
        # Only the LAST consumer is woken; the TRS walks the chain back.
        assert finish(dct, 0, vm_index) == [(slot(2), vm_index)]

    def test_producer_finish_without_consumers_retires_version(self, dct):
        _, vm_index, _ = store(dct, 0, A, Direction.OUT)
        assert finish(dct, 0, vm_index) == []
        assert not dct.vm.is_occupied(vm_index)
        assert dct.dm.lookup(A) == -1
        assert dct.is_idle()

    def test_version_completion_wakes_next_producer(self, dct):
        _, first, _ = store(dct, 0, A, Direction.INOUT)
        _, second, _ = store(dct, 1, A, Direction.INOUT)
        assert finish(dct, 0, first) == [(slot(1), second)]
        assert not dct.vm.is_occupied(first)
        assert dct.dm.lookup(A) >= 0  # the second version is still live
        assert finish(dct, 1, second) == []
        assert dct.dm.lookup(A) == -1
        assert dct.is_idle()

    def test_consumers_must_finish_before_next_producer_wakes(self, dct):
        _, producer, _ = store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.IN)
        _, writer, _ = store(dct, 2, A, Direction.OUT)
        # Producer ends: wakes the reader but not the next writer.
        assert finish(dct, 0, producer) == [(slot(1), producer)]
        # Reader ends: version complete, next writer woken.
        assert finish(dct, 1, producer) == [(slot(2), writer)]
        # Writer ends: everything retired.
        finish(dct, 2, writer)
        assert dct.is_idle()

    def test_reader_only_chain_retires_on_last_reader(self, dct):
        _, vm_index, _ = store(dct, 0, A, Direction.IN)
        store(dct, 1, A, Direction.IN)
        assert finish(dct, 0, vm_index) == []
        assert dct.vm.is_occupied(vm_index)
        assert finish(dct, 1, vm_index) == []
        assert not dct.vm.is_occupied(vm_index)
        assert dct.dm.lookup(A) == -1

    def test_finish_frees_dm_way_for_conflicting_address(self):
        dct = way8()
        outcomes = fill_set_zero(dct)
        blocked = ALIAS + 8 * STRIDE
        assert store(dct, 8, blocked, Direction.IN) is StallReason.DM_CONFLICT
        finish(dct, 0, outcomes[0][1])
        assert dct.can_accept(blocked, Direction.IN)
        assert store(dct, 8, blocked, Direction.IN)[0]

    def test_recycled_slot_does_not_alias_finished_producer(self, dct):
        """A consumer reusing the producer's TRS slot must not be mistaken
        for the producer when it finishes (slot-recycling hazard)."""
        _, producer, _ = store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.IN)
        finish(dct, 0, producer)
        # A new task recycles TM entry 0 and reads the same address.
        ready, late, _ = store(dct, 0, A, Direction.IN)
        assert ready and late == producer
        assert dct.vm._consumers_arrived[late] == 2
        finish(dct, 0, late)
        # Counted as a consumer, not as the producer finishing again.
        assert dct.vm._consumers_finished[late] == 1
        assert dct.vm.is_occupied(late)


class TestWatermarks:
    def test_memory_watermarks_tracked(self, dct):
        store(dct, 0, A, Direction.OUT)
        store(dct, 1, A, Direction.OUT)
        store(dct, 2, B, Direction.OUT)
        assert dct.stats.vm_high_water == 3
        assert dct.stats.dm_high_water == 2
        assert dct.vm.occupied == 3
        assert dct.dm.occupied == 2
