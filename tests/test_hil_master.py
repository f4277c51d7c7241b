"""Edge cases of the HIL master-job state machine and ready-task delivery.

The flat, table-driven master dispatcher re-arms the ARM core exactly once
per event-handler activation, and every ready-task visibility notification
is one engine event of its own (see ``docs/hil.md``).  These tests pin the
edges the golden digests do not reach on their own:

* a kick while a master event is already in flight must be a no-op (one
  job in flight at a time, no double-booked ARM core);
* a kick that schedules at the *current* cycle after the queue head was
  peeked must still deliver in FIFO order -- post-peek overtaking, the
  calendar-queue subtlety of ``docs/engine.md``;
* zero-cost master jobs, zero-latency wake-up clusters interleaved with
  worker completions, LIFO scheduling and random graphs must give
  field-for-field equal results straight, sliced, with a dormant fault
  armed and restored from a mid-run snapshot
  (:func:`tests.helpers.run_delivery_paths`).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.task import Direction
from repro.sim.engine import EventQueue
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import SimulationRequest
from repro.traces.synthetic import random_program

from tests.helpers import (
    assert_delivery_paths_agree,
    make_program,
    queued,
    recording_handlers,
    run_delivery_paths,
)

A, B = 0x1000, 0x2000


def fanout_program(readers: int = 8, duration: int = 30):
    """One producer, ``readers`` consumers of the same address."""
    spec = [[(A, Direction.OUT)]] + [[(A, Direction.IN)]] * readers
    return make_program(spec, durations=[duration] * (readers + 1), name="fanout")


def delivery_paths(program, *, mode, num_workers, config=None, policy=SchedulingPolicy.FIFO):
    """:func:`run_delivery_paths` of one HIL run of ``program``."""
    return run_delivery_paths(
        SimulationRequest.for_program(
            program,
            backend=mode.backend_name,
            num_workers=num_workers,
            config=config,
            policy=policy,
        )
    )


def primed_simulator(program, **kwargs) -> HILSimulator:
    """A simulator whose master can be kicked before ``run()``: its
    timeline columns exist from construction, one zero per task."""
    sim = HILSimulator(program, **kwargs)
    columns = (sim._created_at, sim._submitted_at, sim._ready_at,
               sim._started_at, sim._finished_at)
    assert all(column == [0] * program.num_tasks for column in columns)
    return sim


class TestMasterRearm:
    """Re-arming while a master job is already in flight."""

    def test_second_kick_while_in_flight_is_a_noop(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        sim._kick_master(5)
        assert sim._master_busy
        assert len(queued(sim.queue)) == 1  # one master-done event in flight
        assert sim._next_create_index == 1
        assert sim._created_at[:2] == [5, 0]  # the create stamp, in its row
        # A re-arm point firing again while the job is in flight must not
        # double-book the ARM core or consume another job.
        sim._kick_master(7)
        assert len(queued(sim.queue)) == 1
        assert sim._next_create_index == 1
        assert sim._created_at[:2] == [5, 0]

    def test_rearm_picks_finish_over_dispatch_over_create(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        # Prime all three job sources, then re-arm once: the AXI-stream
        # arbitration order (finish > dispatch > create) must decide.
        sim._master_finish_jobs.append(7)
        sim._master_dispatch_jobs.append((3, 0))
        sim._kick_master(0)
        [(_, _, (kind, payload))] = queued(sim.queue)
        assert kind == "finish"
        assert payload == 7
        assert sim._master_dispatch_jobs  # untouched
        assert sim._next_create_index == 0  # no create consumed

    def test_kick_with_no_work_leaves_master_idle(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        sim._next_create_index = program.num_tasks  # nothing left to create
        sim._kick_master(0)
        assert not sim._master_busy
        assert sim.queue.empty

    def test_create_throttles_on_full_new_task_fifo(self):
        program = fanout_program(readers=30)
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        for _ in range(sim.NEW_TASK_FIFO_DEPTH):
            sim._pending_new.append(program[0])
        sim._kick_master(0)
        assert not sim._master_busy  # throttled: FIFO full, nothing else to do
        assert sim._next_create_index == 0


class TestKickAtCurrentCycleAfterPeek:
    """Post-peek overtaking: peeks must not commit the queue head."""

    def test_schedule_at_now_after_a_stopped_dispatch(self):
        queue = EventQueue()
        queue.schedule(10, "later", "a")
        handlers, delivered = recording_handlers(["kick", "later"])
        # A horizon-bounded dispatch peeks the head without consuming it ...
        queue.dispatch(handlers, 5)
        assert delivered == []
        # ... so a kick at the *current* cycle must still overtake it.
        queue.schedule(0, "kick", "b")
        queue.dispatch(handlers)
        assert delivered == [(0, "kick", "b"), (10, "later", "a")]

    def test_zero_cost_master_jobs_complete_at_the_peeked_cycle(self):
        # With comm_cycles=0 every re-arm schedules its master-done event
        # at the cycle being delivered -- in a sliced run, after the
        # dispatch loop already peeked the head of that cycle.  The
        # schedule must not depend on how the run is delivered.
        config = PicosConfig(comm_cycles=0)
        program = fanout_program(readers=12, duration=25)
        for mode in (HILMode.HW_COMM, HILMode.FULL_SYSTEM):
            assert_delivery_paths_agree(
                delivery_paths(program, mode=mode, num_workers=3, config=config)
            )


class _SameCycleMasterJobs:
    """EventQueue proxy counting master jobs armed to complete at ``now``."""

    def __init__(self, inner: EventQueue) -> None:
        self._inner = inner
        self.same_cycle_jobs = 0

    def schedule(self, time, kind, payload=None):
        if kind == "master-done" and time == self._inner.now:
            self.same_cycle_jobs += 1
        self._inner.schedule(time, kind, payload)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMasterCompletionClusters:
    """Master jobs that complete in the cycle that armed them."""

    def test_zero_cost_jobs_complete_one_event_each_in_the_arming_cycle(self):
        # comm_cycles=0 makes every finish/dispatch/create job of HW+comm
        # mode zero-cost, so the serial master's re-arms land at the
        # current cycle and successive completions cluster there.  Each
        # job is still an engine event of its own: create, dispatch and
        # finish per task, next to its visibility and worker completion.
        config = PicosConfig(comm_cycles=0)
        program = fanout_program(readers=12, duration=25)
        sim = HILSimulator(
            program, config=config, mode=HILMode.HW_COMM, num_workers=3
        )
        sim.queue = _SameCycleMasterJobs(sim.queue)
        result = sim.run()
        assert result.completed_all()
        assert sim.queue.same_cycle_jobs > 0  # real clusters formed
        assert result.counters["events_processed"] == 5 * program.num_tasks

    def test_costed_jobs_never_complete_in_the_arming_cycle(self):
        # With a non-zero job cost the re-arm always lands in the future,
        # so the serial master never completes two jobs in one cycle.
        config = PicosConfig(comm_cycles=3)
        program = fanout_program(readers=8, duration=25)
        sim = HILSimulator(
            program, config=config, mode=HILMode.HW_COMM, num_workers=3
        )
        sim.queue = _SameCycleMasterJobs(sim.queue)
        result = sim.run()
        assert result.completed_all()
        assert sim.queue.same_cycle_jobs == 0


class TestReadyClusterInterleaving:
    """Same-cycle visibility clusters against worker completions."""

    def test_fanout_wakeups_arrive_as_one_event_per_task(self):
        # chain_hop_cycles=0 makes a consumer chain wake at one cycle, so
        # the finish of the producer makes a genuine multi-task cluster
        # visible; each member is still an engine event of its own.
        config = PicosConfig(chain_hop_cycles=0)
        program = fanout_program(readers=8)
        result = HILSimulator(
            program, config=config, mode=HILMode.HW_ONLY, num_workers=8
        ).run()
        assert result.completed_all()
        ready_cycles = Counter(t.ready for t in result.timelines.values())
        assert max(ready_cycles.values()) > 1  # at least one real cluster
        assert result.counters["events_processed"] == 2 * program.num_tasks

    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    def test_clustered_wakeups_interleave_with_completions(self, mode):
        # Equal durations make worker completions land in same-cycle runs;
        # zero-latency wake-ups put ready clusters on those same cycles.
        config = PicosConfig(chain_hop_cycles=0, wake_latency=0)
        spec = [[(A, Direction.OUT)], [(B, Direction.OUT)]]
        spec += [[(A, Direction.IN)]] * 6
        spec += [[(B, Direction.IN)]] * 6
        program = make_program(spec, durations=[40] * len(spec), name="interleave")
        assert_delivery_paths_agree(
            delivery_paths(program, mode=mode, num_workers=4, config=config)
        )

    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_graphs_agree_on_every_delivery_path(self, mode, seed):
        program = random_program(
            seed, num_tasks=40, num_addresses=12, max_deps=4, max_duration=60
        )
        assert_delivery_paths_agree(delivery_paths(program, mode=mode, num_workers=4))

    def test_lifo_policy_agrees_on_every_delivery_path(self):
        # A LIFO scheduler sees a wake-up cluster one task per event; the
        # policy must survive slicing, fault interception and a snapshot.
        config = PicosConfig(chain_hop_cycles=0)
        program = fanout_program(readers=10, duration=100)
        assert_delivery_paths_agree(
            delivery_paths(
                program,
                mode=HILMode.HW_ONLY,
                num_workers=2,
                config=config,
                policy=SchedulingPolicy.LIFO,
            )
        )
