"""Unit tests for the event engine, the worker pool and the result objects."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventQueue
from repro.sim.results import SimulationResult, TaskTimeline
from repro.sim.worker import WorkerPool

from tests.helpers import queued, recording_handlers


class TestEventQueue:
    def test_events_delivered_in_time_order(self):
        queue = EventQueue()
        queue.schedule(30, "c")
        queue.schedule(10, "a")
        queue.schedule(20, "b")
        handlers, delivered = recording_handlers("abc")
        queue.dispatch(handlers)
        assert delivered == [(10, "a", None), (20, "b", None), (30, "c", None)]
        assert queue.now == 30
        assert queue.processed == 3

    def test_simultaneous_events_keep_scheduling_order(self):
        queue = EventQueue()
        for index in range(5):
            queue.schedule(7, "tick", index)
        handlers, delivered = recording_handlers(["tick"])
        queue.dispatch(handlers)
        assert [payload for _, _, payload in delivered] == [0, 1, 2, 3, 4]

    def test_scheduling_in_the_past_raises(self):
        queue = EventQueue()
        queue.schedule(5, "first")
        queue.dispatch(recording_handlers(["first"])[0])
        with pytest.raises(ValueError):
            queue.schedule(4, "late")
        queue.schedule(5, "now")  # the current cycle is not the past
        assert queued(queue) == [(5, "now", None)]

    def test_an_empty_queue_delivers_nothing(self):
        queue = EventQueue()
        handlers, delivered = recording_handlers("a")
        queue.dispatch(handlers)
        queue.dispatch(handlers, 10)
        assert delivered == []
        assert (queue.now, queue.processed, queue.peek_time, queue.empty) == (0, 0, None, True)
        assert queue.pop_same_kind("a", 0) is None

    def test_peek_time_previews_without_advancing(self):
        queue = EventQueue()
        assert queue.peek_time is None
        queue.schedule(30, "b")
        queue.schedule(10, "a")
        assert queue.peek_time == 10
        assert queue.now == 0  # peeking does not advance the clock
        queue.dispatch(recording_handlers("ab")[0], 10)
        assert queue.peek_time == 30

    def test_a_horizon_stops_before_a_later_bucket_and_resumes(self):
        queue = EventQueue()
        for time in (5, 10, 15, 20):
            queue.schedule(time, "t", time)
        handlers, delivered = recording_handlers("t")
        queue.dispatch(handlers, 12)
        assert [time for time, _, _ in delivered] == [5, 10]
        assert queue.now == 10  # the clock never passes the horizon
        assert queued(queue) == [(15, "t", 15), (20, "t", 20)]
        queue.dispatch(handlers)
        assert [time for time, _, _ in delivered] == [5, 10, 15, 20]

    def test_a_bucket_stamped_at_the_horizon_is_delivered(self):
        queue = EventQueue()
        queue.schedule(7, "a", 0)
        queue.schedule(7, "a", 1)
        queue.schedule(8, "a", 2)
        handlers, delivered = recording_handlers("a")
        queue.dispatch(handlers, 7)
        assert delivered == [(7, "a", 0), (7, "a", 1)]
        assert queued(queue) == [(8, "a", 2)]

    def test_a_same_cycle_follow_up_is_delivered_in_a_bounded_call(self):
        # A handler scheduling at the cycle it runs in opens a fresh bucket
        # at that cycle, which the horizon-bounded call still reaches.
        queue = EventQueue()
        queue.schedule(4, "a", 0)
        queue.schedule(9, "b", 1)

        def follow_up(kind, payload, time):
            if kind == "a":
                queue.schedule(time, "b", 2)

        handlers, delivered = recording_handlers("ab", follow_up)
        queue.dispatch(handlers, 4)
        assert delivered == [(4, "a", 0), (4, "b", 2)]
        assert queued(queue) == [(9, "b", 1)]
        assert queue.processed == 2

    def test_a_stop_leaves_the_next_bucket_attached(self):
        # The horizon stop detaches nothing: an event scheduled afterwards
        # at an earlier cycle than the next bucket overtakes it.
        queue = EventQueue()
        queue.schedule(2, "a", 0)
        queue.schedule(20, "a", 1)
        handlers, delivered = recording_handlers("a")
        queue.dispatch(handlers, 10)
        queue.schedule(15, "a", 2)
        queue.schedule(20, "a", 3)
        assert queue.peek_time == 15
        queue.dispatch(handlers)
        assert delivered == [(2, "a", 0), (15, "a", 2), (20, "a", 1), (20, "a", 3)]

    def test_empty_needs_both_the_draining_bucket_and_the_calendar_empty(self):
        queue = EventQueue()
        assert queue.empty
        queue.schedule(1, "a", 0)
        queue.schedule(1, "a", 1)
        queue.schedule(3, "b", 2)
        seen = []

        def look(kind, payload, time):
            seen.append((payload, queue.empty, queue.peek_time))

        queue.dispatch(recording_handlers("ab", look)[0], 1)
        # At payload 0 both halves hold events; at payload 1 only the
        # calendar does; after the stop the draining bucket is spent.
        assert seen == [(0, False, 1), (1, False, 3)]
        assert not queue.empty
        queue.pop_same_kind("b", 3)
        assert queue.empty
        queue.schedule(3, "a", 3)
        queue.schedule(3, "a", 4)
        assert queue.pop_same_kind("a", 3) == ("a", 3)
        # Only the draining bucket holds an event now.
        assert queued(queue) == [(3, "a", 4)]
        assert not queue.empty
        assert queue.peek_time == 3

    def test_earlier_events_scheduled_after_a_peek_still_go_first(self):
        # Regression: the calendar queue must not commit to the peeked
        # bucket -- a handler may still schedule an *earlier* event after a
        # peek (or a pop_same_kind miss) as long as the clock has not
        # reached the peeked time.
        queue = EventQueue()
        queue.schedule(20, "late")
        assert queue.peek_time == 20
        assert queue.pop_same_kind("late", 0) is None  # miss at now=0
        queue.schedule(10, "early")
        handlers, delivered = recording_handlers(["early", "late"])
        queue.dispatch(handlers)
        assert [kind for _, kind, _ in delivered] == ["early", "late"]

    def test_restore_rebuilds_the_calendar_half_of_an_export(self):
        queue = EventQueue()
        for time, kind in ((3, "a"), (9, "b"), (3, "b"), (9, "a")):
            queue.schedule(time, kind, time)
        handlers, delivered = recording_handlers("ab")
        queue.dispatch(handlers, 3)
        _, buckets = queue.snapshot_events()
        twin = EventQueue()
        twin.restore_events(queue.now, queue.processed, buckets)
        assert (twin.now, twin.processed, twin.empty) == (3, 2, False)
        assert queued(twin) == queued(queue) == [(9, "b", 9), (9, "a", 9)]
        # A restored queue with nothing pending reads empty at once.
        twin.restore_events(9, 4, [])
        assert (twin.now, twin.processed, twin.empty, twin.peek_time) == (9, 4, True, None)


class TestPopSameKindInterleavedKinds:
    """Regression net for ``EventQueue.pop_same_kind``.

    An implementation that scans-and-re-pushes non-matching same-time
    events degrades to O(n) per delivered event when many kinds interleave
    at one cycle; the head-test contract below is what keeps the calendar
    queue O(1): a miss inspects only the head and mutates nothing.
    """

    def test_drains_only_the_matching_head_run(self):
        queue = EventQueue()
        for index, kind in enumerate(["a", "a", "b", "a", "b"]):
            queue.schedule(5, kind, index)
        assert queue.pop_same_kind("b", 5) is None  # the calendar head is an "a"
        assert queue.pop_same_kind("a", 5) == ("a", 0)
        assert (queue.now, queue.processed) == (5, 1)
        # The run of "a"s at the head drains; the first "b" stops it even
        # though more "a"s wait behind it.
        run = []
        while True:
            event = queue.pop_same_kind("a", 5)
            if event is None:
                break
            run.append(event[1])
        assert run == [1]
        assert queue.pop_same_kind("b", 6) is None  # the head is at cycle 5
        # Delivery order of the remainder is untouched.
        handlers, delivered = recording_handlers("ab")
        queue.dispatch(handlers)
        assert delivered == [(5, "b", 2), (5, "a", 3), (5, "b", 4)]

    def test_a_miss_is_pure(self):
        # The O(1) guarantee hinges on misses not touching queue state: no
        # re-push, no clock movement, no counter drift.
        queue = EventQueue()
        for index in range(100):
            queue.schedule(3, "a" if index % 2 else "b", index)
        assert queue.pop_same_kind("b", 3) == ("b", 0)  # head is now ("a", 1)
        before = (queue.now, queued(queue), queue.processed, queue.peek_time)
        for _ in range(1000):
            assert queue.pop_same_kind("b", 3) is None
        assert (queue.now, queued(queue), queue.processed, queue.peek_time) == before
        # And the full interleaved cycle drains every event exactly once.
        handlers, delivered = recording_handlers("ab")
        queue.dispatch(handlers)
        assert [payload for _, _, payload in delivered] == list(range(1, 100))

    def test_interleaved_kinds_drain_in_linear_operation_count(self):
        # 2000 same-cycle events of alternating kinds: the alternating-popper
        # loop below performs one hit or one miss per delivered event, so a
        # correct head-test implementation finishes in ~2 operations per
        # event.  (A scan-and-re-push implementation performs ~n list moves
        # per miss; this test then takes quadratic time and trips the suite's
        # runtime budget rather than an assertion.)
        queue = EventQueue()
        total = 2000
        for index in range(total):
            queue.schedule(1, "a" if index % 2 else "b", index)
        delivered = 0
        operations = 0
        while not queue.empty and operations <= 2 * total:
            for kind in ("a", "b"):
                event = queue.pop_same_kind(kind, 1)
                operations += 1
                if event is not None:
                    delivered += 1
        assert delivered == total
        assert operations <= 2 * total


class TestWorkerPool:
    def test_reserve_and_release_cycle(self):
        pool = WorkerPool(2)
        worker = pool.reserve(task_id=5)
        assert pool.state(worker).current_task == 5
        assert pool.has_idle
        pool.reserve(task_id=6)
        assert not pool.has_idle
        end = pool.start_execution(worker, start=100, duration=50)
        assert end == 150
        pool.release(worker)
        assert pool.state(worker).current_task is None
        assert pool.has_idle

    def test_reserve_exhaustion_raises(self):
        pool = WorkerPool(1)
        pool.reserve(0)
        with pytest.raises(RuntimeError):
            pool.reserve(1)

    def test_start_without_reservation_raises(self):
        pool = WorkerPool(1)
        with pytest.raises(RuntimeError):
            pool.start_execution(0, start=0, duration=1)

    def test_release_without_reservation_raises(self):
        pool = WorkerPool(1)
        with pytest.raises(RuntimeError):
            pool.release(0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestHotPathValueClasses:
    """Regression pins for the __slots__ conversions (repro-lint HOT001)."""

    def test_task_timeline_is_dict_free(self):
        timeline = TaskTimeline(7)
        assert not hasattr(timeline, "__dict__")
        with pytest.raises(AttributeError):
            timeline.unexpected = 1

    def test_task_timeline_positional_and_keyword_construction(self):
        positional = TaskTimeline(3, 1, 2, 4, 5, 6)
        keyword = TaskTimeline(
            task_id=3, created=1, submitted=2, ready=4, started=5, finished=6
        )
        assert positional == keyword
        assert TaskTimeline(3) != positional

    def test_task_timeline_defaults_and_latencies(self):
        timeline = TaskTimeline(0, submitted=5, ready=20, started=30)
        assert timeline.created == 0 and timeline.finished == 0
        assert timeline.queue_latency == 10
        assert timeline.management_latency == 15

    def test_task_timeline_repr_round_trips_fields(self):
        text = repr(TaskTimeline(9, ready=4))
        assert "task_id=9" in text and "ready=4" in text

    def test_worker_state_is_dict_free(self):
        state = WorkerPool(1).state(0)
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.unexpected = 1

    def test_worker_state_defaults_and_equality(self):
        from repro.sim.worker import WorkerState

        fresh = WorkerState(2)
        assert fresh.current_task is None
        assert fresh == WorkerState(2)
        assert fresh != WorkerState(2, current_task=9)


def _result_with_two_tasks() -> SimulationResult:
    timelines = {
        0: TaskTimeline(task_id=0, submitted=0, ready=10, started=12, finished=112),
        1: TaskTimeline(task_id=1, submitted=24, ready=40, started=50, finished=150),
    }
    return SimulationResult(
        simulator="test",
        program_name="prog",
        num_workers=2,
        makespan=150,
        sequential_cycles=200,
        num_tasks=2,
        timelines=timelines,
    )


class TestSimulationResult:
    def test_speedup_and_efficiency(self):
        result = _result_with_two_tasks()
        assert result.speedup == pytest.approx(200 / 150)
        assert result.efficiency == pytest.approx(200 / 150 / 2)

    def test_zero_makespan_guards(self):
        result = SimulationResult(
            simulator="t", program_name="p", num_workers=0, makespan=0,
            sequential_cycles=0, num_tasks=0,
        )
        assert result.speedup == 0.0
        assert result.efficiency == 0.0

    def test_first_task_latency_and_throughputs(self):
        result = _result_with_two_tasks()
        assert result.first_task_latency() == 10
        assert result.task_throughput() == pytest.approx(24.0)
        assert result.completion_throughput() == pytest.approx(38.0)
        assert result.dependence_throughput(avg_deps=2) == pytest.approx(12.0)
        assert result.dependence_throughput(avg_deps=0) == 0.0

    def test_timeline_latencies(self):
        timeline = TaskTimeline(task_id=0, submitted=5, ready=20, started=30, finished=90)
        assert timeline.management_latency == 15
        assert timeline.queue_latency == 10

    def test_start_order_and_completion(self):
        result = _result_with_two_tasks()
        assert result.start_order() == [0, 1]
        assert result.completed_all()
        assert 0.0 < result.worker_busy_fraction() <= 1.0

    def test_summary_round_numbers(self):
        summary = _result_with_two_tasks().summary()
        assert summary["workers"] == 2
        assert summary["tasks"] == 2
        assert isinstance(summary["speedup"], float)
