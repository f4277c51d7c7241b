"""Tests for cooperative session slicing, close(), and restart parity.

These pin the contracts the simulation service is built on: driving a
session through :meth:`SimulationSession.advance` in bounded slices must
produce the *same* result object and the *same* lifecycle-event sequence
as the one-shot batch path, for every backend; and :meth:`close` must
release a session's engine state mid-run such that a fresh session of the
same request reproduces the original run exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.registry import build_benchmark
from repro.faults.scenario import parse_fault_spec
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.service.server import next_slice_budget
from repro.sim.hil import HILBackend, HILMode, HILSimulator
from repro.sim.request import SimulationRequest, StreamOptions
from repro.sim.session import (
    DEFAULT_SLICE_CYCLES,
    STATE_CLOSED,
    EngineStepper,
    FaultInjected,
    FaultRecovered,
    SessionError,
    SessionSlice,
    lifecycle_events,
    open_session,
)
from repro.sim.snapshot import restore

SMALL = 512

HIL_BACKENDS = tuple(mode.backend_name for mode in HILMode)


@pytest.fixture(scope="module")
def cholesky_small():
    return build_benchmark("cholesky", 128, problem_size=SMALL)


def _workload_request(backend, **stream_kwargs):
    stream = StreamOptions(**stream_kwargs) if stream_kwargs else None
    return SimulationRequest.for_workload(
        "cholesky",
        block_size=128,
        problem_size=SMALL,
        backend=backend,
        num_workers=4,
        stream=stream,
    )


def _drain_in_slices(session, slice_cycles=None):
    """Advance to completion; returns (slices, concatenated events)."""
    slices = []
    events = []
    while True:
        step = session.advance(slice_cycles)
        assert isinstance(step, SessionSlice)
        slices.append(step)
        events.extend(step.events)
        if step.finished:
            return slices, events


def _drain_by_work(session):
    """Advance to completion the way the server does, each budget from the
    events the last slice returned; returns (budgets, concatenated events)."""
    budget = DEFAULT_SLICE_CYCLES
    budgets = []
    events = []
    while True:
        budgets.append(budget)
        step = session.advance(budget)
        events.extend(step.events)
        if step.finished:
            return budgets, events
        budget = next_slice_budget(budget, len(step.events), None)


class TestSlicedBatchParity:
    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_sliced_run_matches_batch_exactly(self, backend):
        request = _workload_request(backend)
        batch = simulate_request(request)
        session = open_session(request)
        _, events = _drain_in_slices(session, 50_000)
        assert session.result() == batch
        assert events == lifecycle_events(batch)

    # nanos keeps its lifecycle entries pending across the most slices.
    @pytest.mark.parametrize("backend", sorted(HIL_BACKENDS) + ["nanos"])
    def test_slice_size_does_not_change_the_run(self, backend):
        request = _workload_request(backend)
        coarse = open_session(request)
        fine = open_session(request)
        by_work = open_session(request)
        _, coarse_events = _drain_in_slices(coarse, 10_000_000)
        fine_slices, fine_events = _drain_in_slices(fine, 10_000)
        work_budgets, work_events = _drain_by_work(by_work)
        assert coarse.result() == fine.result() == by_work.result()
        assert coarse_events == fine_events == work_events
        assert len(fine_slices) > 1  # the fine run really was sliced
        assert len(set(work_budgets)) > 1  # and the served policy resized

    def test_slice_events_are_final_per_horizon(self, cholesky_small):
        # Every event handed out by a slice is stamped at or before that
        # slice's horizon: the stream never revises the past.
        request = _workload_request("hil-full")
        session = open_session(request)
        slices, _ = _drain_in_slices(session, 25_000)
        for step in slices[:-1]:
            assert all(event.cycle <= step.horizon for event in step.events)

    def test_request_stream_options_pick_the_default_slice(self):
        request = _workload_request("hil-full", slice_cycles=7_777)
        session = open_session(request)
        first = session.advance()  # no explicit size: the request's wins
        assert first.horizon >= 7_777 or first.finished

    def test_advance_counts_into_the_stats_cursor(self):
        request = _workload_request("hil-full")
        session = open_session(request)
        step = session.advance(50_000)
        stats = session.stats()
        assert stats.events_delivered == len(step.events)
        _drain_in_slices(session, 50_000)
        assert session.stats().events_delivered == 3 * session.result().num_tasks

    def test_events_iterator_resumes_after_slices(self):
        # advance() and events() share one delivery cursor: what a slice
        # already handed out is not replayed by the iterator.
        request = _workload_request("hil-full")
        session = open_session(request)
        step = session.advance(100_000)
        tail = list(session.events())
        assert list(step.events) + tail == lifecycle_events(session.result())

    def test_partial_advance_then_result_drains_the_same_run(self):
        # Asking for the result mid-slicing finishes the *same* stepper run
        # (not a fresh batch simulation): parity must still hold.
        request = _workload_request("hil-hw")
        batch = simulate_request(request)
        session = open_session(request)
        session.advance(20_000)
        assert session.result() == batch


class TestStepperContract:
    def test_stepper_matches_run(self, cholesky_small):
        backend = HILBackend(HILMode.FULL_SYSTEM)
        stepper = EngineStepper(backend.simulator(cholesky_small, num_workers=4))
        entries = []
        while not stepper.finished:
            done, horizon, chunk = stepper.advance(100_000)
            entries.extend(chunk)
            assert all(entry[0] <= horizon for entry in chunk) or done
        result = stepper.result()
        batch = backend.simulator(cholesky_small, num_workers=4).run()
        assert result == batch
        assert entries == sorted(entries)
        assert len(entries) == 3 * result.num_tasks

    def test_stepper_result_before_finish_raises(self, cholesky_small):
        stepper = EngineStepper(
            HILBackend(HILMode.FULL_SYSTEM).simulator(cholesky_small, num_workers=4)
        )
        with pytest.raises(RuntimeError):
            stepper.result()

    def test_lifecycle_log_cannot_attach_mid_run(self, cholesky_small):
        simulator = HILSimulator(cholesky_small, num_workers=4)
        simulator.step(stop_at_cycle=1_000)
        with pytest.raises(RuntimeError):
            simulator.enable_lifecycle_log()

    @pytest.mark.parametrize(
        "peek", [None, 500, 1_000], ids=["no-event", "left-behind", "at-horizon"]
    )
    def test_a_stalled_engine_raises_instead_of_slicing_forever(self, peek):
        # A queue that reports work but holds no event past the slice: a
        # drain loop over such slices would never end.
        class StalledSimulator:
            queue = dataclasses.make_dataclass(
                "Queue", [("now", int), ("empty", bool), ("peek_time", object)]
            )(0, False, peek)

            def enable_lifecycle_log(self):
                return []

            def step(self, stop_at_cycle):
                pass

        with pytest.raises(RuntimeError, match="stalled at cycle 1000"):
            EngineStepper(StalledSimulator()).advance(1_000)

    def test_stepper_advance_rejects_non_positive_slices(self, cholesky_small):
        stepper = EngineStepper(
            HILBackend(HILMode.FULL_SYSTEM).simulator(cholesky_small, num_workers=4)
        )
        with pytest.raises(ValueError):
            stepper.advance(0)


class TestCloseAndRestartParity:
    @pytest.mark.parametrize("backend", sorted(HIL_BACKENDS))
    def test_close_mid_run_then_fresh_session_reproduces_the_run(self, backend):
        request = _workload_request(backend)
        baseline = simulate_request(request)
        first = open_session(request)
        first.advance(30_000)  # genuinely mid-run
        first.close()
        assert first.closed
        assert first.stats().state == STATE_CLOSED
        # The abandoned session left no state behind that could skew a
        # restart: a fresh session of the same request is cycle-identical.
        second = open_session(request)
        _, events = _drain_in_slices(second, 30_000)
        assert second.result() == baseline
        assert events == lifecycle_events(baseline)

    def test_close_is_idempotent_and_blocks_use(self, cholesky_small):
        request = _workload_request("hil-full")
        session = open_session(request)
        session.advance(30_000)
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionError):
            session.result()
        with pytest.raises(SessionError):
            session.advance(1_000)
        with pytest.raises(SessionError):
            list(session.events())
        with pytest.raises(SessionError):
            session.submit(next(iter(cholesky_small)))

    def test_closed_stats_keep_the_submission_count(self):
        request = _workload_request("hil-full")
        session = open_session(request)
        session.advance(30_000)
        submitted = session.stats().tasks_submitted
        session.close()
        stats = session.stats()
        assert stats.state == STATE_CLOSED
        assert stats.tasks_submitted == submitted

    @pytest.mark.parametrize("backend", sorted(HIL_BACKENDS))
    def test_close_after_capture_leaves_the_snapshot_valid(self, backend):
        # Copy-on-capture: a snapshot taken mid-run must survive the
        # captured session's close() untouched -- close() frees the live
        # stepper, and the snapshot must not alias any of that state.
        from repro.sim.snapshot import restore

        request = _workload_request(backend)
        baseline = simulate_request(request)
        session = open_session(request)
        step = session.advance(30_000)
        pre = list(step.events)
        snapshot = session.checkpoint()
        digest_before = snapshot.digest
        session.close()
        # A replaced copy re-encodes the fields (the digest is memoized).
        assert dataclasses.replace(snapshot).digest == digest_before
        restored = restore(snapshot)
        _, events = _drain_in_slices(restored, 30_000)
        assert restored.result() == baseline
        assert pre + events == lifecycle_events(baseline)

    def test_close_before_any_advance(self):
        session = open_session(_workload_request("hil-full"))
        session.close()
        assert session.closed
        with pytest.raises(SessionError):
            session.result()

    def test_context_manager_still_seals_not_closes(self):
        # contextlib.closing(session) is the hard-release form; the plain
        # context manager keeps its historical seal-only behaviour.
        with open_session(_workload_request("hil-full")) as session:
            pass
        assert not session.closed
        assert session.result().num_tasks > 0


class TestFinishedSlicing:
    def test_a_finished_session_delivers_the_rest_in_one_slice(self):
        # Once result() ran the whole simulation, the events not yet
        # delivered form one last, finished slice.
        request = _workload_request("perfect")
        session = open_session(request)
        batch = session.result()
        slices, events = _drain_in_slices(session, 1_000)
        assert len(slices) == 1 and slices[0].finished
        assert slices[0].horizon == batch.drain_time
        assert events == lifecycle_events(batch)

    @pytest.mark.parametrize("backend", ["nanos", "perfect"])
    def test_nanos_slices_like_a_hil_backend(self, backend):
        # The software baseline, at its own costs and at zero, honours
        # slice horizons.
        request = _workload_request(backend)
        batch = simulate_request(request)
        session = open_session(request)
        slices, events = _drain_in_slices(session, 1_000)
        assert len(slices) > 1
        assert session.result() == batch
        assert events == lifecycle_events(batch)

    def test_default_slice_constant_is_sane(self):
        assert DEFAULT_SLICE_CYCLES >= 1


class TestMixedDelivery:
    """``advance()`` slices, then ``events()``, on a faulted run.

    The slices interleave fault events with the task events; ``events()``
    serves the task events only.  Together they must deliver exactly
    :func:`lifecycle_events` of the result, in order and once each, on a
    live session and across a mid-run or a finished restore.
    """

    FAULTS = (parse_fault_spec("kill-worker@cycle=20000:worker=1"),)
    FAULT_KINDS = (FaultInjected.kind, FaultRecovered.kind)

    @pytest.mark.parametrize("resume", ["live", "mid-run-restore", "finished-restore"])
    @pytest.mark.parametrize("backend", ["hil-full", "hil-hw", "nanos"])
    def test_task_events_are_delivered_once_in_order(self, backend, resume):
        request = dataclasses.replace(_workload_request(backend), faults=self.FAULTS)
        expected = lifecycle_events(simulate_request(request))
        session = open_session(request)
        delivered = []
        while not any(event.kind in self.FAULT_KINDS for event in delivered):
            step = session.advance(10_000)
            assert not step.finished
            delivered.extend(step.events)
        if resume == "mid-run-restore":
            session = restore(session.checkpoint())
        elif resume == "finished-restore":
            session.result()
            session = restore(session.checkpoint())
        delivered.extend(session.events())
        tasks = [event for event in delivered if event.kind not in self.FAULT_KINDS]
        assert tasks == expected
        stats = session.stats()
        count = len(expected) // 3
        assert (stats.events_delivered, stats.tasks_ready, stats.tasks_retired) == (
            len(expected),
            count,
            count,
        )

    @pytest.mark.parametrize("backend", ["hil-full", "hil-hw", "nanos"])
    def test_a_later_slice_resumes_after_the_events_pulled(self, backend):
        # advance() past a fault, pull a few events(), then advance() again:
        # the last slice starts right after the last task event pulled.
        request = dataclasses.replace(_workload_request(backend), faults=self.FAULTS)
        expected = lifecycle_events(simulate_request(request))
        session = open_session(request)
        delivered = []
        while not any(event.kind in self.FAULT_KINDS for event in delivered):
            delivered.extend(session.advance(10_000).events)
        pulled = session.events()
        delivered.extend(next(pulled) for _ in range(3))
        last = session.advance(10_000)
        assert last.finished
        delivered.extend(last.events)
        tasks = [event for event in delivered if event.kind not in self.FAULT_KINDS]
        assert tasks == expected
        assert list(pulled) == []
        assert session.stats().events_delivered == len(expected)
