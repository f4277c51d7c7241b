"""Tests for cooperative session slicing, close(), and restart parity.

These pin the contracts the simulation service is built on: driving a
session through :meth:`SimulationSession.advance` in bounded slices must
produce the *same* result object and the *same* lifecycle-event sequence
as the one-shot batch path, for every backend; and :meth:`close` must
release a session's engine state mid-run such that a fresh session of the
same request reproduces the original run exactly.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import build_benchmark
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.hil import HILBackend, HILMode, HILSimulator
from repro.sim.request import SimulationRequest, StreamOptions
from repro.sim.session import (
    DEFAULT_SLICE_CYCLES,
    STATE_CLOSED,
    EngineStepper,
    SessionError,
    SessionSlice,
    lifecycle_events,
    open_session,
)

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


class TestSlicedBatchParity:
    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_sliced_run_matches_batch_exactly(self, backend):
        request = _workload_request(backend)
        batch = simulate_request(request)
        session = open_session(request)
        _, events = _drain_in_slices(session, 50_000)
        assert session.result() == batch
        assert events == lifecycle_events(batch)

    @pytest.mark.parametrize("backend", sorted(HIL_BACKENDS))
    def test_slice_size_does_not_change_the_run(self, backend):
        request = _workload_request(backend)
        coarse = open_session(request)
        fine = open_session(request)
        _, coarse_events = _drain_in_slices(coarse, 10_000_000)
        fine_slices, fine_events = _drain_in_slices(fine, 10_000)
        assert coarse.result() == fine.result()
        assert coarse_events == fine_events
        assert len(fine_slices) > 1  # the fine run really was sliced

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
    def test_make_stepper_matches_run(self, cholesky_small):
        backend = HILBackend(HILMode.FULL_SYSTEM)
        stepper = backend.make_stepper(cholesky_small, num_workers=4)
        assert isinstance(stepper, EngineStepper)
        entries = []
        while not stepper.finished:
            done, horizon, chunk = stepper.advance(100_000)
            entries.extend(chunk)
            assert all(entry[0] <= horizon for entry in chunk) or done
        result = stepper.result()
        batch = HILBackend(HILMode.FULL_SYSTEM).simulate(
            cholesky_small, num_workers=4
        )
        assert result == batch
        assert entries == sorted(entries)
        assert len(entries) == 3 * result.num_tasks

    def test_stepper_result_before_finish_raises(self, cholesky_small):
        stepper = HILBackend(HILMode.FULL_SYSTEM).make_stepper(
            cholesky_small, num_workers=4
        )
        with pytest.raises(RuntimeError):
            stepper.result()

    def test_lifecycle_log_cannot_attach_mid_run(self, cholesky_small):
        simulator = HILSimulator(cholesky_small, num_workers=4)
        simulator.step(stop_at_cycle=1_000)
        with pytest.raises(RuntimeError):
            simulator.enable_lifecycle_log()

    def test_stepper_advance_rejects_non_positive_slices(self, cholesky_small):
        stepper = HILBackend(HILMode.FULL_SYSTEM).make_stepper(
            cholesky_small, num_workers=4
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
        assert snapshot.digest == digest_before
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


class TestFallbackSlicing:
    @pytest.mark.parametrize("backend", ["perfect"])
    def test_non_stepper_backends_finish_in_one_slice(self, backend):
        # nanos grew a real stepper alongside the snapshot subsystem, so
        # the perfect scheduler is the only remaining fallback backend.
        request = _workload_request(backend)
        batch = simulate_request(request)
        session = open_session(request)
        slices, events = _drain_in_slices(session, 1_000)
        assert len(slices) == 1 and slices[0].finished
        assert session.result() == batch
        assert events == lifecycle_events(batch)

    def test_nanos_slices_like_a_stepper_backend(self):
        # The software baseline now honours slice horizons instead of
        # collapsing into the one-shot fallback.
        request = _workload_request("nanos")
        batch = simulate_request(request)
        session = open_session(request)
        slices, events = _drain_in_slices(session, 1_000)
        assert len(slices) > 1
        assert session.result() == batch
        assert events == lifecycle_events(batch)

    def test_default_slice_constant_is_sane(self):
        assert DEFAULT_SLICE_CYCLES >= 1
