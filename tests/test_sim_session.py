"""Tests for the streaming session API and its batch-parity guarantee."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.apps.registry import build_benchmark
from repro.faults.scenario import parse_fault_spec
from repro.sim.backend import BUILTIN_BACKENDS
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.sim.driver import simulate_request
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import InvalidRequestError, SimulationRequest
from repro.sim.session import (
    SessionError,
    SimulationSession,
    TaskReady,
    TaskRetired,
    TaskSubmitted,
    lifecycle_events,
    open_session,
)
from repro.core.scheduler import SchedulingPolicy

#: Reduced problem size: enough structure to be interesting, fast to run.
SMALL = 512


@pytest.fixture(scope="module")
def cholesky_small():
    return build_benchmark("cholesky", 128, problem_size=SMALL)


@pytest.fixture(scope="module")
def sparselu_small():
    return build_benchmark("sparselu", 128, problem_size=SMALL)


def _stream_through_session(program, backend, num_workers):
    """Feed ``program`` into a fresh session task by task (online arrival)."""
    request = SimulationRequest.streaming(
        program.name, backend=backend, num_workers=num_workers
    )
    session = open_session(request)
    for task in program:
        session.submit(task)
    return session


class TestStreamingBatchParity:
    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    @pytest.mark.parametrize("trace", ["cholesky", "sparselu"])
    def test_streamed_result_is_identical_to_batch(
        self, backend, trace, cholesky_small, sparselu_small
    ):
        program = cholesky_small if trace == "cholesky" else sparselu_small
        batch = simulate_request(
            SimulationRequest.for_program(program, backend=backend, num_workers=4)
        )
        session = _stream_through_session(program, backend, 4)
        streamed = session.result()
        # Field-for-field, timeline-for-timeline equality: streaming must be
        # cycle-identical to the batch path.
        assert dataclasses.asdict(streamed) == dataclasses.asdict(batch)

    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_preloaded_session_matches_batch(self, backend, cholesky_small):
        request = SimulationRequest.for_program(
            cholesky_small, backend=backend, num_workers=4
        )
        batch = simulate_request(request)
        assert dataclasses.asdict(open_session(request).result()) == (
            dataclasses.asdict(batch)
        )


class TestEventStream:
    def test_events_are_typed_ordered_and_complete(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        events = list(session.events())
        assert len(events) == 3 * cholesky_small.num_tasks
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        kinds = {kind: 0 for kind in ("submitted", "ready", "retired")}
        for event in events:
            kinds[event.kind] += 1
        assert kinds == {kind: cholesky_small.num_tasks for kind in kinds}
        # per task: submitted <= ready <= retired
        by_task = {}
        for event in events:
            by_task.setdefault(event.task_id, {})[event.kind] = event.cycle
        for stamps in by_task.values():
            assert stamps["submitted"] <= stamps["ready"] <= stamps["retired"]

    def test_event_types_compare_by_class(self):
        assert TaskSubmitted(5, 1) == TaskSubmitted(5, 1)
        assert TaskSubmitted(5, 1) != TaskReady(5, 1)
        assert TaskRetired.kind == "retired"

    def test_lifecycle_events_from_any_result(self, cholesky_small):
        result = simulate_request(
            SimulationRequest.for_program(cholesky_small, backend="perfect")
        )
        events = lifecycle_events(result)
        assert len(events) == 3 * cholesky_small.num_tasks
        assert max(e.cycle for e in events) == result.makespan


class TestStatsAndEarlyAbort:
    def test_stats_track_the_stream_mid_run(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        assert session.stats().state == "open"
        full = session.result()
        horizon = full.makespan // 2
        consumed = list(session.events(until_cycle=horizon))
        snapshot = session.stats()
        assert snapshot.state == "finished"
        assert snapshot.events_delivered == len(consumed)
        assert snapshot.current_cycle <= horizon
        assert 0 < snapshot.tasks_retired < cholesky_small.num_tasks
        assert snapshot.makespan == full.makespan

    def test_event_iteration_resumes_after_the_horizon(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        horizon = session.result().makespan // 2
        early = list(session.events(until_cycle=horizon))
        late = list(session.events())
        assert len(early) + len(late) == 3 * cholesky_small.num_tasks
        assert all(e.cycle > horizon for e in late)
        assert session.stats().tasks_retired == cholesky_small.num_tasks

    def test_submit_after_seal_raises(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 2)
        session.seal()
        with pytest.raises(SessionError):
            session.submit(cholesky_small[0])

    def test_submit_program_batches_tasks_in_order(self, cholesky_small):
        request = SimulationRequest.streaming(
            cholesky_small.name, backend="hil-hw", num_workers=4
        )
        session = open_session(request)
        assert session.submit_program(cholesky_small) == cholesky_small.num_tasks
        batch = simulate_request(
            SimulationRequest.for_program(cholesky_small, backend="hil-hw", num_workers=4)
        )
        assert dataclasses.asdict(session.result()) == dataclasses.asdict(batch)

    def test_context_manager_seals(self, cholesky_small):
        request = SimulationRequest.for_program(cholesky_small, backend="perfect")
        with open_session(request) as session:
            pass
        assert session.stats().state == "sealed"


class TestSessionValidation:
    def test_open_session_rejects_unaccepted_parameters(self, cholesky_small):
        request = SimulationRequest.for_program(
            cholesky_small, backend="perfect", policy=SchedulingPolicy.LIFO
        )
        with pytest.raises(InvalidRequestError):
            open_session(request)

    def test_plugin_backends_get_the_default_session(self, plugin_backend, cholesky_small):
        request = SimulationRequest.for_program(cholesky_small, backend=plugin_backend)
        session = open_session(request)
        assert type(session) is SimulationSession
        assert session.result() == simulate_request(request)

    def test_builtin_backends_get_the_default_session(self, cholesky_small):
        for name in BUILTIN_BACKENDS:
            request = SimulationRequest.for_program(cholesky_small, backend=name)
            assert type(open_session(request)) is SimulationSession


class TestSimulateCommand:
    def test_cli_simulate_streams_events_and_reports(self, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                "simulate",
                "--workload", "case3",
                "--backend", "hil-hw",
                "--workers", "4",
                "--show-events", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache_key=" in out
        assert "first 5 lifecycle events:" in out
        assert "submitted" in out and "retired" in out
        assert "makespan=" in out

    def test_cli_simulate_early_abort_reports_partial_progress(self, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                "simulate",
                "--workload", "case3",
                "--backend", "hil-hw",
                "--workers", "4",
                "--until-cycle", "5000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped at cycle horizon 5000" in out

    def test_cli_simulate_rejects_unknown_backend(self, capsys):
        from repro.experiments.cli import main

        code = main(["simulate", "--workload", "case1", "--backend", "nope"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_cli_simulate_benchmark_without_block_size_exits_cleanly(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="block size"):
            main(["simulate", "--workload", "cholesky"])


class TestNativeEarlyAbort:
    def test_hil_stop_at_cycle_builds_a_partial_result(self, cholesky_small):
        full = HILSimulator(cholesky_small, mode=HILMode.HW_ONLY, num_workers=4).run()
        horizon = full.makespan // 2
        partial = HILSimulator(cholesky_small, mode=HILMode.HW_ONLY, num_workers=4).run(
            stop_at_cycle=horizon
        )
        assert not partial.completed_all()
        assert partial.counters["aborted_at_cycle"] == horizon
        assert 0 < partial.counters["finished_tasks"] < cholesky_small.num_tasks
        assert partial.makespan <= horizon
        # The prefix of the schedule is identical to the full run.
        for timeline in partial.timelines.values():
            if timeline.finished:
                assert timeline.finished == full.timelines[timeline.task_id].finished

    def test_stop_after_makespan_is_a_complete_run(self, cholesky_small):
        full = HILSimulator(cholesky_small, mode=HILMode.HW_ONLY, num_workers=4).run()
        stopped = HILSimulator(cholesky_small, mode=HILMode.HW_ONLY, num_workers=4).run(
            stop_at_cycle=full.drain_time
        )
        assert stopped.completed_all()
        assert stopped.makespan == full.makespan


class TestHorizonClampedStats:
    """stats() never reports a cycle snapshot past the requested horizon."""

    def test_shrinking_horizon_clamps_the_cycle_snapshot(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        makespan = session.result().makespan
        first_horizon = makespan // 2
        consumed = list(session.events(until_cycle=first_horizon))
        assert consumed
        # A later, *smaller* horizon delivers nothing new -- and the
        # snapshot must respect it rather than leaking the clock position
        # of the earlier, larger request.
        second_horizon = first_horizon // 4
        assert list(session.events(until_cycle=second_horizon)) == []
        snapshot = session.stats()
        assert snapshot.current_cycle <= second_horizon

    def test_horizon_is_recorded_at_call_time(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        makespan = session.result().makespan
        list(session.events(until_cycle=makespan))  # drain everything
        # Requesting a tiny horizon caps the snapshot even before the
        # returned iterator is consumed.
        session.events(until_cycle=1)
        assert session.stats().current_cycle <= 1

    def test_full_drain_lifts_the_clamp(self, cholesky_small):
        session = _stream_through_session(cholesky_small, "hil-hw", 4)
        makespan = session.result().makespan
        list(session.events(until_cycle=makespan // 2))
        remaining = list(session.events())  # horizon lifted
        assert remaining
        assert session.stats().current_cycle == makespan

    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_streamed_stats_match_batch_results_when_drained(
        self, backend, cholesky_small
    ):
        batch = simulate_request(
            SimulationRequest.for_program(
                cholesky_small, backend=backend, num_workers=4
            )
        )
        session = _stream_through_session(cholesky_small, backend, 4)
        events = list(session.events())
        snapshot = session.stats()
        # Batch parity extends to the stats surface: the drained stream
        # reports exactly what the batch result implies.
        assert snapshot.state == "finished"
        assert snapshot.makespan == batch.makespan
        assert snapshot.current_cycle == batch.makespan
        assert snapshot.tasks_submitted == batch.num_tasks
        assert snapshot.tasks_retired == batch.num_tasks
        assert snapshot.tasks_ready == batch.num_tasks
        assert snapshot.events_delivered == len(events) == 3 * batch.num_tasks


class TestSimulatorLifetime:
    """A simulator is freed by reference counting once its session closes
    or its request returns: nothing in it refers back to it, so it never
    waits for the cyclic collector (whose runs a workload can thin out)."""

    BACKENDS = ["hil-comm", "hil-full", "hil-hw", "nanos"]
    #: Fault scenarios every request arms.
    FAULTS: tuple = ()

    @pytest.fixture
    def built(self, monkeypatch):
        """Weak references to every simulator built, with the collector off."""
        refs = []
        for cls in (HILSimulator, NanosRuntimeSimulator):
            monkeypatch.setattr(cls, "__init__", self._recording(cls.__init__, refs))
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield refs
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def _recording(init, refs):
        def recording(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            refs.append(weakref.ref(sim))

        return recording

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_frees_the_simulator(self, backend, built, cholesky_small):
        request = SimulationRequest.for_program(
            cholesky_small, backend=backend, num_workers=4, faults=self.FAULTS
        )
        session = open_session(request)
        assert not session.advance(10_000).finished
        session.close()
        assert built and all(ref() is None for ref in built)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_returned_request_frees_the_simulator(
        self, backend, built, cholesky_small
    ):
        request = SimulationRequest.for_program(
            cholesky_small, backend=backend, num_workers=4, faults=self.FAULTS
        )
        assert simulate_request(request).num_tasks == cholesky_small.num_tasks
        assert built and all(ref() is None for ref in built)


class TestFaultedSimulatorLifetime(TestSimulatorLifetime):
    """The same, with a fault plan armed: the plan refers back to its
    simulator only weakly and keeps no table of its bound handlers.  The
    scenario's window opens long after the run has finished, so it never
    fires."""

    FAULTS = (
        parse_fault_spec("delay-event@window=10000000000..10000000001:class=ready"),
    )
