"""Differential snapshot test net: bit-exact checkpoint/resume.

The determinism contract under test (see ``docs/snapshots.md``): for any
session, capturing a :class:`~repro.sim.snapshot.SimulationSnapshot` at a
cycle boundary and restoring it yields a run whose result -- makespan,
per-task timelines, every hardware counter -- and whose remaining
lifecycle-event stream are *bit-exact* equal to the uninterrupted run's.
The suite proves it by sweeping snapshots across every event boundary of a
small trace, by golden-digest comparison on the paper workloads across all
five backends, and by restoring across the flat/reference datapath switch
in both directions.  The CI ``snapshot-determinism`` job replays this file
a second time with ``REPRO_REFERENCE_DATAPATH=1``, so every assertion here
holds under both datapaths.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.hashing import stable_digest
from repro.service.protocol import result_to_document
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.sim.session import lifecycle_events, open_session
from repro.sim.snapshot import (
    KIND_FINISHED,
    KIND_INITIAL,
    KIND_MID_RUN,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SimulationSnapshot,
    SnapshotError,
    capture,
    fork,
    load_snapshot,
    restore,
    save_snapshot,
)
from repro.traces.synthetic import random_program

SMALL = 512

ALL_BACKENDS = sorted(BUILTIN_BACKENDS)
#: Backends with a resumable stepper (mid-run snapshots exist for these).
STEPPER_BACKENDS = [b for b in ALL_BACKENDS if b != "perfect"]


def _workload_request(workload, backend, **fields):
    return SimulationRequest.for_workload(
        workload,
        block_size=128,
        problem_size=SMALL,
        backend=backend,
        num_workers=4,
        **fields,
    )


def _drain(session, slice_cycles=None):
    events = []
    while True:
        step = session.advance(slice_cycles)
        events.extend(step.events)
        if step.finished:
            return events


def _result_digest(result):
    """Golden digest over the full result document (every field)."""
    return stable_digest(
        json.dumps(result_to_document(result), sort_keys=True)
    )


@pytest.fixture(scope="module")
def small_trace():
    """A small fuzz graph whose event boundaries can all be swept."""
    return random_program(7, num_tasks=14, num_addresses=10, max_deps=4)


# ----------------------------------------------------------------------
# snapshot kinds and basic capture semantics
# ----------------------------------------------------------------------
class TestSnapshotKinds:
    def test_fresh_session_captures_an_initial_snapshot(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        snapshot = capture(session)
        assert snapshot.kind == KIND_INITIAL
        assert snapshot.cycle == 0
        assert snapshot.state is None and snapshot.result is None

    def test_mid_run_snapshot_carries_state_at_the_horizon(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        step = session.advance(30_000)
        snapshot = session.checkpoint()  # the session-level entry point
        assert snapshot.kind == KIND_MID_RUN
        assert snapshot.cycle == step.horizon
        assert snapshot.state is not None and snapshot.result is None

    def test_finished_session_captures_its_result(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        _drain(session)
        snapshot = capture(session)
        assert snapshot.kind == KIND_FINISHED
        assert snapshot.cycle == session.result().drain_time
        assert snapshot.state is None and snapshot.result is not None
        restored = restore(snapshot)
        assert restored.result() == session.result()

    def test_non_stepper_backend_still_checkpoints_at_the_edges(self):
        session = open_session(_workload_request("cholesky", "perfect"))
        assert capture(session).kind == KIND_INITIAL
        _drain(session)
        snapshot = capture(session)
        assert snapshot.kind == KIND_FINISHED
        assert restore(snapshot).result() == session.result()

    def test_capturing_a_closed_session_raises(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        session.close()
        with pytest.raises(SnapshotError):
            capture(session)


# ----------------------------------------------------------------------
# the tentpole sweep: snapshot at every event boundary of a small trace
# ----------------------------------------------------------------------
class TestEventBoundarySweep:
    @pytest.mark.parametrize("backend", STEPPER_BACKENDS)
    def test_restore_is_bit_exact_at_every_event_boundary(
        self, small_trace, backend
    ):
        """Checkpoint/resume at *every* cycle an event fires on.

        Event boundaries are where state transitions happen, so they are
        exactly the cycles where an encode/decode bug would bite.  For each
        boundary N the restored run's result document must be bit-for-bit
        the straight run's, and the pre-snapshot plus post-restore event
        streams must concatenate to the straight run's stream.
        """
        request = SimulationRequest.for_program(
            small_trace, backend=backend, num_workers=4
        )
        baseline = simulate_request(request)
        golden = _result_digest(baseline)
        base_events = lifecycle_events(baseline)
        boundaries = sorted({event.cycle for event in base_events})
        assert len(boundaries) >= 5  # the trace is genuinely multi-boundary
        for boundary in [0] + boundaries:
            session = open_session(request)
            pre = []
            if boundary > 0:
                step = session.advance(boundary)
                pre = list(step.events)
                if step.finished:
                    # The run drained inside this horizon; the snapshot is
                    # a finished one and the restore serves the result.
                    snapshot = capture(session)
                    assert snapshot.kind == KIND_FINISHED
                    assert restore(snapshot).result() == baseline
                    session.close()
                    continue
            snapshot = capture(session)
            session.close()  # the capture must survive the close
            restored = restore(snapshot)
            post = _drain(restored, 1_000)
            assert _result_digest(restored.result()) == golden, (
                f"{backend}: restore at boundary {boundary} diverged"
            )
            assert pre + post == base_events, (
                f"{backend}: event stream at boundary {boundary} diverged"
            )


# ----------------------------------------------------------------------
# golden digests on the paper workloads, all five backends
# ----------------------------------------------------------------------
class TestWorkloadGoldenDigests:
    @pytest.mark.parametrize("workload", ["cholesky", "sparselu"])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_restore_preserves_the_golden_digest(self, workload, backend):
        request = _workload_request(workload, backend)
        baseline = simulate_request(request)
        golden = _result_digest(baseline)

        # N = 0: restore from an initial snapshot.
        session = open_session(request)
        initial = capture(session)
        session.close()
        restored = restore(initial)
        _drain(restored, 50_000)
        assert _result_digest(restored.result()) == golden

        # N = mid-run (stepper backends only; perfect has no mid-run).
        if backend == "perfect":
            return
        for cycles in (10_000, 60_000):
            session = open_session(request)
            step = session.advance(cycles)
            assert not step.finished
            snapshot = capture(session)
            session.close()
            restored = restore(snapshot)
            _drain(restored, 50_000)
            assert _result_digest(restored.result()) == golden, (
                f"{workload}/{backend}: restore at cycle {cycles} diverged"
            )


# ----------------------------------------------------------------------
# idempotence: snapshots of restored runs, double restores
# ----------------------------------------------------------------------
class TestRestoreIdempotence:
    @pytest.mark.parametrize("backend", STEPPER_BACKENDS)
    def test_recapturing_a_restored_session_is_digest_identical(self, backend):
        session = open_session(_workload_request("cholesky", backend))
        session.advance(30_000)
        snapshot = capture(session)
        restored = restore(snapshot)
        recaptured = capture(restored)
        assert recaptured.digest == snapshot.digest
        assert recaptured.document() == snapshot.document()
        # The stepper keeps pending lifecycle entries in a heap whose layout
        # depends on the slicing history; it must not leak into a capture.
        for _ in range(3):
            session.advance(30_000)
            restored.advance(30_000)
            straight, resumed = capture(session), capture(restored)
            assert resumed.digest == straight.digest
            assert resumed.document() == straight.document()

    def test_one_snapshot_restores_twice_independently(self):
        request = _workload_request("cholesky", "hil-full")
        baseline = simulate_request(request)
        session = open_session(request)
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        first, second = restore(snapshot), restore(snapshot)
        _drain(first, 30_000)  # running one must not disturb the other
        _drain(second, 70_000)
        assert first.result() == baseline
        assert second.result() == baseline

    def test_capture_is_copy_on_capture(self):
        # Draining the session after the capture must not mutate the
        # snapshot: it holds copies, not references into live state.
        session = open_session(_workload_request("cholesky", "hil-full"))
        session.advance(30_000)
        snapshot = capture(session)
        digest_before = snapshot.digest
        _drain(session, 50_000)
        assert snapshot.digest == digest_before
        restored = restore(snapshot)
        _drain(restored, 50_000)
        assert restored.result() == session.result()


# ----------------------------------------------------------------------
# forged lifecycle logs
# ----------------------------------------------------------------------
def _redigested(document):
    """``document`` re-stamped with a digest over its edited payload."""
    document = dict(document)
    document.pop("digest", None)
    document["digest"] = stable_digest(
        json.dumps(document, sort_keys=True, separators=(",", ":"))
    )
    return document


def _mid_run_nanos_document():
    session = open_session(_workload_request("cholesky", "nanos"))
    session.advance(30_000)
    document = capture(session).document()
    session.close()
    return document


def _forged_log_snapshot(edit):
    """A mid-run ``nanos`` snapshot whose first pending log entry is
    ``edit(cycle)``, re-digested so that it loads."""
    document = _mid_run_nanos_document()
    assert document["state"]["log"]
    document["state"]["log"][0] = edit(document["cycle"])
    return SimulationSnapshot.from_document(_redigested(document))


class TestForgedLifecycleLogs:
    """The digest only proves a document is self-consistent: restore()
    checks every pending lifecycle entry before the session exists."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cycle: ["x", 0, 1], "three integers"),
            (lambda cycle: [cycle + 1, 0], "three integers"),
            (lambda cycle: [float(cycle + 1), 0, 1], "three integers"),
            (lambda cycle: [cycle + 1, True, 1], "three integers"),
            (lambda cycle: {"cycle": cycle + 1}, "three integers"),
            (lambda cycle: [cycle + 1, 9, 1], "order code"),
            (lambda cycle: [cycle + 1, -1, 1], "order code"),
            (lambda cycle: [0, 2, 1], "at or before"),
            (lambda cycle: [cycle, 2, 1], "at or before"),
            (lambda cycle: [cycle + 1, 0, 10**9], "no task"),
            (lambda cycle: [cycle + 1, 2, -1], "no task"),
        ],
        ids=[
            "string-cycle",
            "two-fields",
            "float-cycle",
            "bool-order",
            "object",
            "order-past-the-classes",
            "negative-order",
            "before-the-snapshot",
            "at-the-snapshot",
            "unknown-task",
            "worker-id-on-a-task-event",
        ],
    )
    def test_a_forged_entry_is_refused_at_restore(self, edit, message):
        snapshot = _forged_log_snapshot(edit)
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    def test_a_log_that_is_not_a_list_is_refused(self):
        document = _mid_run_nanos_document()
        document["state"]["log"] = "junk"
        with pytest.raises(SnapshotError, match="not a list"):
            restore(SimulationSnapshot.from_document(_redigested(document)))

    def test_a_cycle_that_is_not_an_integer_is_refused(self):
        document = _mid_run_nanos_document()
        document["cycle"] = str(document["cycle"])
        with pytest.raises(SnapshotError, match="not an integer"):
            restore(SimulationSnapshot.from_document(_redigested(document)))

    def test_fault_events_may_name_no_task(self):
        # Fault events that target a worker or bank carry task id -1.
        snapshot = _forged_log_snapshot(lambda cycle: [cycle + 1, 3, -1])
        restored = restore(snapshot)
        first = restored.advance(1)
        assert first.events[0].cycle == snapshot.cycle + 1
        assert first.events[0].kind == "fault-injected"


# ----------------------------------------------------------------------
# what-if forks
# ----------------------------------------------------------------------
class TestForks:
    def test_fork_actually_diverges(self):
        """A forked latency config changes the remainder of the run."""
        request = _workload_request("cholesky", "hil-full")
        baseline = simulate_request(request)
        config = request.resolved_config() or PicosConfig()
        slow = dataclasses.replace(config, comm_cycles=config.comm_cycles * 4)
        session = open_session(request)
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        forked = fork(snapshot, slow)
        _drain(forked, 50_000)
        assert forked.result().makespan != baseline.makespan

    def test_dm_widening_fork_rehomes_live_state(self):
        """WAY8 -> WAY16 mid-run: live DM ways and VM entries re-home.

        WAY16 also doubles the effective VM (512 -> 1024 entries), so this
        exercises both the per-set way remap and the VM free-list
        extension.  The forked run must be *valid* (it drains and retires
        every task); equality with the straight WAY16 run is not required
        in general -- the pre-fork prefix ran under WAY8 timing.
        """
        way8 = PicosConfig.paper_prototype(DMDesign.WAY8)
        way16 = PicosConfig.paper_prototype(DMDesign.WAY16)
        request = _workload_request("sparselu", "hil-full", config=way8)
        session = open_session(request)
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        forked = fork(snapshot, way16)
        _drain(forked, 50_000)
        result = forked.result()
        assert result.num_tasks == simulate_request(request).num_tasks
        assert result.makespan > 0

    def test_fork_rejects_structural_changes(self):
        request = _workload_request("cholesky", "hil-full")
        config = request.resolved_config() or PicosConfig()
        session = open_session(request)
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        with pytest.raises(SnapshotError, match="structural"):
            fork(snapshot, dataclasses.replace(config, num_trs=config.num_trs * 2))
        with pytest.raises(SnapshotError, match="hash"):
            fork(
                snapshot,
                dataclasses.replace(config, dm_design=DMDesign.WAY8),
            )

    def test_fork_rejects_dm_narrowing(self):
        way16 = PicosConfig.paper_prototype(DMDesign.WAY16)
        way8 = PicosConfig.paper_prototype(DMDesign.WAY8)
        session = open_session(
            _workload_request("cholesky", "hil-full", config=way16)
        )
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        with pytest.raises(SnapshotError, match="narrow"):
            fork(snapshot, way8)

    def test_fork_rejects_configless_backends_and_finished_runs(self):
        session = open_session(_workload_request("cholesky", "nanos"))
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        with pytest.raises(SnapshotError, match="no Picos configuration"):
            fork(snapshot, PicosConfig())
        session = open_session(_workload_request("cholesky", "hil-full"))
        _drain(session)
        finished = capture(session)
        with pytest.raises(SnapshotError, match="finished"):
            fork(finished, PicosConfig())

    def test_initial_fork_is_just_a_reconfigured_run(self):
        """Forking an initial snapshot equals a straight run of the fork."""
        request = _workload_request("cholesky", "hil-full")
        config = request.resolved_config() or PicosConfig()
        slow = dataclasses.replace(config, comm_cycles=config.comm_cycles * 2)
        snapshot = capture(open_session(request))
        forked = fork(snapshot, slow)
        _drain(forked, 50_000)
        straight = simulate_request(dataclasses.replace(request, config=slow))
        assert forked.result().makespan == straight.makespan


# ----------------------------------------------------------------------
# cross-datapath restore
# ----------------------------------------------------------------------
class TestCrossDatapathRestore:
    """Snapshots are datapath-neutral: flat <-> reference both ways."""

    @pytest.mark.parametrize("capture_reference", [False, True])
    def test_mid_run_restore_across_the_datapath_switch(
        self, capture_reference
    ):
        base = PicosConfig()
        flat_config = dataclasses.replace(base, reference_datapath=False)
        ref_config = dataclasses.replace(base, reference_datapath=True)
        source = ref_config if capture_reference else flat_config
        target = flat_config if capture_reference else ref_config
        request = _workload_request("cholesky", "hil-full", config=flat_config)
        baseline = simulate_request(request)
        base_events = lifecycle_events(baseline)
        session = open_session(
            dataclasses.replace(request, config=source)
        )
        pre = list(session.advance(30_000).events)
        snapshot = capture(session)
        session.close()
        restored = fork(snapshot, target)
        post = _drain(restored, 50_000)
        assert restored.result().makespan == baseline.makespan
        assert pre + post == base_events
        assert (
            restored.result().counters == baseline.counters
        )


# ----------------------------------------------------------------------
# streamed sessions
# ----------------------------------------------------------------------
class TestStreamedCapture:
    def test_capture_folds_streamed_tasks_into_the_snapshot(self, small_trace):
        request = SimulationRequest.for_program(
            small_trace, backend="hil-full", num_workers=4
        )
        baseline = simulate_request(request)
        streaming = SimulationRequest.streaming(
            small_trace.name, backend="hil-full", num_workers=4
        )
        session = open_session(streaming)
        session.submit_program(iter(small_trace))
        snapshot = capture(session)
        session.close()
        # The snapshot is self-contained: the restored session needs no
        # side channel to see the streamed tasks.
        restored = restore(snapshot)
        _drain(restored, 10_000)
        assert restored.result().makespan == baseline.makespan
        assert restored.result().num_tasks == small_trace.num_tasks


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------
class TestOnDiskFormat:
    def _mid_run_snapshot(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        return snapshot

    def test_save_load_round_trip_is_digest_stable(self, tmp_path):
        snapshot = self._mid_run_snapshot()
        path = save_snapshot(snapshot, tmp_path / "mid.json")
        loaded = load_snapshot(path)
        assert loaded.digest == snapshot.digest
        assert loaded == snapshot  # frozen dataclass: field-for-field
        restored = restore(loaded)
        _drain(restored, 50_000)
        baseline = simulate_request(_workload_request("cholesky", "hil-full"))
        assert restored.result() == baseline

    def test_tampered_state_fails_the_digest_check(self, tmp_path):
        snapshot = self._mid_run_snapshot()
        document = snapshot.document()
        document["cycle"] += 1  # a single flipped field
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(path)

    def test_undigested_documents_are_refused_on_disk(self, tmp_path):
        snapshot = self._mid_run_snapshot()
        path = tmp_path / "naked.json"
        path.write_text(json.dumps(snapshot._payload()))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(path)

    def test_version_and_format_are_checked(self):
        snapshot = self._mid_run_snapshot()
        document = snapshot.document()
        stale = dict(document, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="version"):
            SimulationSnapshot.from_document(stale)
        foreign = dict(document, format="not-a-snapshot")
        with pytest.raises(SnapshotError, match=SNAPSHOT_FORMAT):
            SimulationSnapshot.from_document(foreign)

    def test_version_1_documents_are_refused_at_load(self, tmp_path):
        # A version-1 mid-run document may hold coalesced ready events no
        # handler accepts any more: it must fail at load, not mid-run.
        document = self._mid_run_snapshot().document()
        del document["digest"]
        document["version"] = 1
        document["digest"] = stable_digest(
            json.dumps(document, sort_keys=True, separators=(",", ":"))
        )
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="unsupported snapshot version 1 "):
            load_snapshot(path)

    def test_garbage_files_raise_snapshot_errors(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError, match="JSON"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="read"):
            load_snapshot(tmp_path / "missing.json")
