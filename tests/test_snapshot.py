"""Differential snapshot test net: bit-exact checkpoint/resume.

The determinism contract under test (see ``docs/snapshots.md``): for any
session, capturing a :class:`~repro.sim.snapshot.SimulationSnapshot` at a
cycle boundary and restoring it yields a run whose result -- makespan,
per-task timelines, every hardware counter -- and whose remaining
lifecycle-event stream are *bit-exact* equal to the uninterrupted run's.
The suite proves it by sweeping snapshots across every event boundary of a
small trace and of every capacity corner in ``tests.helpers``, and by
golden-digest comparison on the paper workloads across all five backends.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import functools
import itertools
import json
import operator

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.hashing import stable_digest
from repro.faults.scenario import parse_fault_spec
from repro.service.protocol import result_to_document
from repro.sim.backend import BUILTIN_BACKENDS, get_backend, register_backend, unregister_backend
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

from tests.helpers import SATURATION_CASE_NAMES, SATURATION_CASES

SMALL = 512

#: Every built-in backend has a resumable stepper, so mid-run snapshots
#: exist for all of them.
ALL_BACKENDS = sorted(BUILTIN_BACKENDS)
HIL_BACKENDS = [backend for backend in ALL_BACKENDS if backend.startswith("hil")]


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

    def test_a_plugin_backend_checkpoints_at_every_kind(self, plugin_backend):
        request = _workload_request("cholesky", plugin_backend)
        straight = simulate_request(request)
        session = open_session(request)
        snapshots = [capture(session)]
        session.advance(30_000)
        snapshots.append(capture(session))
        _drain(session)
        snapshots.append(capture(session))
        assert [s.kind for s in snapshots] == [KIND_INITIAL, KIND_MID_RUN, KIND_FINISHED]
        for snapshot in snapshots:
            restored = restore(snapshot)
            _drain(restored)
            assert restored.result() == straight

    def test_a_simulator_without_a_codec_is_refused_mid_run(self):
        class ForeignEngine:
            """An engine-driven simulator of a type the codec does not know."""

            def __init__(self, inner):
                self.program, self.queue = inner.program, inner.queue
                self.enable_lifecycle_log = inner.enable_lifecycle_log
                self.step, self.run = inner.step, inner.run

        class Foreign:
            name = "foreign-engine"
            description = "the perfect schedule behind a foreign simulator type"
            accepts = frozenset()

            def simulator(self, program, *, num_workers=12):
                return ForeignEngine(get_backend("perfect").simulator(program, num_workers=num_workers))

        def forge(payload):
            payload["request"].update(backend=Foreign.name)
            payload.update(backend=Foreign.name)

        register_backend(Foreign())
        try:
            request = _workload_request("cholesky", Foreign.name)
            session = open_session(request)
            session.advance(30_000)
            with pytest.raises(SnapshotError, match="no snapshot codec"):
                capture(session)
            _drain(session)
            assert session.result() == simulate_request(request)
            snapshot = _forged_state_snapshot(forge, "perfect")
            with pytest.raises(SnapshotError, match="no snapshot codec"):
                restore(snapshot)
        finally:
            unregister_backend(Foreign.name)

    def test_capturing_a_closed_session_raises(self):
        session = open_session(_workload_request("cholesky", "hil-full"))
        session.close()
        with pytest.raises(SnapshotError):
            capture(session)


# ----------------------------------------------------------------------
# the tentpole sweep: snapshot at every event boundary of a small trace
# ----------------------------------------------------------------------
class TestEventBoundarySweep:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
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
        _sweep_every_event_boundary(request, backend)

    @pytest.mark.parametrize("backend", HIL_BACKENDS)
    @pytest.mark.parametrize("name", SATURATION_CASE_NAMES)
    def test_saturated_restore_is_bit_exact_at_every_event_boundary(
        self, name, backend
    ):
        """The same sweep on each capacity corner, so snapshots land while
        a submission waits on a full TM or VM or a conflicting DM set."""
        case = SATURATION_CASES[name]
        request = SimulationRequest.for_program(
            case.build_program(),
            backend=backend,
            num_workers=case.workers,
            config=case.config,
        )
        _sweep_every_event_boundary(request, f"{name}/{backend}")


def _sweep_every_event_boundary(request, label):
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
            f"{label}: restore at boundary {boundary} diverged"
        )
        assert pre + post == base_events, (
            f"{label}: event stream at boundary {boundary} diverged"
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

        # N = mid-run.
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


class TestPinnedCaptureDigests:
    """The version-4 bytes of a mid-run capture, pinned by their digest.

    A change to how the simulators hold their state must not move a byte
    of the document: the digest covers the whole canonical payload.
    """

    DIGESTS = {
        "hil-comm": "a4f35c5692cec33d461475f1",
        "hil-full": "327beee1caec385219622366",
        "hil-hw": "37c6fc6f330c7b39f0979de2",
        "nanos": "1211723c64aac1aad9aa0864",
        "perfect": "000245ad39933484bdaf3370",
    }

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_a_mid_run_capture_keeps_its_digest(self, backend):
        request = SimulationRequest.for_workload(
            "cholesky", block_size=128, problem_size=1024,
            backend=backend, num_workers=4,
        )
        session = open_session(request)
        assert not session.advance(1_000_000).finished
        snapshot = capture(session)
        session.close()
        assert snapshot.kind == KIND_MID_RUN
        assert snapshot.digest == self.DIGESTS[backend]


# ----------------------------------------------------------------------
# idempotence: snapshots of restored runs, double restores
# ----------------------------------------------------------------------
class TestRestoreIdempotence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
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
        # A replaced copy re-encodes the fields (the digest is memoized).
        assert dataclasses.replace(snapshot).digest == digest_before
        restored = restore(snapshot)
        _drain(restored, 50_000)
        assert restored.result() == session.result()


# ----------------------------------------------------------------------
# forged lifecycle logs
# ----------------------------------------------------------------------
def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload(document):
    """The decoded payload of a snapshot ``document``."""
    return json.loads(document["payload"])


def _redigested(document, payload):
    """``document`` carrying the edited ``payload``, re-encoded canonically
    and re-stamped with a digest over the new text."""
    text = _canonical(payload)
    return dict(document, payload=text, digest=stable_digest(text))


def _mid_run_document(backend, cycles, **fields):
    session = open_session(_workload_request("cholesky", backend, **fields))
    assert not session.advance(cycles).finished
    document = capture(session).document()
    session.close()
    return document


def _forged_state_snapshot(edit, backend="nanos", cycles=30_000, **fields):
    """A mid-run ``backend`` snapshot whose payload went through ``edit``,
    re-digested so that it loads; ``fields`` go to the request."""
    document = _mid_run_document(backend, cycles, **fields)
    payload = _payload(document)
    edit(payload)
    return SimulationSnapshot.from_document(_redigested(document, payload))


def _forged_log_snapshot(edit):
    """A mid-run ``nanos`` snapshot whose first pending log entry is
    ``edit(cycle)``, re-digested so that it loads."""

    def forge(payload):
        assert payload["state"]["log"]
        payload["state"]["log"][0] = edit(payload["cycle"])

    return _forged_state_snapshot(forge)


class TestForgedLifecycleLogs:
    """The digest only proves a document is self-consistent: restore()
    checks every pending lifecycle entry before the session exists."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cycle: ["x", 0, 1], r"log\[0\]\[0\] 'x' is not an integer"),
            (lambda cycle: [cycle + 1, 0], r"log\[0\] \[30001, 0\] is not a list of 3"),
            (lambda cycle: [float(cycle + 1), 0, 1], r"log\[0\]\[0\] 30001.0 is not an integer"),
            (lambda cycle: [cycle + 1, True, 1], r"log\[0\]\[1\] True is not an integer"),
            (lambda cycle: {"cycle": cycle + 1}, r"log\[0\] \{'cycle': 30001\} is not a list"),
            (lambda cycle: [cycle + 1, 9, 1], r"log\[0\]\[1\] 9 is not an integer .* at most 4"),
            (lambda cycle: [cycle + 1, -1, 1], r"log\[0\]\[1\] -1 is not an integer of at least 0"),
            (lambda cycle: [0, 2, 1], r"log\[0\]\[0\] 0 is not an integer after the snapshot"),
            (lambda cycle: [cycle, 2, 1], r"log\[0\]\[0\] 30000 is not an integer after the"),
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
        snapshot = _forged_state_snapshot(
            lambda payload: payload["state"].update(log="junk")
        )
        with pytest.raises(SnapshotError, match="state.log 'junk' is not a list"):
            restore(snapshot)

    def test_a_cycle_that_is_not_an_integer_is_refused_at_load(self):
        with pytest.raises(SnapshotError, match="payload.cycle '30000' is not an integer"):
            _forged_state_snapshot(lambda payload: payload.update(cycle=str(payload["cycle"])))

    def test_fault_events_may_name_no_task(self):
        # Fault events that target a worker or bank carry task id -1.
        snapshot = _forged_log_snapshot(lambda cycle: [cycle + 1, 3, -1])
        restored = restore(snapshot)
        first = restored.advance(1)
        assert first.events[0].cycle == snapshot.cycle + 1
        assert first.events[0].kind == "fault-injected"


# ----------------------------------------------------------------------
# timeline columns and forged timelines
# ----------------------------------------------------------------------
def _timeline_rows(sim):
    """The simulator's five stamps of every task, keyed by task id in
    program order, read from its timeline columns."""
    columns = (sim._created_at, sim._submitted_at, sim._ready_at,
               sim._started_at, sim._finished_at)
    return {
        task_id: [column[row] for column in columns]
        for task_id, row in sim.program.rows().items()
    }


def _decoded_columns(snapshot):
    """The snapshot's touched timeline rows: stamps keyed by task id, in
    document order."""
    columns = snapshot.state["timelines"]
    ids = list(itertools.accumulate(columns["ids"]))
    stamps = [list(itertools.accumulate(c)) for c in columns["stamps"]]
    return dict(zip(ids, map(list, zip(*stamps))))


class TestTimelineColumns:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_only_touched_rows_travel_and_every_task_is_restored(self, backend):
        # At this early cycle the hil-comm and hil-full runs have touched
        # only a few rows, so the others must be left out; on this small
        # program hil-hw and nanos have touched every row already.
        session = open_session(_workload_request("cholesky", backend))
        session.advance(2_000)
        live = _timeline_rows(session._stepper._sim)
        touched = {
            task_id: stamps for task_id, stamps in sorted(live.items())
            if any(stamps)
        }
        snapshot = capture(session)
        session.close()
        assert touched
        assert _decoded_columns(snapshot) == touched
        restored = _timeline_rows(restore(snapshot)._stepper._sim)
        assert list(restored) == list(live)  # every task, in program order
        assert restored == live

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_ids_that_are_not_positions_travel_sorted_and_restore(self, backend):
        # Created in reverse, task id i sits in row n - 1 - i: capture
        # must sort the touched rows by id, and restore must put every
        # stamp back in its task's row.
        program = _workload_request("cholesky", backend).build_program()
        ids = [task.task_id for task in program]
        reversed_program = program.with_creation_order(ids[::-1])
        request = SimulationRequest.for_program(
            reversed_program, backend=backend, num_workers=4
        )
        straight = simulate_request(request)
        session = open_session(request)
        # Past the first task's end: ``perfect`` creates, submits and
        # readies tasks at cycle 0, so before that end only the one
        # dispatched task's row is touched.
        assert not session.advance(400_000).finished
        live = _timeline_rows(session._stepper._sim)
        snapshot = capture(session)
        session.close()
        columns = _decoded_columns(snapshot)
        assert len(columns) > 1
        assert list(columns) == sorted(columns)
        assert columns == {t: live[t] for t in sorted(live) if any(live[t])}
        restored = restore(snapshot)
        assert _timeline_rows(restored._stepper._sim) == live
        _drain(restored, 50_000)
        assert restored.result() == straight
        assert list(restored.result().timelines) == ids[::-1]


def _forged_timelines_snapshot(edit):
    """A mid-run ``nanos`` snapshot whose timeline columns went through
    ``edit(columns, num_tasks)``, re-digested so that it loads."""
    num_tasks = _workload_request("cholesky", "nanos").build_program().num_tasks
    return _forged_state_snapshot(
        lambda payload: payload["state"].update(
            timelines=edit(payload["state"]["timelines"], num_tasks)
        )
    )


def _set(*path, to):
    """An edit setting ``columns[path]`` to ``to`` (or to ``to(old value)``)."""

    def edit(columns, num_tasks):
        target = columns
        for key in path[:-1]:
            target = target[key]
        old = target[path[-1]]
        target[path[-1]] = to(old) if callable(to) else to
        return columns

    return edit


def _one_row_too_many(columns, num_tasks):
    rows = num_tasks + 1
    return {"ids": [0] + [1] * (rows - 1), "stamps": [[1] * rows for _ in range(5)]}


class TestForgedTimelines:
    """The digest only proves a document is self-consistent: restore()
    checks the timeline columns before it allocates for them."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c, n: [[0, 0, 1, 2, 3, 4]], "not an object"),
            (lambda c, n: dict(c, extra=[]), "not an object"),
            (lambda c, n: {"ids": c["ids"]}, "not an object"),
            (lambda c, n: dict(c, stamps=c["stamps"][:4]), r"stamps \[\[.* is not a list of 5"),
            (lambda c, n: dict(c, stamps={"created": []}), r"stamps \{'created': \[\]\} is not a"),
            (lambda c, n: dict(c, ids="junk"), "not a list"),
            (_set("stamps", 2, to="junk"), "not a list"),
            (_set("stamps", 3, to=lambda column: column[:-1]), "one stamp >= 0 per id"),
            (_set("ids", to=lambda column: column + [1]), "ids do not strictly increase through"),
            (_one_row_too_many, "timeline ids do not strictly increase through tasks"),
            (_set("ids", 0, to=True), r"ids\[0\] True is not an integer"),
            (_set("stamps", 4, 1, to=1.0), r"stamps\[4\]\[1\] 1.0 is not an integer"),
            (_set("stamps", 0, 0, to=None), r"stamps\[0\]\[0\] None is not an integer"),
            (_set("ids", 1, to=0), "timeline ids do not strictly increase"),
            (_set("ids", 2, to=-1), "timeline ids do not strictly increase"),
            (_set("ids", -1, to=lambda delta: delta + 10**9), "ids do not strictly increase"),
            (_set("ids", 0, to=-1), "ids do not strictly increase through tasks"),
            (_set("stamps", 4, 1, to=lambda delta: delta - 10**12), "one stamp >= 0 per id"),
        ],
        ids=[
            "row-list",
            "extra-key",
            "missing-key",
            "four-stamp-columns",
            "stamps-object",
            "ids-not-a-list",
            "stamp-column-not-a-list",
            "short-stamp-column",
            "long-id-column",
            "more-rows-than-tasks",
            "bool-id",
            "float-stamp",
            "null-stamp",
            "repeated-id",
            "decreasing-id",
            "unknown-task",
            "negative-id",
            "negative-stamp",
        ],
    )
    def test_forged_columns_are_refused_at_restore(self, edit, message):
        snapshot = _forged_timelines_snapshot(edit)
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)


def _forge_create_job(state, task_id):
    """Point the master's queued ``create`` job at ``task_id``."""
    for _, events in state["queue"]["buckets"]:
        for _, payload in events:
            if isinstance(payload, list) and payload[:2] == ["j", "create"]:
                payload[2] = ["task", task_id]
                return
    raise AssertionError("the snapshot queues no create job")


def _forge_gateway_pending(state, task_id):
    state["accel"]["gateway"]["pending"] = {
        "task": task_id, "trs": 0, "tm_index": 0,
        "next_dep_index": 0, "reason": None, "retries": 0,
    }


def _forge_remaining_preds(state, task_id):
    """Give the first Nanos++ predecessor count to ``task_id``."""
    state["remaining_preds"][0][0] = task_id


def _queue_last(kind, payload):
    """An edit queuing one more ``kind`` event carrying ``payload``, after
    every queued event."""

    def edit(state):
        buckets = state["queue"]["buckets"]
        buckets.append([buckets[-1][0] + 1, [[kind, payload]]])

    return edit


class TestForgedTaskIds:
    """Every task id in a restored state must name a task of the program;
    restore refuses a re-digested document naming any other with a
    ``SnapshotError``, where a bare ``KeyError`` used to escape from
    restore or from the first ``advance``."""

    @pytest.mark.parametrize(
        "backend, edit",
        [
            ("hil-full", _forge_create_job),
            ("hil-full", _forge_gateway_pending),
            ("nanos", lambda state, task_id: state.update(ready_pool=[task_id])),
            ("nanos", _forge_remaining_preds),
            ("nanos", lambda state, task_id: state.update(submitted=[task_id])),
            ("hil-full", lambda state, task_id: state.update(finish_jobs=[task_id])),
            (
                "hil-full",
                lambda state, task_id: state.update(dispatch_jobs=[[task_id, 0]]),
            ),
            ("hil-full", lambda state, task_id: state["ready"].update(queue=[task_id])),
        ],
        ids=[
            "event-payload",
            "gateway-pending",
            "nanos-ready-pool",
            "nanos-remaining-preds",
            "nanos-submitted",
            "finish-jobs",
            "dispatch-job-task",
            "ready-queue",
        ],
    )
    @pytest.mark.parametrize(
        "task_id", [10**9, "1", [1]], ids=["unknown", "string", "list"]
    )
    def test_a_forged_task_id_is_refused_at_restore(self, backend, edit, task_id):
        snapshot = _forged_state_snapshot(
            lambda payload: edit(payload["state"], task_id), backend, 10_000
        )
        with pytest.raises(SnapshotError, match="names no task"):
            restore(snapshot)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda counts: counts.__setitem__(0, [counts[0][0], -1]),
                r"remaining_preds\[0\]\[1\] -1 is not an integer of at least 0",
            ),
            (
                lambda counts: counts.__setitem__(0, [counts[0][0], True]),
                r"remaining_preds\[0\]\[1\] True is not an integer",
            ),
            (
                lambda counts: counts.__setitem__(0, [counts[0][0], 1.0]),
                r"remaining_preds\[0\]\[1\] 1.0 is not an integer",
            ),
            (
                lambda counts: counts.__setitem__(0, counts[0][:1]),
                r"remaining_preds\[0\] \[0\] is not a list of 2",
            ),
            (
                lambda counts: counts.__setitem__(0, {"task": 0}),
                r"remaining_preds\[0\] \{'task': 0\} is not a list of 2",
            ),
            (lambda counts: counts.__setitem__(0, counts[1]), "twice"),
            (lambda counts: counts.pop(), "remaining_preds holds 19 entries, not 20"),
            (lambda counts: counts.append(counts[0]), "remaining_preds holds 21 entries, not 20"),
        ],
        ids=[
            "negative-count",
            "bool-count",
            "float-count",
            "short-pair",
            "object-pair",
            "repeated-task",
            "missing-task",
            "extra-pair",
        ],
    )
    def test_forged_nanos_predecessor_counts_are_refused(self, edit, message):
        snapshot = _forged_state_snapshot(
            lambda payload: edit(payload["state"]["remaining_preds"])
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    @pytest.mark.parametrize("field", ["submitted", "ready_pool"])
    def test_a_nanos_task_list_that_is_not_a_list_is_refused(self, field):
        snapshot = _forged_state_snapshot(
            lambda payload: payload["state"].update({field: 1})
        )
        with pytest.raises(SnapshotError, match="is not a list"):
            restore(snapshot)

    @pytest.mark.parametrize(
        "backend, kind, payload, message",
        [
            ("hil-full", "worker-done", ["t", 0, 10**9], "names no task"),
            ("hil-full", "worker-done", ["t", 4, 0], "names no worker"),
            ("hil-full", "worker-done", ["t", -1, 0], "names no worker"),
            ("hil-full", "worker-done", 0, r"\]\[1\] 0 is not a list of 3"),
            ("hil-full", "master-done", ["j", "dispatch", ["t", 10**9, 0]], "names no task"),
            ("hil-full", "master-done", ["j", "dispatch", ["t", 0, 4]], "names no worker"),
            ("hil-full", "master-done", ["j", "finish", 10**9], "names no task"),
            ("hil-full", "task-visible", 10**9, "names no task"),
            ("nanos", "task-done", ["t", 0, 10**9], "names no task"),
            ("nanos", "task-done", ["t", 4, 0], "names no worker"),
            ("nanos", "submitted", 10**9, "names no task"),
        ],
        ids=[
            "worker-done-task",
            "worker-done-worker",
            "worker-done-negative-worker",
            "worker-done-not-a-pair",
            "dispatch-task",
            "dispatch-worker",
            "finish-task",
            "visible-task",
            "nanos-done-task",
            "nanos-done-thread",
            "nanos-submitted-task",
        ],
    )
    def test_a_queued_payload_is_checked_by_its_kind(
        self, backend, kind, payload, message
    ):
        snapshot = _forged_state_snapshot(
            lambda document: _queue_last(kind, payload)(document["state"]),
            backend,
            10_000,
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)


class TestForgedWorkersAndCounts:
    """Worker indices, counts and cycles in a restored state are checked:
    a forged one is a ``SnapshotError``, not a different run or a bare
    error later."""

    @pytest.mark.parametrize(
        "backend, edit, message",
        [
            (
                "hil-full",
                lambda state: state.update(dispatch_jobs=[[0, 4]]),
                "names no worker",
            ),
            (
                "hil-full",
                lambda state: state.update(dispatch_jobs=[[0]]),
                r"dispatch_jobs\[0\] \[0\] is not a list of 2",
            ),
            ("hil-full", lambda state: state["workers"].update(idle=[4]), "names no worker"),
            ("hil-full", lambda state: state["workers"].update(idle=[0, 0]), "twice"),
            ("hil-full", lambda state: state.update(next_create_index=-3), "at least 0"),
            ("hil-full", lambda state: state.update(finished_tasks=21), "at most 20"),
            ("hil-full", lambda state: state.update(pending_new=21), "at most 20"),
            ("hil-full", lambda state: state.update(pending_new=-1), "at least 0"),
            ("hil-full", lambda state: state.update(pending_new=[3]), "not an integer"),
            (
                "nanos",
                lambda state: state["idle_workers"].extend([10**9, 10**9 + 1]),
                "names no worker",
            ),
            ("nanos", lambda state: state.update(idle_workers=[0, 0]), "twice"),
            ("nanos", lambda state: state.update(idle_workers=[True]), "names no worker"),
            ("nanos", lambda state: state.update(idle_workers=None), "not a list"),
            ("nanos", lambda state: state.update(finished=-5), "at least 0"),
            ("nanos", lambda state: state.update(finished=21), "at most 20"),
            ("nanos", lambda state: state.update(finished=1.0), "not an integer"),
            ("nanos", lambda state: state.update(master_joins_at="x"), "not an integer"),
            ("nanos", lambda state: state.update(master_joins_at=-1), "at least 0"),
            ("nanos", lambda state: state.update(makespan=-7), "at least 0"),
        ],
        ids=[
            "dispatch-job-worker",
            "dispatch-job-short",
            "hil-idle-worker",
            "hil-idle-twice",
            "hil-negative-creation-index",
            "hil-finished-past-the-tasks",
            "hil-pending-new-past-the-tasks",
            "hil-negative-pending-new",
            "hil-pending-new-as-task-ids",
            "nanos-extra-idle-threads",
            "nanos-idle-twice",
            "nanos-bool-idle-thread",
            "nanos-idle-not-a-list",
            "nanos-negative-finished",
            "nanos-finished-past-the-tasks",
            "nanos-float-finished",
            "nanos-string-join-cycle",
            "nanos-negative-join-cycle",
            "nanos-negative-makespan",
        ],
    )
    def test_a_forged_field_is_refused_at_restore(self, backend, edit, message):
        snapshot = _forged_state_snapshot(
            lambda payload: edit(payload["state"]), backend, 10_000
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)


def _forge_fault_timer_index(index):
    """An edit pointing the queued fault timer at armed fault ``index``."""

    def edit(payload):
        for _, events in payload["state"]["queue"]["buckets"]:
            for kind, queued in events:
                if kind == "fault-timer":
                    queued[1] = index
                    return
        raise AssertionError("the snapshot queues no fault timer")

    return edit


class TestForgedFaultIndices:
    """A queued fault timer or redelivery must index a fault the restored
    plan arms; another index used to raise a bare ``IndexError`` mid-run."""

    KILL = (parse_fault_spec("kill-worker@cycle=2000000:worker=1"),)

    @pytest.mark.parametrize("backend", ["hil-full", "nanos"])
    @pytest.mark.parametrize("index", [5, 1, -1])
    def test_a_fault_timer_index_past_the_plan_is_refused(self, backend, index):
        snapshot = _forged_state_snapshot(
            _forge_fault_timer_index(index), backend, 10_000, faults=self.KILL
        )
        with pytest.raises(SnapshotError, match=f"\\]\\[1\\] {index} names no fault of the 1$"):
            restore(snapshot)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (["frd", 5, "worker-done", ["t", 0, 0]], "5 names no fault of the 1"),
            (["frd", 0, "worker-done", ["t", 0, 10**9]], "names no task"),
        ],
        ids=["index", "redelivered-task"],
    )
    def test_a_redelivery_is_checked(self, payload, message):
        snapshot = _forged_state_snapshot(
            lambda document: _queue_last("fault-redeliver", payload)(document["state"]),
            "hil-full",
            10_000,
            faults=self.KILL,
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    def test_a_fault_timer_of_an_unknown_tag_is_refused(self):
        snapshot = _forged_state_snapshot(
            lambda document: _queue_last(
                "fault-timer", ["fto", 0, "zzz", None]
            )(document["state"]),
            "hil-full",
            10_000,
            faults=self.KILL,
        )
        with pytest.raises(SnapshotError, match=r"\['fto', 0, 'zzz', None\] is not one of kill$"):
            restore(snapshot)

    def test_a_fault_event_without_a_plan_is_refused(self):
        snapshot = _forged_state_snapshot(
            lambda document: _queue_last(
                "fault-timer", ["fto", 0, "kill", None]
            )(document["state"]),
            "hil-full",
            10_000,
        )
        with pytest.raises(SnapshotError, match="0 names no fault of the 0"):
            restore(snapshot)

    def test_the_queued_timer_of_an_armed_plan_restores(self):
        request = _workload_request("cholesky", "nanos", faults=self.KILL)
        straight = simulate_request(request)
        snapshot = _forged_state_snapshot(
            _forge_fault_timer_index(0), "nanos", 10_000, faults=self.KILL
        )
        restored = restore(snapshot)
        _drain(restored, 50_000)
        assert restored.result() == straight


def _forge_first_queued_payload(forged):
    """Replace the payload of the first event in the queue's buckets."""

    def edit(payload):
        payload["state"]["queue"]["buckets"][0][1][0][1] = forged

    return edit


class TestForgedPayloads:
    """A queued event's payload of the wrong shape is refused with a
    ``SnapshotError``, not a bare ``IndexError``, ``TypeError`` or
    ``KeyError``."""

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            ["task"],
            ["t", 1],
            None,
            {},
            "t",
            True,
            [1, 2],
            ["zzz"],
            ["none", 1],
            ["t", 1, "2"],
            ["t", 1, 2.0],
            ["task", 1, 2],
            ["j", 1, 2],
            ["j", "create", []],
            ["fto", "0", "kill", None],
            ["fto", 0, "kill", "1"],
            ["frd", 0, 7, 1],
            ["frd", 0, "ready", ["t"]],
        ],
        ids=[
            "empty-list",
            "task-without-id",
            "short-pair",
            "null",
            "object",
            "string",
            "bool",
            "untagged-list",
            "unknown-tag",
            "long-none",
            "string-in-pair",
            "float-in-pair",
            "long-task",
            "job-kind-not-a-string",
            "job-of-an-empty-payload",
            "timer-index-not-an-int",
            "timer-argument-not-an-int",
            "redelivery-kind-not-a-string",
            "redelivery-of-a-short-payload",
        ],
    )
    def test_a_malformed_payload_is_refused_at_restore(self, payload):
        snapshot = _forged_state_snapshot(
            _forge_first_queued_payload(payload), "hil-full", 10_000
        )
        with pytest.raises(SnapshotError):
            restore(snapshot)


def _swap_first_slots(state):
    slots = state["accel"]["gateway"]["slots"]
    slots[0][0], slots[1][0] = slots[1][0], slots[0][0]


def _free_a_valid_entry(memory):
    memory["free"].append(memory["valid"].index(True))


def _queue_an_empty_bucket(state):
    """Append a bucket that holds no event: capture never writes one, and
    delivery reads the first event of every bucket it detaches."""
    buckets = state["queue"]["buckets"]
    buckets.append([buckets[-1][0] + 5, []])


_EMPTY_BUCKET = r"state\.queue\.buckets\[\d+\]\[1\] holds 0 entries, not at least 1"


class TestForgedConsistency:
    """Known tasks and workers in the wrong place: each layer's state is
    checked against the others before the session exists."""

    @pytest.mark.parametrize(
        "backend, edit, message",
        [
            (
                "hil-full",
                lambda state: state["accel"]["gateway"]["slots"][0].__setitem__(0, 10**9),
                r"slots\[0\]\[0\] 1000000000 names no task",
            ),
            ("hil-full", _swap_first_slots, "slots are not the tasks of the valid TM entries"),
            (
                "hil-full",
                lambda state: state["accel"]["deps_of_task"][0].__setitem__(1, 3),
                "deps_of_task are not",
            ),
            ("hil-full", lambda state: state.update(finish_jobs=[0]), "distinct ready TM tasks"),
            ("hil-full", lambda state: state["ready"].update(queue=[1]), "distinct ready TM tasks"),
            (
                "hil-full",
                lambda state: state.update(pending_new=state["pending_new"] + 1),
                "each created task once",
            ),
            (
                "hil-full",
                lambda state: state["workers"].update(idle=[1, 2]),
                "the idle workers are not",
            ),
            (
                "hil-full",
                lambda state: state["queue"]["buckets"][-1][1][0][1].__setitem__(1, 1),
                "a queued worker-done names task 0, not worker 1's",
            ),
            (
                "hil-full",
                lambda state: _free_a_valid_entry(state["accel"]["trs"][0]),
                "TRS 0's TM free list is not its invalid entries",
            ),
            (
                "hil-full",
                lambda state: _free_a_valid_entry(state["accel"]["dct"][0]["vm"]),
                "DCT 0's VM free list is not its invalid entries",
            ),
            ("hil-full", _queue_an_empty_bucket, _EMPTY_BUCKET),
            ("hil-hw", _queue_an_empty_bucket, _EMPTY_BUCKET),
            ("nanos", _queue_an_empty_bucket, _EMPTY_BUCKET),
            ("nanos", lambda state: state.update(finished=3), "finished is not the"),
            ("nanos", lambda state: state.update(ready_pool=[19]), "not distinct submitted tasks"),
            (
                "nanos",
                lambda state: state["remaining_preds"][-1].__setitem__(1, 0),
                "remaining_preds are not",
            ),
        ],
        ids=[
            "gateway-slot-unknown-task",
            "gateway-slots-swapped",
            "deps-of-task",
            "finish-job-on-a-worker",
            "ready-task-not-ready",
            "pending-new-one-too-many",
            "idle-worker-with-a-task",
            "worker-done-of-another-worker",
            "tm-free-list-names-a-valid-entry",
            "vm-free-list-names-a-valid-entry",
            "empty-queue-bucket-hil-full",
            "empty-queue-bucket-hil-hw",
            "empty-queue-bucket-nanos",
            "nanos-finished",
            "nanos-ready-not-submitted",
            "nanos-remaining-preds",
        ],
    )
    def test_a_known_value_in_the_wrong_place_is_refused(self, backend, edit, message):
        snapshot = _forged_state_snapshot(
            lambda payload: edit(payload["state"]), backend, 10_000
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    @pytest.mark.parametrize(
        "shift, message",
        [
            (-1, "the Gateway's pending task is not the first pending_new row"),
            (1, "each created task once"),
        ],
        ids=["stalled-task-not-first", "accepted-task-pending"],
    )
    def test_pending_rows_that_still_add_up_are_checked(self, shift, message):
        # A capture whose Gateway holds task 8 stalled (a full VM), with 12
        # tasks pending and task 0 finished.  Moving one task between
        # pending_new and the finished count keeps the sum of created tasks
        # but shifts the pending rows off the stalled task or onto task 7,
        # which the TM holds.
        def edit(payload):
            state = payload["state"]
            assert state["accel"]["gateway"]["pending"]["task"] == 8
            state["pending_new"] += shift
            state["accel"]["finished"] -= shift

        snapshot = _forged_state_snapshot(
            edit, "hil-hw", 500_000, config=PicosConfig(vm_entries=8)
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workers": "four"}, "workers"),
            ({"config": {"reference_datapath": True}}, "unknown config field"),
            ({"config": {"comm_messages_per_task": 3}}, "unknown config field"),
        ],
        ids=["workers-not-an-int", "retired-config-field", "retired-comm-messages-field"],
    )
    def test_a_request_the_decoder_refuses_is_a_snapshot_error(self, fields, message):
        snapshot = _forged_state_snapshot(
            lambda payload: payload["request"].update(fields), "hil-full", 10_000
        )
        with pytest.raises(SnapshotError, match="request or result is refused") as caught:
            restore(snapshot)
        assert isinstance(caught.value.__cause__, ValueError)
        assert message in str(caught.value)

    def test_a_result_the_decoder_refuses_is_a_snapshot_error(self):
        session = open_session(_workload_request("cholesky", "nanos"))
        _drain(session)
        document = capture(session).document()
        payload = _payload(document)
        payload["result"]["timelines"] = [1]
        snapshot = SimulationSnapshot.from_document(_redigested(document, payload))
        with pytest.raises(SnapshotError, match="request or result is refused"):
            restore(snapshot)


class TestForgedFaultState:
    """The armed-fault state and the fault timers are checked like the rest
    of the state: a value the plan could not hold is a ``SnapshotError``,
    not a bare error mid-run or a fault invariant that fails at the end."""

    KILL = (parse_fault_spec("kill-worker@cycle=2000000:worker=1"),)

    @pytest.mark.parametrize("backend", ["hil-full", "nanos"])
    @pytest.mark.parametrize(
        "timer, message",
        [
            (["fto", 0, "rejoin", 99], None),
            (["fto", 0, "kill", 1], r"\[3\] 1 is not one of None"),
        ],
        ids=["rejoin-thread-99", "kill-with-an-argument"],
    )
    def test_a_timer_that_does_not_fit_the_backend_is_refused(self, backend, timer, message):
        if message is None:
            message = "names no worker of the 4" if backend == "nanos" else "is not one of kill$"
        snapshot = _forged_state_snapshot(
            lambda payload: _queue_last("fault-timer", timer)(payload["state"]),
            backend,
            10_000,
            faults=self.KILL,
        )
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    @pytest.mark.parametrize("backend", ["hil-full", "nanos"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fires", "5", r"fires '5' is not an integer"),
            ("injected", 5.5, r"injected 5.5 is not an integer"),
            ("recovered", True, r"recovered True is not an integer"),
            ("injected", 1, "scenario 0's open faults are not what it waits on"),
            ("rng", [3, [0] * 625, "x"], r"rng\[2\] 'x' is not a float"),
            ("rng", [3, [2**32] + [0] * 624, None], r"rng\[1\]\[0\] 4294967296 is not"),
            ("rng", [3, [0] * 624 + [625], None], r"rng\[1\]\[624\] 625 is not"),
            ("rng", [2, [0] * 625, None], r"rng\[0\] 2 is not one of 3"),
            ("killed", [[0]], r"killed\[0\] \[0\] is not a list of 2"),
            ("awaiting", [0, 0], "awaiting holds an entry twice"),
            ("watching", 4, "watching 4 names no worker of the 4"),
        ],
        ids=[
            "string-count",
            "float-count",
            "bool-count",
            "open-fault",
            "rng-gauss",
            "rng-word",
            "rng-position",
            "rng-version",
            "killed-pair",
            "awaiting-twice",
            "watching",
        ],
    )
    def test_a_forged_scenario_is_refused(self, backend, field, value, message):
        def forge(payload):
            payload["state"]["faults"]["scenarios"][0][field] = value
            if field == "injected":
                payload["state"]["faults"]["injected"] = value

        snapshot = _forged_state_snapshot(forge, backend, 10_000, faults=self.KILL)
        with pytest.raises(SnapshotError, match=message):
            restore(snapshot)

    @pytest.mark.parametrize("backend", ["hil-full", "nanos"])
    def test_fault_state_is_present_exactly_when_the_plan_arms_faults(self, backend):
        def drop(payload):
            del payload["state"]["faults"]

        snapshot = _forged_state_snapshot(drop, backend, 10_000, faults=self.KILL)
        with pytest.raises(SnapshotError, match="state is not an object of .*faults"):
            restore(snapshot)

        def add(payload):
            payload["state"]["faults"] = {}

        with pytest.raises(SnapshotError, match="state is not an object of"):
            restore(_forged_state_snapshot(add, backend, 10_000))


# ----------------------------------------------------------------------
# the leaf-forging sweep
# ----------------------------------------------------------------------
#: Values that a field of a captured state rarely holds: a string, a
#: negative and a huge number, null and a list.
HOSTILE = ("x", -7, 10**9, None, [5])

#: A small accelerator keeps the HIL documents, and so the sweep, small.
SMALL_ACCELERATOR = PicosConfig(tm_entries=32, vm_entries=64, dm_sets=8)


def _leaf_paths(value, path=()):
    """The path of every leaf of ``value``: each key of an object, the
    first and the last entry of a list; an empty list is a leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for index in sorted({0, len(value) - 1}):
            yield from _leaf_paths(value[index], path + (index,))
    else:
        yield path


class TestLeafForgingSweep:
    """Each leaf of a mid-run capture, replaced with each hostile value and
    re-stamped: restore refuses the document with a ``SnapshotError``, or
    the restored session runs to completion.  A plausible but wrong value,
    such as a stats counter, may change the result; a bare exception, at
    restore or mid-run, may not."""

    @pytest.mark.parametrize(
        "backend, cycles, fault",
        [
            ("hil-comm", 10_000, None),
            ("hil-full", 10_000, None),
            ("hil-hw", 30_000, None),
            ("nanos", 30_000, None),
            ("perfect", 400_000, None),
            ("hil-full", 30_000, "kill-worker@cycle=20000:worker=1"),
            ("nanos", 30_000, "kill-worker@cycle=20000:worker=1"),
        ],
        ids=["hil-comm", "hil-full", "hil-hw", "nanos", "perfect", "hil-full-kill", "nanos-kill"],
    )
    def test_every_forged_leaf_is_refused_or_runs(self, backend, cycles, fault):
        fields = {"faults": (parse_fault_spec(fault),)} if fault else {}
        if backend.startswith("hil"):
            fields["config"] = SMALL_ACCELERATOR
        document = _mid_run_document(backend, cycles, **fields)
        payload = _payload(document)
        paths = [
            path
            for key in ("kind", "backend", "cycle", "counters", "state")
            for path in _leaf_paths(payload[key], (key,))
        ]
        assert len(paths) > 30
        bare = []
        for path, value in itertools.product(paths, HOSTILE):
            forged = _payload(document)
            *parents, leaf = path
            functools.reduce(operator.getitem, parents, forged)[leaf] = copy.deepcopy(value)
            try:
                session = restore(
                    SimulationSnapshot.from_document(_redigested(document, forged))
                )
                _drain(session, 10**9)
            except SnapshotError:
                continue
            except Exception as error:  # the failure this sweep looks for
                bare.append(f"{path} = {value!r}: {error!r}")
        assert not bare, "\n".join(bare)


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
        payload = _payload(document)
        payload["cycle"] += 1  # a single flipped field
        document["payload"] = _canonical(payload)  # ... and no fresh digest
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(path)

    def test_undigested_documents_are_refused_on_disk(self, tmp_path):
        document = self._mid_run_snapshot().document()
        del document["digest"]
        path = tmp_path / "naked.json"
        path.write_text(json.dumps(document))
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

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_versions_are_refused_at_load(self, tmp_path, version):
        # Versions 1 and 2 inline the payload as an object, digested over
        # its canonical dump; version 3 has today's envelope.  Version 1
        # may hold coalesced ready events no handler accepts any more,
        # version 2 holds every timeline row as a list, version 3 holds
        # counters no simulator keeps and pending_new as task ids: each
        # must fail at load, not mid-run.
        document = self._mid_run_snapshot().document()
        if version < 3:
            document = _payload(document)
            document.update(format=SNAPSHOT_FORMAT, version=version)
            document["digest"] = stable_digest(_canonical(document))
        else:
            document["version"] = version
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(document))
        with pytest.raises(
            SnapshotError, match=f"unsupported snapshot version {version} "
        ):
            load_snapshot(path)

    @pytest.mark.parametrize("garbage", [b"{not json", b'{"digest": "\xff"}'])
    def test_garbage_files_raise_snapshot_errors(self, tmp_path, garbage):
        path = tmp_path / "garbage.json"
        path.write_bytes(garbage)
        with pytest.raises(SnapshotError, match="JSON"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="read"):
            load_snapshot(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# the envelope: verified as read
# ----------------------------------------------------------------------
def _enveloped(payload_text, digest=None):
    """A current-version envelope around ``payload_text``, digested over it
    unless ``digest`` is given."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "digest": stable_digest(payload_text) if digest is None else digest,
        "payload": payload_text,
    }


def _load_from_disk(document, tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(document))
    return load_snapshot(path)


def _load_from_frame(document, tmp_path):
    # A frame decodes the envelope from the wire before from_document.
    return SimulationSnapshot.from_document(json.loads(json.dumps(document)))


class TestEnvelope:
    @pytest.fixture(scope="class")
    def captured(self):
        session = open_session(_workload_request("cholesky", "hil-hw"))
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        return snapshot

    def test_the_document_is_an_envelope_around_canonical_text(self, captured):
        document = captured.document()
        assert set(document) == {"format", "version", "digest", "payload"}
        assert document["version"] == SNAPSHOT_VERSION == 4
        assert document["payload"] == _canonical(_payload(document))
        assert document["digest"] == stable_digest(document["payload"])
        assert captured.digest == document["digest"]

    @pytest.mark.parametrize("load", [_load_from_disk, _load_from_frame])
    @pytest.mark.parametrize(
        "forge, message",
        [
            (lambda p: dict(_enveloped(_canonical(p)), payload=p), "not a string"),
            (lambda p: _enveloped("\ud800", digest="0" * 24), "not encodable"),
            (lambda p: _enveloped(_canonical(p)[:-1]), "not JSON"),
            (lambda p: _enveloped("[1,2]"), "payload is not an object of kind, backend"),
            (lambda p: _enveloped(_canonical(p), digest="0" * 24), "digest mismatch"),
            (
                lambda p: _enveloped(
                    _canonical({k: v for k, v in p.items() if k != "state"})
                ),
                "payload is not an object of kind, .* state, result",
            ),
            (lambda p: _enveloped(_canonical(dict(p, kind="paused"))), "kind 'paused' is not one"),
        ],
        ids=[
            "payload-object",
            "lone-surrogate",
            "not-json",
            "json-array",
            "digest-mismatch",
            "missing-field",
            "unknown-kind",
        ],
    )
    def test_a_bad_envelope_raises_a_snapshot_error(
        self, captured, tmp_path, load, forge, message
    ):
        document = forge(_payload(captured.document()))
        with pytest.raises(SnapshotError, match=message):
            load(document, tmp_path)


class _PayloadEncodes:
    """Counts ``json.dumps`` calls on a snapshot payload object."""

    KEYS = {"kind", "backend", "cycle", "request", "counters", "state", "result"}

    def __init__(self, monkeypatch):
        self.count = 0
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            if isinstance(obj, dict) and obj.keys() == self.KEYS:
                self.count += 1
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)


class TestEncodeOnce:
    def test_a_capture_encodes_its_payload_once(self, tmp_path, monkeypatch):
        encodes = _PayloadEncodes(monkeypatch)
        session = open_session(_workload_request("cholesky", "hil-hw"))
        session.advance(30_000)
        snapshot = capture(session)
        session.close()
        snapshot.digest
        snapshot.document()
        save_snapshot(snapshot, tmp_path / "once.json")
        snapshot.digest
        assert encodes.count == 1

    def test_a_loaded_snapshot_is_never_re_encoded(self, tmp_path, monkeypatch):
        session = open_session(_workload_request("cholesky", "hil-hw"))
        session.advance(30_000)
        path = save_snapshot(capture(session), tmp_path / "first.json")
        session.close()
        encodes = _PayloadEncodes(monkeypatch)
        loaded = load_snapshot(path)
        loaded.digest
        again = save_snapshot(loaded, tmp_path / "again.json")
        assert encodes.count == 0
        assert again.read_bytes() == path.read_bytes()

    def test_a_served_checkpoint_frame_encodes_the_payload_once(self, monkeypatch):
        # The server checkpoints accepted sessions only, so a mid-run one
        # is restored first; re-capturing it reproduces the digest.
        from repro.service import ServerConfig, SimulationServer
        from repro.service.protocol import decode_frame, encode_frame

        session = open_session(_workload_request("cholesky", "hil-hw"))
        session.advance(30_000)
        snapshot = capture(session)
        session.close()

        async def scenario():
            server = SimulationServer(ServerConfig(port=0, http_port=None))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port, limit=1 << 24
                )
                await reader.readline()  # hello
                restore_frame = {"type": "restore", "id": "s", "snapshot": snapshot.document()}
                writer.write(encode_frame(restore_frame))
                assert decode_frame(await reader.readline())["type"] == "restored"
                encodes = _PayloadEncodes(monkeypatch)
                writer.write(encode_frame({"type": "checkpoint", "id": "s"}))
                frame = decode_frame(await reader.readline())
                writer.close()
                return frame, encodes.count
            finally:
                await server.shutdown(drain=False)

        frame, count = asyncio.run(scenario())
        assert frame["type"] == "checkpoint" and frame["kind"] == KIND_MID_RUN
        assert count == 1
        assert frame["digest"] == frame["snapshot"]["digest"] == snapshot.digest
        assert SimulationSnapshot.from_document(frame["snapshot"]) == snapshot
