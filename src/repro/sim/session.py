"""Streaming simulation sessions: incremental submission and typed events.

:func:`open_session` is the incremental counterpart of the one-shot
:func:`repro.sim.driver.simulate_request` API.  A session is opened from a
:class:`~repro.sim.request.SimulationRequest` and supports workloads the
batch call cannot express:

* **online task arrival** -- tasks are :meth:`~SimulationSession.submit`-ted
  one by one (for example as a client produces them) instead of being known
  up front;
* **event-driven analysis** -- the run is consumed as an iterator of typed,
  cycle-stamped lifecycle events (:class:`TaskSubmitted`,
  :class:`TaskReady`, :class:`TaskRetired`) in global cycle order;
* **early abort** -- ``events(until_cycle=N)`` stops delivering at a cycle
  horizon, and :meth:`~SimulationSession.stats` exposes a snapshot of what
  had happened by that point.

The cardinal guarantee is *batch parity*: streaming a program through a
session produces a :class:`~repro.sim.results.SimulationResult` that is
cycle-identical (field for field, timeline for timeline) to running the
same request through the batch path.  The session achieves this by
construction -- submission assembles exactly the program the batch path
would simulate, and the backend's ``simulator`` factory builds the same
engine-driven simulator the batch path runs, here wrapped in an
:class:`EngineStepper` that slices it -- so any backend, including
third-party plug-ins, gets a correct session for free.

Typical use::

    request = SimulationRequest.streaming("online", backend="hil-hw",
                                          num_workers=4)
    with open_session(request) as session:
        for task in task_source:
            session.submit(task)          # tasks arrive online
        for event in session.events():
            ...                           # cycle-stamped lifecycle stream
        result = session.result()         # identical to the batch path
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, List, Optional, Tuple

from repro.runtime.task import Task, TaskProgram
from repro.sim.backend import EngineSimulator, SimulatorBackend, get_backend
from repro.sim.request import SimulationRequest
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.snapshot import SimulationSnapshot


# ----------------------------------------------------------------------
# lifecycle events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionEvent:
    """One cycle-stamped lifecycle event of a simulated task."""

    #: Simulation cycle at which the event happened.
    cycle: int
    #: Identifier of the task the event refers to.
    task_id: int

    #: Event-kind label; also defines the in-cycle delivery order.
    kind: ClassVar[str] = ""


class TaskSubmitted(SessionEvent):
    """The task entered the backend (accelerator input / software pool)."""

    kind: ClassVar[str] = "submitted"


class TaskReady(SessionEvent):
    """All the task's dependences were satisfied; it became schedulable."""

    kind: ClassVar[str] = "ready"


class TaskRetired(SessionEvent):
    """The task's body finished executing."""

    kind: ClassVar[str] = "retired"


class FaultInjected(SessionEvent):
    """An armed fault scenario fired (``task_id`` is ``-1`` when the
    fault targets a worker or bank rather than a specific task)."""

    kind: ClassVar[str] = "fault-injected"


class FaultRecovered(SessionEvent):
    """A previously injected fault completed its recovery action."""

    kind: ClassVar[str] = "fault-recovered"


#: In-cycle delivery order; the numeric values double as the lifecycle-log
#: order codes (``repro.faults.plan`` appends its entries with codes 3/4 --
#: keep ``LOG_FAULT_INJECTED``/``LOG_FAULT_RECOVERED`` there in lockstep).
_EVENT_ORDER = {
    TaskSubmitted.kind: 0,
    TaskReady.kind: 1,
    TaskRetired.kind: 2,
    FaultInjected.kind: 3,
    FaultRecovered.kind: 4,
}

#: Event class per lifecycle-log order value (see stepper contract below).
_EVENT_CLASSES = (TaskSubmitted, TaskReady, TaskRetired, FaultInjected, FaultRecovered)

_SUBMITTED, _READY, _RETIRED = TaskSubmitted.kind, TaskReady.kind, TaskRetired.kind


def lifecycle_events(result: SimulationResult) -> List[SessionEvent]:
    """The typed event stream of a finished simulation, in cycle order.

    Derived from the per-task timelines; simultaneous events are ordered
    submitted < ready < retired, then by task id, so the stream is fully
    deterministic.

    Fault events are *streaming-only*: a faulted run's
    :class:`FaultInjected` / :class:`FaultRecovered` events are observed
    live through the sliced :meth:`SimulationSession.advance` stream (they
    come from the simulator's lifecycle log), but cannot be reconstructed
    from a finished result's timelines -- which is also why the service
    never serves a faulted run from its result cache.
    """
    events: List[SessionEvent] = []
    for timeline in result.timelines.values():
        events.append(TaskSubmitted(timeline.submitted, timeline.task_id))
        events.append(TaskReady(timeline.ready, timeline.task_id))
        events.append(TaskRetired(timeline.finished, timeline.task_id))
    events.sort(key=lambda e: (e.cycle, _EVENT_ORDER[e.kind], e.task_id))
    return events


# ----------------------------------------------------------------------
# session state
# ----------------------------------------------------------------------
#: Session lifecycle states (reported by :meth:`SimulationSession.stats`).
STATE_OPEN = "open"
STATE_SEALED = "sealed"
STATE_FINISHED = "finished"
STATE_CLOSED = "closed"

#: Default cycle budget of one cooperative slice (see
#: :meth:`SimulationSession.advance`).  Coarse enough that slice overhead is
#: negligible against the engine work inside it, fine enough that a handful
#: of slices cover the quick workloads.
DEFAULT_SLICE_CYCLES = 250_000


@dataclass(frozen=True)
class SessionSlice:
    """The outcome of one cooperative :meth:`SimulationSession.advance`."""

    #: ``True`` once the simulation has run to completion.
    finished: bool
    #: Cycle horizon this slice advanced the simulation to.
    horizon: int
    #: Lifecycle events that became final inside this slice, in global
    #: stream order (concatenating every slice's events reproduces
    #: :func:`lifecycle_events` exactly; a faulted run additionally
    #: interleaves its streaming-only fault events).
    events: Tuple[SessionEvent, ...]


@dataclass(frozen=True)
class SessionStats:
    """Snapshot of a session's progress (cheap, taken at any time)."""

    #: ``open`` (accepting tasks), ``sealed``, ``finished`` (simulated) or
    #: ``closed`` (cancelled / released).
    state: str
    #: Tasks submitted to the session so far.
    tasks_submitted: int
    #: Task lifecycle events delivered so far, through
    #: :meth:`SimulationSession.advance` or :meth:`SimulationSession.events`
    #: (fault events are not counted).
    events_delivered: int
    #: Ready / retired counts among the delivered events.
    tasks_ready: int
    tasks_retired: int
    #: Cycle stamp of the last delivered event (0 before any delivery).
    current_cycle: int
    #: Final makespan; ``None`` until the simulation has run.
    makespan: Optional[int]


class SessionError(RuntimeError):
    """A session operation was attempted in the wrong lifecycle state."""


# ----------------------------------------------------------------------
# the generic stepper
# ----------------------------------------------------------------------
class EngineStepper:
    """Cooperative-slicing adapter over a resumable engine-driven simulator.

    Implements the stepper contract consumed by
    :meth:`SimulationSession.advance` for any simulator built on
    :class:`repro.sim.engine.EventQueue` that exposes ``queue``,
    ``step(stop_at_cycle)``, ``enable_lifecycle_log()`` and ``run()`` --
    today the HIL platform (:class:`repro.sim.hil.HILSimulator`) and the
    Nanos++ software model
    (:class:`repro.runtime.nanos.NanosRuntimeSimulator`).  Each
    :meth:`advance` call dispatches one bounded horizon slice and returns
    the lifecycle-log entries that became final inside it.  Because the
    engine consumes events in the same order whether or not dispatching is
    split across horizons, the concatenated slices are cycle-identical to a
    single uninterrupted run, and the sorted per-slice log partitions
    reproduce :func:`lifecycle_events` exactly.

    The simulator's log list always holds exactly the entries not yet
    handed out.  Its first ``_pending`` entries are the ones earlier
    slices left pending, kept as a :mod:`heapq` min-heap; everything after
    them was appended by the simulator since the last slice.  A slice
    therefore reads only its new entries and pops the heap while its top
    is due: it costs its own events, not the backlog (Nanos++ logs every
    submission at start-up, which would otherwise be re-read by every
    slice).  A fresh stepper starts with ``_pending == 0``, so a restored
    log counts as all new.
    """

    def __init__(self, simulator: EngineSimulator) -> None:
        self._sim = simulator
        self._log: List[Tuple[int, int, int]] = simulator.enable_lifecycle_log()
        #: Length of the pending-entry heap at the front of ``_log``.
        self._pending = 0
        self._horizon = 0
        self.finished = False

    def advance(
        self, slice_cycles: int
    ) -> Tuple[bool, int, List[Tuple[int, int, int]]]:
        """Run one slice of at most ``slice_cycles`` beyond the last horizon.

        Returns ``(finished, horizon, entries)`` where ``entries`` is the
        sorted list of ``(cycle, order, task_id)`` lifecycle entries that
        are final as of ``horizon``.  When the next queued event lies past
        the nominal horizon the slice fast-forwards to it, so every slice
        of an unfinished run makes progress.
        """
        if slice_cycles < 1:
            raise ValueError("slice_cycles must be >= 1")
        sim = self._sim
        queue = sim.queue
        if self.finished:
            return True, self._horizon, []
        target = max(queue.now, self._horizon) + slice_cycles
        peek = queue.peek_time
        if peek is not None and peek > target:
            target = peek
        sim.step(target)
        self._horizon = target
        done = queue.empty
        if not done:
            # A step delivers every event up to its horizon, so an
            # unfinished run must hold one past it; otherwise the drain
            # loops of the session would slice forever.
            peek = queue.peek_time
            if peek is None or peek <= target:
                raise RuntimeError(
                    f"the simulator stalled at cycle {target}: its queue is not "
                    f"empty but holds no event past the horizon (next: {peek})"
                )
        self.finished = done
        log = self._log
        if done:
            entries = log[:]
            log.clear()
        else:
            pending = self._pending
            fresh = log[pending:]
            del log[pending:]  # ``log`` is the heap alone again
            entries = []
            for entry in fresh:
                if entry[0] <= target:
                    entries.append(entry)
                else:
                    heappush(log, entry)
            while log and log[0][0] <= target:
                entries.append(heappop(log))
        self._pending = len(log)
        # Plain tuple order == the lifecycle_events() sort key
        # (cycle, kind order, task id).
        entries.sort()
        return done, target, entries

    def result(self) -> SimulationResult:
        """The complete result; only valid once ``finished`` is ``True``."""
        if not self.finished:
            raise RuntimeError("stepper has not finished; call advance() until done")
        # The queue is drained, so this builds the final result without
        # dispatching anything further.
        return self._sim.run()


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
class SimulationSession:
    """Incremental execution surface over one simulator backend.

    The session of every backend: it slices runs through an
    :class:`EngineStepper` over the simulator the backend's ``simulator``
    factory builds.  Tasks referenced by the request's program are
    pre-submitted at open time; more may arrive through :meth:`submit`
    until the session is sealed (sealing happens implicitly the first time
    events, a slice or the result are demanded).
    """

    def __init__(self, backend: SimulatorBackend, request: SimulationRequest) -> None:
        self._backend = backend
        #: The normalized request (validation happens here, up front).
        self.request = request.normalize()
        self._source_program = self.request.build_program()
        self._streamed: List[Task] = []
        self._sealed = False
        self._closed = False
        #: Submission count frozen at close time (the streamed-task list is
        #: released then, but the progress snapshot must not forget it).
        self._submitted_at_close: Optional[int] = None
        #: Live cooperative-slicing adapter (see :meth:`advance`); ``None``
        #: until the first ``advance``, and again once the run finished or
        #: the session closed.
        self._stepper: Optional[EngineStepper] = None
        self._result: Optional[SimulationResult] = None
        self._events: Optional[List[SessionEvent]] = None
        #: Task events delivered so far, by ``advance`` or ``events``: the
        #: ``events()`` cursor into :func:`lifecycle_events`.  Fault events
        #: are not in that stream, so they are not counted.
        self._delivered = 0
        self._ready_seen = 0
        self._retired_seen = 0
        self._current_cycle = 0
        #: Horizon of the most recent ``events(until_cycle=...)`` request;
        #: ``stats`` clamps its cycle snapshot to it (``None`` = unlimited).
        self._horizon: Optional[int] = None

    # ------------------------------------------------------------------
    # incremental submission
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Submit one more task to the session (online arrival).

        Submission order is creation order: the simulated master creates
        the streamed tasks after the request's pre-loaded ones, exactly as
        if the full program had been traced up front -- which is what makes
        the streamed run cycle-identical to the batch run.
        """
        if self._closed:
            raise SessionError("cannot submit tasks to a closed session")
        if self._sealed:
            raise SessionError("cannot submit tasks to a sealed session")
        self._streamed.append(task)

    def submit_program(self, tasks: Iterable[Task]) -> int:
        """Submit a batch of tasks in order; returns how many were taken."""
        count = 0
        for task in tasks:
            self.submit(task)
            count += 1
        return count

    def seal(self) -> None:
        """Close the submission window; further ``submit`` calls raise."""
        self._sealed = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _assembled_program(self) -> TaskProgram:
        if not self._streamed:
            return self._source_program
        program = TaskProgram(name=self._source_program.name)
        for task in self._source_program:
            program.add_task(task)
        for task in self._streamed:
            program.add_task(task)
        return program

    def _require_usable(self, operation: str) -> None:
        if self._closed:
            raise SessionError(f"cannot {operation} on a closed session")

    def _ensure_result(self) -> SimulationResult:
        if self._result is None:
            self.seal()
            stepper = self._stepper
            if stepper is not None:
                # A sliced run is in flight: drain it instead of starting a
                # fresh batch simulation (the two are cycle-identical, but a
                # restart would throw away the work already done).  The
                # drained events are not counted as delivered -- delivery
                # accounting belongs to advance()/events() only.
                while not stepper.finished:
                    stepper.advance(DEFAULT_SLICE_CYCLES)
                self._result = stepper.result()
                self._stepper = None
            else:
                self._result = self._simulator().run()
        return self._result

    def _simulator(self) -> EngineSimulator:
        return self._backend.simulator(
            self._assembled_program(), **self.request.simulate_kwargs()
        )

    def _ensure_events(self) -> List[SessionEvent]:
        # Derived lazily: result()-only consumers never pay for building and
        # sorting 3 events per task of a 140k-task program.
        if self._events is None:
            self._events = lifecycle_events(self._ensure_result())
        return self._events

    def events(self, *, until_cycle: Optional[int] = None) -> Iterator[SessionEvent]:
        """Iterate the run's lifecycle events in global cycle order.

        The first call seals the session and runs the simulation.  The
        iterator is resumable: delivery picks up where the previous
        iterator stopped, so a consumer can alternate between draining
        events and inspecting :meth:`stats`.  ``until_cycle`` withholds
        events stamped after the horizon (early abort): the remaining
        events stay pending and a later call can keep going.  The horizon
        also caps the cycle snapshot :meth:`stats` reports until a later
        call moves (or lifts) it.
        """
        # Recording the horizon must happen at call time, not at first
        # ``next()``, so a stats() between the call and consumption already
        # sees the requested cap; hence the inner generator.
        self._require_usable("stream events")
        self._horizon = until_cycle
        events = self._ensure_events()
        return self._deliver(events, until_cycle)

    # ------------------------------------------------------------------
    # cooperative slicing
    # ------------------------------------------------------------------
    def advance(self, slice_cycles: Optional[int] = None) -> SessionSlice:
        """Run one bounded slice of the simulation and return its events.

        The push-mode counterpart of :meth:`events`: instead of computing
        the whole run and pulling events from it, ``advance`` executes at
        most ``slice_cycles`` simulated cycles and returns the events that
        became final inside that window, so a scheduler (e.g. the asyncio
        service in :mod:`repro.service`) can interleave many long runs on
        one thread.  Concatenating the slices of a run reproduces the full
        :meth:`events` stream exactly, and the final :meth:`result` is
        cycle-identical to the batch path.  The first call seals the
        session.  On a session that already holds its result (``result()``
        came first, or a finished snapshot was restored) the task events
        not yet delivered form one last, finished slice.
        """
        self._require_usable("advance")
        if slice_cycles is None:
            stream = self.request.stream
            slice_cycles = (
                stream.slice_cycles
                if stream is not None and stream.slice_cycles is not None
                else DEFAULT_SLICE_CYCLES
            )
        if self._result is not None:
            remaining = tuple(self._ensure_events()[self._delivered :])
            self._count_delivered(remaining)
            return SessionSlice(
                finished=True, horizon=self._result.drain_time, events=remaining
            )
        if self._stepper is None:
            self.seal()
            self._stepper = EngineStepper(self._simulator())
        finished, horizon, entries = self._stepper.advance(slice_cycles)
        classes = _EVENT_CLASSES
        slice_events = tuple(
            classes[order](cycle, task_id) for cycle, order, task_id in entries
        )
        self._count_delivered(slice_events)
        if finished:
            self._result = self._stepper.result()
            self._stepper = None
        return SessionSlice(finished=finished, horizon=horizon, events=slice_events)

    def _count_delivered(self, events: Tuple[SessionEvent, ...]) -> None:
        """Fold a delivered slice into the progress counters.

        Keeps the ``events()`` cursor consistent: sliced delivery follows
        the exact global stream order, so bumping ``_delivered`` by the
        slice's task events leaves any later ``events()`` call resuming
        right after the last sliced task event.  The slice's fault events
        are not in the ``events()`` stream, so they do not move the cursor.
        """
        faults = 0
        for event in events:
            self._current_cycle = event.cycle
            kind = event.kind
            if kind == _READY:
                self._ready_seen += 1
            elif kind == _RETIRED:
                self._retired_seen += 1
            elif kind != _SUBMITTED:
                faults += 1
        self._delivered += len(events) - faults

    def _deliver(
        self, events: List[SessionEvent], until_cycle: Optional[int]
    ) -> Iterator[SessionEvent]:
        while self._delivered < len(events):
            event = events[self._delivered]
            if until_cycle is not None and event.cycle > until_cycle:
                return
            self._delivered += 1
            self._current_cycle = event.cycle
            if event.kind == _READY:
                self._ready_seen += 1
            elif event.kind == _RETIRED:
                self._retired_seen += 1
            yield event

    def stats(self) -> SessionStats:
        """A progress snapshot (valid in any state, including mid-stream).

        ``current_cycle`` never exceeds the horizon of the most recent
        ``events(until_cycle=...)`` request: an early-aborting consumer
        asked to see nothing beyond that cycle, so the snapshot must not
        leak a clock position past it (which the raw last-delivered-event
        cycle does when a later request shrinks the horizon).
        """
        if self._closed:
            state = STATE_CLOSED
        elif self._result is not None:
            state = STATE_FINISHED
        elif self._sealed:
            state = STATE_SEALED
        else:
            state = STATE_OPEN
        current_cycle = self._current_cycle
        if self._horizon is not None and current_cycle > self._horizon:
            current_cycle = self._horizon
        return SessionStats(
            state=state,
            tasks_submitted=(
                self._submitted_at_close
                if self._submitted_at_close is not None
                else self._source_program.num_tasks + len(self._streamed)
            ),
            events_delivered=self._delivered,
            tasks_ready=self._ready_seen,
            tasks_retired=self._retired_seen,
            current_cycle=current_cycle,
            makespan=self._result.makespan if self._result is not None else None,
        )

    def result(self) -> SimulationResult:
        """The final result; cycle-identical to the batch path.

        Seals the session and runs the simulation if that has not happened
        yet.  Does not consume the event stream: events remain available
        (and resumable) after the result has been read.
        """
        self._require_usable("read the result")
        return self._ensure_result()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> "SimulationSnapshot":
        """Capture a :class:`~repro.sim.snapshot.SimulationSnapshot`.

        Valid before the first :meth:`advance` (an *initial* snapshot),
        between ``advance`` slices (a *mid-run* snapshot at the current
        cycle boundary) and after the run finished (a *finished* snapshot).
        The snapshot is copy-on-capture: it shares no mutable state with
        the session, so closing -- or further advancing -- the session
        never invalidates a captured snapshot.  See
        :func:`repro.sim.snapshot.capture`.
        """
        from repro.sim.snapshot import capture

        return capture(self)

    # ------------------------------------------------------------------
    # cancellation / release
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Cancel the session and free its engine state; idempotent.

        Safe in any state, including mid-run between :meth:`advance`
        slices: the in-flight simulator (event queue, accelerator state,
        partial timelines) and any computed result/event stream are
        released.  After closing, :meth:`stats` still reports the progress
        counters (under state ``closed``) but ``submit``/``advance``/
        ``events``/``result`` raise :class:`SessionError`.  A cancelled run
        is simply restarted by opening a fresh session from the same
        request -- sessions share no mutable state, so the rerun is
        cycle-identical (pinned by the restart-parity test).
        """
        if self._closed:
            return
        self._submitted_at_close = self._source_program.num_tasks + len(self._streamed)
        self._closed = True
        self._sealed = True
        self._stepper = None
        self._result = None
        self._events = None
        self._streamed.clear()

    # ------------------------------------------------------------------
    # context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "SimulationSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Sealing (not closing) on exit keeps the idiomatic
        # ``with open_session(...) as s: ... s.result()`` pattern working:
        # results and events remain readable after the block.  Callers that
        # want hard release semantics use ``contextlib.closing`` or call
        # :meth:`close` explicitly.
        self.seal()


def open_session(request: SimulationRequest) -> SimulationSession:
    """Open a :class:`SimulationSession` for ``request`` on its backend.

    The request is validated first, so an unaccepted parameter fails here
    rather than mid-stream.
    """
    return SimulationSession(get_backend(request.backend), request)
