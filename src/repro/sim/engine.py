"""A small discrete-event simulation engine.

The Hardware-In-the-Loop platform and the Nanos++ software-only model are
both driven by the same minimal engine: a time-ordered event queue with
stable FIFO ordering for simultaneous events.  Events are plain
``(kind, payload)`` pairs; the simulators dispatch on ``kind`` themselves,
which keeps the engine free of any domain knowledge.

The engine sits on the hot path of every simulation -- the finest-grained
workloads deliver hundreds of thousands of events per run -- so both
classes are deliberately plain: :class:`Event` is a ``__slots__`` value
object (a frozen dataclass here costs a measurable fraction of total wall
time in allocation alone) and :class:`EventQueue` is a *calendar queue*: a
bucketed timeline keyed by cycle stamp with a small heap of distinct bucket
times.  The event streams HIL and Nanos++ generate are heavily clustered --
runs of worker completions and master jobs land on the same cycle -- so
nearly every operation is an O(1) dict hit plus a list append/index instead
of an O(log n) binary-heap sift per event; the heap only moves once per
*distinct* timestamp.  The previous binary-heap implementation is kept as
:class:`HeapEventQueue`, the reference the differential suite checks the
calendar queue against (see ``docs/engine.md``).

Cycle-identity contract
-----------------------

Every engine optimization must be *cycle-identical*: delivery order is by
time, then by scheduling order within a time, exactly as the heap
reference defines it, and no observable quantity (makespan, per-task
timelines, delivered-event counts) may move.  Three test nets pin the
contract:

* ``tests/test_differential.py`` fuzzes random schedule / pop / peek /
  ``pop_same_kind`` / ``iter_until`` interleavings through both queue
  implementations and asserts event-for-event identity (seed-pinned in
  CI with ``--hypothesis-seed=0``);
* ``tests/test_perf_parity.py`` digests full simulation results against
  golden values recorded from the pre-optimization engine;
* ``tests/test_sim_engine_worker_results.py`` pins the O(1)
  ``pop_same_kind`` miss path (a miss inspects only the head and mutates
  nothing -- see ``docs/engine.md``).
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)


class Event:
    """One scheduled event.

    A plain ``__slots__`` class rather than a dataclass: millions of these
    are allocated per experiment sweep, and skipping the dataclass
    ``__init__`` indirection and per-instance ``__dict__`` keeps event
    allocation off the profile.  Instances compare by value, like the
    frozen dataclass they replaced.
    """

    __slots__ = ("time", "kind", "payload")

    def __init__(self, time: int, kind: str, payload: Any = None) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"Event(time={self.time!r}, kind={self.kind!r}, payload={self.payload!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.payload))


class EventQueue:
    """Calendar-queue event timeline with deterministic tie-breaking.

    Events scheduled for the same time are delivered in scheduling order,
    which keeps every simulation in this package fully deterministic (a
    property the test suite relies on).  The delivery order -- by time,
    then by scheduling order within a time -- is exactly the order of the
    binary-heap reference (:class:`HeapEventQueue`); only the cost model
    differs.

    Internally, events live in per-timestamp *buckets* (plain lists in
    arrival order) and a min-heap tracks the distinct bucket times.  A
    bucket is detached from the calendar when delivery reaches its time and
    is then drained by index; an event scheduled for the *current* time
    while its bucket drains opens a fresh bucket, which the time heap
    orders immediately after the draining one -- preserving global FIFO
    order among simultaneous events.  ``pop_same_kind`` is an O(1) head
    test in every case, including the many-kinds-interleaved-at-one-cycle
    schedules where a scan-and-re-push implementation would degrade to
    O(n) per event.
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_current",
        "_current_pos",
        "_now",
        "_pending",
        "_processed",
    )

    def __init__(self) -> None:
        #: time -> events scheduled for that time, in scheduling order
        #: (buckets not yet reached by delivery).
        self._buckets: Dict[int, List[Event]] = {}
        #: Min-heap of the distinct times present in ``_buckets``.
        self._times: List[int] = []
        #: Bucket currently being drained, and the drain position.
        self._current: List[Event] = []
        self._current_pos = 0
        self._now = 0
        self._pending = 0
        self._processed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: int, kind: str, payload: Any = None) -> Event:
        """Schedule an event at absolute ``time``.

        Scheduling in the past is a simulation bug; it raises immediately so
        the offending simulator logic is easy to locate.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event {kind!r} at {time} before current time "
                f"{self._now}"
            )
        event = Event(time, kind, payload)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._pending += 1
        return event

    def schedule_in(self, delay: int, kind: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` cycles after the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, kind, payload)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time (time of the last event popped)."""
        return self._now

    @property
    def empty(self) -> bool:
        """Whether any event remains to be processed."""
        return self._pending == 0

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self._pending

    @property
    def processed(self) -> int:
        """Number of events delivered so far."""
        return self._processed

    def _head(self) -> Optional[Event]:
        """The next event to deliver, without consuming it.

        Purely a peek: a calendar bucket is only detached at consumption
        time (:meth:`_consume_head`).  Detaching on a peek would be wrong:
        until an event of a bucket is actually delivered the clock has not
        reached its time, so a handler may still schedule events at
        *earlier* times, which must overtake the peeked bucket.
        """
        if self._current_pos < len(self._current):
            return self._current[self._current_pos]
        if not self._times:
            return None
        return self._buckets[self._times[0]][0]

    def _consume_head(self) -> Event:
        """Deliver the head event (the caller checked one exists).

        Once the first event of a bucket is delivered the clock equals the
        bucket's time, scheduling anything earlier raises, and same-time
        arrivals open a fresh bucket ordered behind this one -- so the
        detached bucket is guaranteed to stay at the front until drained.
        """
        if self._current_pos >= len(self._current):
            time = heapq.heappop(self._times)
            self._current = self._buckets.pop(time)
            self._current_pos = 0
        event = self._current[self._current_pos]
        self._current_pos += 1
        self._pending -= 1
        self._now = event.time
        self._processed += 1
        return event

    @property
    def peek_time(self) -> Optional[int]:
        """Time of the next pending event (``None`` when the queue is empty)."""
        head = self._head()
        return None if head is None else head.time

    def pop(self) -> Optional[Event]:
        """Deliver the next event, advancing the simulation clock."""
        if self._head() is None:
            return None
        return self._consume_head()

    def pop_same_kind(self, kind: str, time: int) -> Optional[Event]:
        """Deliver the next event only if it matches ``kind`` at ``time``.

        A conditional :meth:`pop`: the head of the timeline -- including its
        FIFO tie-break -- decides, so a run of same-kind events at one cycle
        can be drained without disturbing the delivery order of any
        interleaved event.  The head test is O(1) regardless of how many
        same-time events of *other* kinds are interleaved behind it, and a
        miss is a pure peek that moves neither the clock nor any counter.
        No simulator calls it; the calendar-vs-heap differential fuzz keeps
        it in the engine's ordering contract.
        """
        event = self._head()
        if event is None or event.time != time or event.kind != kind:
            return None
        return self._consume_head()

    def dispatch(
        self,
        handlers: Mapping[str, Callable[[Any, int], None]],
        horizon: Optional[int] = None,
    ) -> None:
        """Drain the queue through a handler table (the fused hot loop).

        One loop delivers events and dispatches on their kind -- the inner
        loop shared by the HIL and Nanos++ simulators.  Fusing delivery and
        dispatch avoids a generator suspend/resume per event, which is a
        measurable fraction of wall time at hundreds of thousands of
        events per run; delivery order, clock movement and the processed
        count are exactly those of iterating and dispatching by hand
        (:func:`dispatch_events` over ``iter(queue)``), which the
        differential suite checks against the heap reference.  With
        ``horizon`` the loop stops -- events still queued -- once the next
        event is stamped past it, like :meth:`iter_until`.  Handlers run
        as ``handler(payload, time)``; an unknown kind raises.
        """
        get = handlers.get
        if horizon is not None:
            while True:
                event = self._head()
                if event is None or event.time > horizon:
                    return
                self._consume_head()
                handler = get(event.kind)
                if handler is None:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {event.kind!r}")
                handler(event.payload, event.time)
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        while True:
            # Re-read the draining bucket every iteration: a handler may
            # have consumed from it (pop_same_kind) or opened a fresh one.
            current = self._current
            pos = self._current_pos
            if pos < len(current):
                event = current[pos]
                self._current_pos = pos + 1
            else:
                if not times:
                    return
                time = heappop(times)
                current = buckets.pop(time)
                self._current = current
                self._current_pos = 1
                event = current[0]
            self._pending -= 1
            self._now = event.time
            self._processed += 1
            handler = get(event.kind)
            if handler is None:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {event.kind!r}")
            handler(event.payload, event.time)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over events until the queue drains."""
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        while True:
            current = self._current
            pos = self._current_pos
            if pos < len(current):
                event = current[pos]
                self._current_pos = pos + 1
            else:
                if not times:
                    return
                time = heappop(times)
                current = buckets.pop(time)
                self._current = current
                self._current_pos = 1
                event = current[0]
            self._pending -= 1
            self._now = event.time
            self._processed += 1
            yield event

    def iter_until(self, horizon: int) -> Iterator[Event]:
        """Iterate events stamped no later than ``horizon`` cycles.

        Later events stay queued, so a simulator can stop at a cycle
        horizon (early abort) and still inspect -- or resume -- the
        remaining schedule.  The clock only advances through delivered
        events and therefore never passes the horizon.
        """
        while True:
            event = self._head()
            if event is None or event.time > horizon:
                return
            yield self._consume_head()

    # ------------------------------------------------------------------
    # snapshot / restore (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def snapshot_events(self) -> Tuple[List[Event], List[Tuple[int, List[Event]]]]:
        """Non-destructive export of the pending schedule, in delivery order.

        Returns ``(current, buckets)``: the undelivered remainder of the
        detached draining bucket, and the calendar buckets as ``(time,
        events)`` pairs sorted by time.  This is purely a read -- unlike
        :meth:`_consume_head` it detaches nothing, so a peeked-but-unstarted
        bucket keeps its calendar slot and post-peek earlier schedules still
        overtake it.  Concatenating ``current`` with the sorted buckets is
        exactly the order :meth:`pop` would deliver (at most one bucket
        exists per distinct time, and every calendar bucket is stamped at or
        after the detached one).
        """
        current = self._current[self._current_pos :]
        buckets = [
            (time, list(self._buckets[time])) for time in sorted(self._buckets)
        ]
        return current, buckets

    def restore_events(
        self,
        now: int,
        processed: int,
        current: List[Event],
        buckets: List[Tuple[int, List[Event]]],
    ) -> None:
        """Rebuild the queue from a :meth:`snapshot_events` export.

        The detached bucket is reinstated normalized to drain position 0
        (delivery order only depends on the undelivered remainder), the
        calendar is rebuilt from the bucket pairs, and the distinct-times
        heap is recreated -- a sorted list is a valid binary min-heap, so no
        ``heapify`` is needed.  Clock and processed-count are restored
        verbatim so a resumed run schedules and counts exactly like the
        original.
        """
        self._now = now
        self._processed = processed
        self._current = list(current)
        self._current_pos = 0
        self._buckets = {time: list(events) for time, events in buckets}
        self._times = sorted(self._buckets)
        self._pending = len(self._current) + sum(
            len(events) for events in self._buckets.values()
        )


class HeapEventQueue:
    """The binary-heap reference implementation of the event queue.

    This is the pre-calendar-queue :class:`EventQueue`, kept verbatim: one
    ``(time, insertion count, event)`` tuple per event on a ``heapq``.  It
    defines the delivery order the calendar queue must reproduce exactly,
    and the differential suite (``tests/test_differential.py``) drives both
    implementations through random schedules and asserts event-for-event
    identity.  Simulators always use :class:`EventQueue`; this class exists
    for testing and as executable documentation of the ordering contract.
    """

    __slots__ = ("_heap", "_count", "_now", "_processed")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._count = 0
        self._now = 0
        self._processed = 0

    def schedule(self, time: int, kind: str, payload: Any = None) -> Event:
        """Schedule an event at absolute ``time`` (raises on the past)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event {kind!r} at {time} before current time "
                f"{self._now}"
            )
        event = Event(time, kind, payload)
        self._count += 1
        heapq.heappush(self._heap, (time, self._count, event))
        return event

    def schedule_in(self, delay: int, kind: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` cycles after the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, kind, payload)

    @property
    def now(self) -> int:
        return self._now

    @property
    def empty(self) -> bool:
        return not self._heap

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        return self._processed

    @property
    def peek_time(self) -> Optional[int]:
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        if not self._heap:
            return None
        time, _, event = heapq.heappop(self._heap)
        self._now = time
        self._processed += 1
        return event

    def pop_same_kind(self, kind: str, time: int) -> Optional[Event]:
        heap = self._heap
        if not heap:
            return None
        head = heap[0]
        if head[0] != time or head[2].kind != kind:
            return None
        heapq.heappop(heap)
        self._now = time
        self._processed += 1
        return head[2]

    def dispatch(
        self,
        handlers: Mapping[str, Callable[[Any, int], None]],
        horizon: Optional[int] = None,
    ) -> None:
        """Reference dispatch loop (plain iteration + table lookup)."""
        events = self.iter_until(horizon) if horizon is not None else iter(self)
        dispatch_events(events, handlers)

    def __iter__(self) -> Iterator[Event]:
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _, event = heappop(heap)
            self._now = time
            self._processed += 1
            yield event

    def iter_until(self, horizon: int) -> Iterator[Event]:
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= horizon:
            time, _, event = heappop(heap)
            self._now = time
            self._processed += 1
            yield event


def intercept_handlers(
    handlers: Mapping[str, Callable[[Any, int], None]],
    intercept: Callable[[str, Any, int, Callable[[Any, int], None]], None],
) -> Dict[str, Callable[[Any, int], None]]:
    """Route every delivery of a handler table through ``intercept``.

    The engine-side half of the fault-injection layer (see
    ``repro.faults``): returns a *new* table whose entries call
    ``intercept(kind, payload, time, original_handler)`` instead of the
    handler directly, leaving the interceptor free to withhold, defer or
    duplicate the delivery.  The input table is not mutated and dispatch
    itself is untouched, so a run that never wraps its table -- the
    default -- dispatches through exactly the same handlers as before;
    this is what keeps unfaulted runs cycle-identical (the injection
    layer is zero-cost when off).

    Interception sees every delivery because each simulator handler
    consumes exactly one event per call; a handler that drained further
    events itself (for example through :meth:`EventQueue.pop_same_kind`)
    would deliver them past the interceptor.
    """

    def make(
        kind: str, handler: Callable[[Any, int], None]
    ) -> Callable[[Any, int], None]:
        def deliver(payload: Any, time: int) -> None:
            intercept(kind, payload, time, handler)

        return deliver

    return {kind: make(kind, handler) for kind, handler in handlers.items()}


def dispatch_events(
    events: Iterable[Event],
    handlers: Mapping[str, Callable[[Any, int], None]],
) -> None:
    """Drive an event stream through a handler table.

    The shared inner loop of the HIL and Nanos++ simulators: one dict hit
    per event dispatches on its kind (no string-comparison ladder), and an
    unknown kind is a simulation bug that raises immediately.  Handlers
    are called as ``handler(payload, time)``; ``events`` is typically an
    :class:`EventQueue` (drain everything) or the iterator returned by
    :meth:`EventQueue.iter_until` (stop at a cycle horizon).
    """
    get = handlers.get
    for event in events:
        handler = get(event.kind)
        if handler is None:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown event kind {event.kind!r}")
        handler(event.payload, event.time)
