"""A small discrete-event simulation engine.

The Hardware-In-the-Loop platform and the Nanos++ software-only model are
both driven by the same minimal engine: a time-ordered event queue with
stable FIFO ordering for simultaneous events.  A queued event is a plain
``(kind, payload)`` pair in the bucket of its time; the simulators dispatch
on ``kind`` through a handler table, which keeps the engine free of any
domain knowledge.

The engine sits on the hot path of every simulation -- the finest-grained
workloads deliver hundreds of thousands of events per run -- so
:class:`EventQueue` is a *calendar queue*: a bucketed timeline keyed by
cycle stamp with a small heap of distinct bucket times.  The event streams
HIL and Nanos++ generate are heavily clustered -- runs of worker
completions and master jobs land on the same cycle -- so nearly every
operation is an O(1) dict hit plus a list append or index instead of an
O(log n) binary-heap sift per event; the heap only moves once per
*distinct* timestamp (see ``docs/engine.md``).

Cycle-identity contract
-----------------------

Delivery order is by time, then by scheduling order within a time, and no
engine change may move an observable quantity (makespan, per-task
timelines, delivered-event counts).  Four test nets pin the contract:

* ``tests/test_differential.py`` fuzzes schedules, horizons and same-cycle
  follow-ups through :meth:`EventQueue.dispatch` against a list-and-``min``
  model of the ordering contract (seed-pinned in CI with
  ``--hypothesis-seed=0``);
* ``tests/test_perf_parity.py`` digests full simulation results against
  golden values recorded from the pre-optimization engine;
* ``tests/test_sim_engine_worker_results.py`` pins the per-bucket horizon
  rule and the O(1) ``pop_same_kind`` miss path;
* ``tests/test_hil_master.py`` pins post-peek overtaking end to end: a
  zero-cost master job scheduled at the current cycle after a peek.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple


class EventQueue:
    """Calendar-queue event timeline with deterministic tie-breaking.

    Events scheduled for the same time are delivered in scheduling order,
    which keeps every simulation in this package fully deterministic (a
    property the test suite relies on).

    Events live in per-timestamp *buckets* (lists of ``(kind, payload)``
    pairs in arrival order) and a min-heap tracks the distinct bucket
    times.  Delivery detaches a bucket from the calendar when it reaches
    the bucket's time and drains it by index; an event scheduled for the
    *current* time while its bucket drains opens a fresh bucket, which the
    time heap orders immediately after the draining one -- preserving
    global FIFO order among simultaneous events.
    """

    __slots__ = ("_buckets", "_times", "_current", "_current_pos", "_now", "_processed")

    def __init__(self) -> None:
        #: time -> ``(kind, payload)`` pairs scheduled for that time, in
        #: scheduling order (buckets not yet reached by delivery).
        self._buckets: Dict[int, List[Tuple[str, Any]]] = {}
        #: Min-heap of the distinct times present in ``_buckets``.
        self._times: List[int] = []
        #: Bucket being drained (every event in it is stamped ``_now``),
        #: and the drain position.
        self._current: List[Tuple[str, Any]] = []
        self._current_pos = 0
        self._now = 0
        self._processed = 0

    def schedule(self, time: int, kind: str, payload: Any = None) -> None:
        """Schedule an event at absolute ``time``.

        Scheduling in the past is a simulation bug; it raises immediately so
        the offending simulator logic is easy to locate.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event {kind!r} at {time} before current time "
                f"{self._now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(kind, payload)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((kind, payload))

    @property
    def now(self) -> int:
        """Current simulation time (the time of the last delivered event)."""
        return self._now

    @property
    def empty(self) -> bool:
        """Whether no event remains, in the draining bucket or the calendar."""
        return self._current_pos == len(self._current) and not self._times

    @property
    def processed(self) -> int:
        """Number of events delivered so far."""
        return self._processed

    @property
    def peek_time(self) -> Optional[int]:
        """Time of the next pending event (``None`` when the queue is empty).

        A pure read: a calendar bucket is only detached when its first event
        is delivered.  Until then the clock has not reached its time, so a
        handler may still schedule events at *earlier* times, and those must
        overtake the peeked bucket.
        """
        if self._current_pos < len(self._current):
            return self._now
        return self._times[0] if self._times else None

    def pop_same_kind(self, kind: str, time: int) -> Optional[Tuple[str, Any]]:
        """Deliver the next event only if it is ``kind`` at ``time``.

        Returns the delivered ``(kind, payload)`` pair.  The head of the
        timeline -- including its FIFO tie-break -- decides, so a run of
        same-kind events at one cycle can be drained without disturbing the
        order of any interleaved event.  The test is O(1) however many
        same-time events of other kinds wait behind the head, and a miss
        returns ``None`` and moves neither the clock nor any counter.  No
        simulator calls it; the repository benchmark's traced run wraps it
        by name.
        """
        if self._current_pos < len(self._current):
            if self._now != time or self._current[self._current_pos][0] != kind:
                return None
        elif not self._times or self._times[0] != time or self._buckets[time][0][0] != kind:
            return None
        else:
            heapq.heappop(self._times)
            self._current = self._buckets.pop(time)
            self._current_pos = 0
            self._now = time
        event = self._current[self._current_pos]
        self._current_pos += 1
        self._processed += 1
        return event

    def dispatch(
        self,
        handlers: Mapping[str, Callable[[Any, int], None]],
        horizon: Optional[int] = None,
    ) -> None:
        """Deliver events through a handler table: the engine's one loop.

        Each event runs ``handlers[kind](payload, time)``; an unknown kind
        raises.  The loop drains the detached bucket by index and, when it
        runs dry, detaches the earliest calendar bucket, moving the clock to
        its time.  ``horizon`` is tested there, once per bucket, since every
        event in a bucket has that time: the loop returns, leaving the
        bucket attached, when nothing is queued or the next bucket is
        stamped past ``horizon``.  An event a handler schedules at the
        current cycle opens a fresh bucket and is delivered in the same
        call; an event scheduled after a stop at an earlier time than the
        next bucket overtakes it.
        """
        get = handlers.get
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        while True:
            # Re-read the draining bucket every iteration: a handler may
            # have consumed from it (pop_same_kind).
            current = self._current
            pos = self._current_pos
            if pos < len(current):
                self._current_pos = pos + 1
                time = self._now
            else:
                if not times:
                    return
                time = times[0]
                if horizon is not None and time > horizon:
                    return
                heappop(times)
                current = self._current = buckets.pop(time)
                pos = 0
                self._current_pos = 1
                self._now = time
            kind, payload = current[pos]
            self._processed += 1
            handler = get(kind)
            if handler is None:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
            handler(payload, time)

    # ------------------------------------------------------------------
    # snapshot / restore (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def snapshot_events(
        self,
    ) -> Tuple[List[Tuple[str, Any]], List[Tuple[int, List[Tuple[str, Any]]]]]:
        """Non-destructive export of the pending schedule, in delivery order.

        Returns ``(current, buckets)``: the undelivered remainder of the
        draining bucket (stamped :attr:`now`) and the calendar buckets as
        ``(time, events)`` pairs sorted by time, every event a ``(kind,
        payload)`` pair.  Purely a read -- it detaches nothing, so a peeked
        bucket keeps its calendar slot.  Concatenating ``current`` with the
        sorted buckets is exactly the delivery order.
        """
        current = self._current[self._current_pos :]
        buckets = [(time, list(self._buckets[time])) for time in sorted(self._buckets)]
        return current, buckets

    def restore_events(
        self,
        now: int,
        processed: int,
        buckets: List[Tuple[int, List[Tuple[str, Any]]]],
    ) -> None:
        """Rebuild the queue from the calendar half of a :meth:`snapshot_events` export.

        Snapshots are taken between dispatch calls, which drain every bucket
        they detach, so the draining bucket restores empty.  ``buckets``
        must hold distinct times, each with at least one event (the snapshot
        schema checks both).  The distinct-times heap is recreated -- a
        sorted list is a valid binary min-heap, so no ``heapify`` is needed.
        Clock and processed count are restored verbatim so a resumed run
        schedules and counts exactly like the original.
        """
        self._now = now
        self._processed = processed
        self._current = []
        self._current_pos = 0
        self._buckets = {time: list(events) for time, events in buckets}
        self._times = sorted(self._buckets)


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
