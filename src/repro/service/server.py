"""The asyncio simulation server.

One event loop, many simulations: every admitted request becomes a
:class:`~repro.sim.session.SimulationSession` advanced in bounded
cooperative slices (:meth:`SimulationSession.advance`), so a single server
process interleaves hundreds of long runs without threads and without
starving any of them.  Around that core:

* **Admission** (:mod:`repro.service.admission`): per-tenant concurrent-
  session quotas and server capacity are checked at open time with typed
  rejections; cycles-per-second quotas throttle running sessions between
  slices.
* **Backpressure**: each connection owns a bounded outbound frame queue
  drained by a writer task.  When a client stops reading, TCP flow control
  backs the writer up, the queue fills, and the session's runner blocks in
  ``queue.put`` -- pausing exactly that session while the loop keeps
  serving everyone else.
* **Lifecycle**: accepted-but-never-run sessions are evicted after an idle
  timeout (checkpointed to ``checkpoint_dir`` first, when configured, so
  the work survives the eviction), ``cancel`` frames (and disconnects)
  cancel mid-run sessions, and shutdown drains running sessions before
  closing.
* **Checkpoint/restore** (:mod:`repro.sim.snapshot`): the ``checkpoint``
  frame captures an accepted session into a portable snapshot document;
  the ``restore`` frame admits a *new* session from such a document --
  including snapshots taken mid-run by a CLI or library client -- and
  ``run`` then continues it bit-exactly from the captured cycle.
* **Shared cache** (:mod:`repro.service.cache`): read-through at run
  start, write-behind after completion, keyed by the request's
  content-addressed cache key -- multiple server processes pointing at one
  directory serve each other's results.
* **Metrics** (:mod:`repro.service.metrics`): counters and a slice-latency
  histogram, served over the TCP ``metrics`` frame and ``GET /metrics``.

Transports: the native NDJSON TCP protocol (see
:mod:`repro.service.protocol`) and a minimal HTTP adapter (``GET
/metrics``, ``GET /healthz``, ``POST /simulate`` answered as a
Server-Sent-Events stream) -- both stdlib-only.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple, Union

from repro.sim.request import SimulationRequest
from repro.sim.session import (
    DEFAULT_SLICE_CYCLES,
    SessionError,
    SimulationSession,
    lifecycle_events,
    open_session,
)
from repro.sim.snapshot import (
    SimulationSnapshot,
    SnapshotError,
    capture,
    restore as restore_snapshot,
    save_snapshot,
)
from repro.service.admission import AdmissionController, Rejection, TenantQuota
from repro.service.cache import SharedResultCache, service_cache_key
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    REJECT_BAD_REQUEST,
    REJECT_DUPLICATE_SESSION,
    REJECT_SESSION_STATE,
    REJECT_UNKNOWN_SESSION,
    decode_frame,
    encode_frame,
    events_to_document,
    request_from_document,
    result_to_document,
    task_from_document,
)
from repro.service.sessions import (
    ACCEPTED,
    CANCELLED,
    COMPLETED,
    EVICTED,
    FAILED,
    LIVE_STATES,
    RUNNING,
    ServiceSession,
    SessionRegistry,
)

#: Per-line read limit: generous enough for inline programs of tens of
#: thousands of tasks in one frame.
_READ_LIMIT = 16 * 1024 * 1024

#: Sentinel closing a connection's writer task.
_CLOSE_WRITER = None

#: Lifecycle events one served slice aims to return: one default
#: ``events`` frame (``ServerConfig.event_batch``).
SLICE_EVENT_TARGET = 512


def next_slice_budget(budget: int, delivered: int, cap: Optional[int]) -> int:
    """The cycle budget of a session's next slice.

    ``delivered`` is the number of lifecycle events the last slice of
    ``budget`` cycles returned.  Under half of :data:`SLICE_EVENT_TARGET`
    the budget doubles, over twice the target it halves (never below 1),
    otherwise it stays; ``cap`` (``None`` = unbounded) bounds the result.
    Events depend only on the simulation, so a request is sliced -- and
    framed -- the same way on every run.
    """
    if delivered < SLICE_EVENT_TARGET // 2:
        budget *= 2
    elif delivered > SLICE_EVENT_TARGET * 2:
        budget = max(1, budget // 2)
    return budget if cap is None else min(budget, cap)


def _save_checkpoint(snapshot: SimulationSnapshot, target: Path) -> None:
    """Synchronous checkpoint write (runs in ``asyncio.to_thread``)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    save_snapshot(snapshot, target)


@dataclass
class ServerConfig:
    """Everything a :class:`SimulationServer` needs to start."""

    host: str = "127.0.0.1"
    #: TCP (NDJSON) port; 0 picks an ephemeral port.
    port: int = 0
    #: HTTP adapter port; 0 picks an ephemeral port, ``None`` disables HTTP.
    http_port: Optional[int] = 0
    #: Shared result-cache directory (``None`` disables caching).
    cache_dir: Optional[Union[str, Path]] = None
    #: Server-wide concurrent-session cap (``None`` = unlimited).
    max_sessions: Optional[int] = None
    #: Default per-tenant quota (overridden per tenant via ``tenant_quotas``).
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: Upper bound on one cooperative slice's cycle budget for requests
    #: whose stream options set none (``None`` = unbounded).  Within it,
    #: each slice is sized by the events the last one returned
    #: (:func:`next_slice_budget`).
    slice_cycles: Optional[int] = None
    #: Maximum lifecycle events per streamed frame.
    event_batch: int = 512
    #: Outbound frame-queue depth per connection (the backpressure bound).
    buffer_frames: int = 16
    #: Seconds an accepted-but-never-run session may sit before eviction.
    idle_timeout: float = 300.0
    #: Directory idle-evicted sessions are checkpointed into before being
    #: dropped (``<session id>.json`` snapshot documents, restorable via
    #: the ``restore`` frame or the CLI's ``--restore``).  ``None``
    #: disables eviction-to-disk.
    checkpoint_dir: Optional[Union[str, Path]] = None
    #: Seconds shutdown waits for running sessions to finish before
    #: cancelling them.
    drain_timeout: float = 10.0


class SimulationServer:
    """One serving process: listeners, sessions, admission, cache, metrics."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            default_quota=self.config.default_quota,
            tenant_quotas=self.config.tenant_quotas,
            max_total_sessions=self.config.max_sessions,
        )
        self.registry = SessionRegistry()
        self.cache: Optional[SharedResultCache] = (
            SharedResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._cache_writes: Set[asyncio.Task] = set()
        self._shutting_down = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the listeners and start the idle-eviction sweeper."""
        config = self.config
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, config.host, config.port, limit=_READ_LIMIT
        )
        if config.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, config.host, config.http_port, limit=_READ_LIMIT
            )
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_idle())

    @property
    def tcp_port(self) -> int:
        assert self._tcp_server is not None and self._tcp_server.sockets
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        if self._http_server is None or not self._http_server.sockets:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain running sessions, close up."""
        self._shutting_down = True
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
        if drain:
            runners = [
                record.runner
                for record in self.registry.live_sessions()
                if record.runner is not None and not record.runner.done()
            ]
            if runners:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.gather(*runners, return_exceptions=True),
                        timeout=self.config.drain_timeout,
                    )
        # Whatever is still live now (not drained, or drain disabled) gets
        # cancelled; then the connection handlers themselves.
        for record in self.registry.live_sessions():
            await self._cancel_session(record, outcome=CANCELLED, notify=False)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._cache_writes:
            await asyncio.gather(*self._cache_writes, return_exceptions=True)
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                with contextlib.suppress(Exception):
                    await server.wait_closed()

    async def _sweep_idle(self) -> None:
        interval = max(0.05, min(self.config.idle_timeout / 4.0, 1.0))
        while True:
            await asyncio.sleep(interval)
            for record in self.registry.idle_candidates(self.config.idle_timeout):
                # Checkpoint before finish(): finishing closes the engine
                # session, after which nothing is left to capture.
                checkpoint_path = await self._evict_to_disk(record)
                record.finish(EVICTED)
                self.metrics.record_closed("evicted")
                if record.out is not None:
                    notice: Dict[str, Any] = {
                        "type": "evicted",
                        "id": record.session_id,
                    }
                    if checkpoint_path is not None:
                        notice["checkpoint"] = str(checkpoint_path)
                    with contextlib.suppress(asyncio.QueueFull):
                        record.out.put_nowait(notice)

    async def _evict_to_disk(self, record: ServiceSession) -> Optional[Path]:
        """Best-effort snapshot of an idle session about to be evicted."""
        directory = self.config.checkpoint_dir
        if directory is None:
            return None
        try:
            snapshot = capture(record.session)
            target = Path(directory) / f"{record.session_id}.json"
            await asyncio.to_thread(_save_checkpoint, snapshot, target)
            self.metrics.record_checkpoint()
            return target
        except Exception:
            # The eviction itself must proceed; a failed best-effort
            # checkpoint only costs the client the resumability.
            return None

    # ------------------------------------------------------------------
    # the NDJSON TCP transport
    # ------------------------------------------------------------------
    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        out: asyncio.Queue = asyncio.Queue(maxsize=self.config.buffer_frames)
        writer_task = asyncio.get_running_loop().create_task(
            self._drain_frames(out, writer, self._write_ndjson)
        )
        conn_sessions: Dict[str, ServiceSession] = {}
        try:
            await out.put({"type": "hello", "protocol": PROTOCOL_VERSION})
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await out.put(
                        {
                            "type": "error",
                            "code": REJECT_BAD_REQUEST,
                            "error": "frame exceeds the line limit",
                        }
                    )
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as error:
                    await out.put(
                        {"type": "error", "code": error.code, "error": str(error)}
                    )
                    continue
                if frame["type"] == "bye":
                    break
                await self._handle_frame(frame, conn_sessions, out)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            for record in list(conn_sessions.values()):
                if record.state in LIVE_STATES:
                    await self._cancel_session(record, outcome=CANCELLED, notify=False)
                self.registry.remove(record.session_id)
            await out.put(_CLOSE_WRITER)
            with contextlib.suppress(Exception):
                await writer_task
            with contextlib.suppress(Exception):
                writer.close()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _drain_frames(self, out: asyncio.Queue, writer, write_one) -> None:
        """Writer task: pop frames and put them on the wire.

        On a broken pipe the loop keeps *consuming* (and discarding)
        frames: a blocked session runner must never deadlock on the queue
        of a connection that already died -- it finishes its run into the
        void and releases its resources normally.
        """
        broken = False
        while True:
            frame = await out.get()
            if frame is _CLOSE_WRITER:
                return
            if broken:
                continue
            try:
                write_one(writer, frame)
                await writer.drain()
                self.metrics.record_frame()
            except (ConnectionResetError, BrokenPipeError, OSError):
                broken = True

    @staticmethod
    def _write_ndjson(writer: asyncio.StreamWriter, frame: Mapping[str, Any]) -> None:
        writer.write(encode_frame(frame))

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    async def _handle_frame(
        self,
        frame: Dict[str, Any],
        conn_sessions: Dict[str, ServiceSession],
        out: asyncio.Queue,
    ) -> None:
        kind = frame["type"]
        if kind == "ping":
            await out.put({"type": "pong", "protocol": PROTOCOL_VERSION})
            return
        if kind == "metrics":
            await out.put({"type": "metrics", "metrics": self.metrics.snapshot()})
            return
        if kind in ("open", "restore"):
            await self._handle_open(frame, conn_sessions, out)
            return
        # Everything below addresses an existing session of this connection.
        session_id = frame.get("id")
        record = (
            conn_sessions.get(session_id) if isinstance(session_id, str) else None
        )
        if record is None:
            await out.put(
                {
                    "type": "error",
                    "id": session_id,
                    "code": REJECT_UNKNOWN_SESSION,
                    "error": f"unknown session id {session_id!r}",
                }
            )
            return
        record.touch()
        if kind == "submit":
            await self._handle_submit(frame, record, out)
        elif kind == "run":
            await self._handle_run(record, out)
        elif kind == "stats":
            await self._handle_stats(record, out)
        elif kind == "checkpoint":
            await self._handle_checkpoint(record, out)
        elif kind == "cancel":
            await self._cancel_session(record, outcome=CANCELLED, notify=False)
            await out.put({"type": "cancelled", "id": record.session_id})
        else:
            await out.put(
                {
                    "type": "error",
                    "id": session_id,
                    "code": REJECT_BAD_REQUEST,
                    "error": f"unknown frame type {kind!r}",
                }
            )

    async def _handle_open(
        self,
        frame: Dict[str, Any],
        conn_sessions: Dict[str, ServiceSession],
        out: asyncio.Queue,
    ) -> None:
        """Admit an ``open`` or ``restore`` frame as a new session.

        The two differ only in where the engine session comes from (a
        request or a snapshot document) and in the acknowledgement frame.
        """
        session_id = frame.get("id")
        if not isinstance(session_id, str) or not session_id:
            session_id = self.registry.allocate_id()
        if session_id in self.registry:
            await out.put(
                {
                    "type": "rejected",
                    "id": session_id,
                    "code": REJECT_DUPLICATE_SESSION,
                    "error": f"session id {session_id!r} is already in use",
                }
            )
            self.metrics.record_rejected(REJECT_DUPLICATE_SESSION)
            return
        outcome: Union[ServiceSession, Tuple[ServiceSession, SimulationSnapshot], Rejection]
        if frame["type"] == "restore":
            outcome = self._admit_and_restore(frame.get("snapshot", {}), session_id)
        else:
            outcome = self._admit_and_open(frame.get("request", {}), session_id)
        if isinstance(outcome, Rejection):
            await out.put(
                {
                    "type": "rejected",
                    "id": session_id,
                    "code": outcome.code,
                    "error": outcome.message,
                    "tenant": outcome.tenant,
                    "limit": outcome.limit,
                }
            )
            return
        ack: Dict[str, Any]
        if isinstance(outcome, tuple):
            record, snapshot = outcome
            ack = {"type": "restored", "kind": snapshot.kind, "cycle": snapshot.cycle}
        else:
            record = outcome
            ack = {"type": "accepted"}
        record.out = out
        conn_sessions[session_id] = record
        await out.put({**ack, "id": session_id, "tenant": record.tenant})

    def _reject(self, code: str, error: Exception, tenant: str = "?") -> Rejection:
        """Count a refused admission and describe it as a ``Rejection``."""
        self.metrics.record_rejected(code)
        return Rejection(code=code, message=str(error), tenant=tenant)

    def _admit_and_open(
        self, request_document: Any, session_id: str
    ) -> Union[ServiceSession, Rejection]:
        """Decode + validate + admit + open; shared by TCP and HTTP."""
        try:
            request = request_from_document(request_document).normalize()
        except ProtocolError as error:
            return self._reject(error.code, error)
        except Exception as error:  # InvalidRequestError, UnknownBackendError...
            return self._reject(REJECT_BAD_REQUEST, error)
        return self._admit(session_id, request, lambda: open_session(request))

    def _admit_and_restore(
        self, snapshot_document: Any, session_id: str
    ) -> Union[Tuple[ServiceSession, SimulationSnapshot], Rejection]:
        """Decode a snapshot document, admit its tenant, rebuild the session.

        The restored session is a *new* admission -- it consumes a quota
        slot like any ``open`` would -- but its engine session resumes at
        the captured cycle, so ``run`` continues the original run
        bit-exactly instead of starting over.
        """
        try:
            snapshot = SimulationSnapshot.from_document(snapshot_document)
            request = request_from_document(snapshot.request).normalize()
        except (SnapshotError, ProtocolError) as error:
            return self._reject(getattr(error, "code", None) or REJECT_BAD_REQUEST, error)
        except Exception as error:
            return self._reject(REJECT_BAD_REQUEST, error)
        record = self._admit(session_id, request, lambda: restore_snapshot(snapshot))
        if isinstance(record, Rejection):
            return record
        record.restored = True
        self.metrics.record_restored()
        return record, snapshot

    def _admit(
        self,
        session_id: str,
        request: SimulationRequest,
        build: Callable[[], SimulationSession],
    ) -> Union[ServiceSession, Rejection]:
        """Admit the request's tenant, build its session and register it.

        A failed build hands the admitted quota slot back.
        """
        admitted = self.admission.admit(request.tenant, faulted=bool(request.faults))
        if isinstance(admitted, Rejection):
            self.metrics.record_rejected(admitted.code)
            return admitted
        try:
            session = build()
        except Exception as error:
            admitted.release()
            return self._reject(REJECT_BAD_REQUEST, error, request.tenant)
        record = self.registry.add(session_id, request.tenant, session, admitted)
        self.metrics.record_admitted()
        if request.faults:
            self.metrics.record_faulted_session()
        return record

    async def _handle_checkpoint(
        self, record: ServiceSession, out: asyncio.Queue
    ) -> None:
        """Capture an accepted session into a portable snapshot document.

        Only ``accepted`` sessions can be checkpointed here: a running
        session's engine state is owned by its runner task mid-slice, and
        terminal states have already released (closed) the engine session.
        """
        if record.state != ACCEPTED:
            await out.put(
                {
                    "type": "error",
                    "id": record.session_id,
                    "code": REJECT_SESSION_STATE,
                    "error": f"cannot checkpoint a session in state {record.state!r}",
                }
            )
            return
        try:
            snapshot = capture(record.session)
        except SnapshotError as error:
            await out.put(
                {
                    "type": "error",
                    "id": record.session_id,
                    "code": REJECT_SESSION_STATE,
                    "error": str(error),
                }
            )
            return
        self.metrics.record_checkpoint()
        await out.put(
            {
                "type": "checkpoint",
                "id": record.session_id,
                "kind": snapshot.kind,
                "cycle": snapshot.cycle,
                "digest": snapshot.digest,
                "snapshot": snapshot.document(),
            }
        )

    async def _handle_submit(
        self, frame: Dict[str, Any], record: ServiceSession, out: asyncio.Queue
    ) -> None:
        tasks = frame.get("tasks")
        if not isinstance(tasks, list):
            await out.put(
                {
                    "type": "error",
                    "id": record.session_id,
                    "code": REJECT_BAD_REQUEST,
                    "error": "'tasks' must be a list of task documents",
                }
            )
            return
        try:
            for entry in tasks:
                record.session.submit(task_from_document(entry))
        except (ProtocolError, SessionError) as error:
            code = error.code if isinstance(error, ProtocolError) else REJECT_SESSION_STATE
            await out.put(
                {
                    "type": "error",
                    "id": record.session_id,
                    "code": code,
                    "error": str(error),
                }
            )
            return
        await out.put(
            {"type": "submitted", "id": record.session_id, "count": len(tasks)}
        )

    async def _handle_run(self, record: ServiceSession, out: asyncio.Queue) -> None:
        if record.state != ACCEPTED:
            await out.put(
                {
                    "type": "error",
                    "id": record.session_id,
                    "code": REJECT_SESSION_STATE,
                    "error": f"cannot run a session in state {record.state!r}",
                }
            )
            return
        record.state = RUNNING
        record.runner = asyncio.get_running_loop().create_task(
            self._run_session(record, out)
        )

    async def _handle_stats(self, record: ServiceSession, out: asyncio.Queue) -> None:
        stats = record.session.stats()
        await out.put(
            {
                "type": "stats",
                "id": record.session_id,
                "state": record.state,
                "session": {
                    "state": stats.state,
                    "tasks_submitted": stats.tasks_submitted,
                    "events_delivered": stats.events_delivered,
                    "tasks_ready": stats.tasks_ready,
                    "tasks_retired": stats.tasks_retired,
                    "current_cycle": stats.current_cycle,
                    "makespan": stats.makespan,
                },
            }
        )

    # ------------------------------------------------------------------
    # the session runner
    # ------------------------------------------------------------------
    def _stream_parameters(
        self, request: SimulationRequest
    ) -> Tuple[Optional[int], int, bool]:
        """``(slice cap, event batch, emit events)`` of one request.

        The cap bounds every slice's cycle budget (``None`` = unbounded):
        the request's ``stream.slice_cycles``, else the server's
        ``slice_cycles``, and never more than a throttled tenant's bucket
        capacity, so a throttled slice waits about a second at most.
        """
        stream = request.stream
        slice_cap = self.config.slice_cycles
        event_batch = self.config.event_batch
        emit_events = True
        if stream is not None:
            if stream.slice_cycles is not None:
                slice_cap = stream.slice_cycles
            if stream.event_batch is not None:
                event_batch = stream.event_batch
            emit_events = stream.events
        bucket = self.admission.quota_for(request.tenant).bucket_cycles
        if bucket is not None:
            bucket_cap = max(1, int(bucket))
            slice_cap = bucket_cap if slice_cap is None else min(slice_cap, bucket_cap)
        return slice_cap, event_batch, emit_events

    async def _run_session(self, record: ServiceSession, out: asyncio.Queue) -> None:
        """Drive one session to completion in cooperative slices.

        The first slice runs :data:`DEFAULT_SLICE_CYCLES` cycles (or the
        cap, if smaller); every later budget follows
        :func:`next_slice_budget` from the events the last slice returned.
        """
        session = record.session
        slice_cap, event_batch, emit_events = self._stream_parameters(
            session.request
        )
        budget = (
            DEFAULT_SLICE_CYCLES
            if slice_cap is None
            else min(DEFAULT_SLICE_CYCLES, slice_cap)
        )
        session_id = record.session_id
        faulted = bool(session.request.faults)
        try:
            result = None
            cached = False
            if self.cache is not None and not record.restored and not faulted:
                # Restored sessions bypass the read-through: a cache hit
                # would replay the whole event stream, but a mid-run
                # restore owes the client only the cycles after the
                # captured boundary.  Write-behind below still applies --
                # the finished run's result is cache-identical either way.
                # Faulted sessions skip the cache entirely (read and
                # write): FaultInjected/FaultRecovered events exist only
                # in the live lifecycle stream, so a cached replay would
                # silently drop them.
                record.cache_key = service_cache_key(session.request)
                result = await asyncio.to_thread(self.cache.get, record.cache_key)
                cached = result is not None
                self.metrics.record_cache(cached)
            if result is not None:
                events = lifecycle_events(result) if emit_events else []
            else:
                events = None  # streamed slice by slice below
                while True:
                    delay = self.admission.slice_delay(record.tenant, budget)
                    if delay > 0.0:
                        self.metrics.throttle_seconds += delay
                        await asyncio.sleep(delay)
                    started = time.perf_counter()
                    sim_slice = session.advance(budget)
                    self.metrics.record_slice(time.perf_counter() - started)
                    record.touch()
                    if emit_events and sim_slice.events:
                        await self._stream_events(
                            session_id, sim_slice.events, event_batch, out
                        )
                    if sim_slice.finished:
                        break
                    budget = next_slice_budget(
                        budget, len(sim_slice.events), slice_cap
                    )
                    # Yield between slices even when nothing was streamed,
                    # so same-loop peers always get a turn.
                    await asyncio.sleep(0)
                result = session.result()
                if self.cache is not None and not faulted:
                    if record.cache_key is None:
                        record.cache_key = service_cache_key(session.request)
                    self._write_behind(record.cache_key, result)
            if faulted:
                self.metrics.record_fault_events(
                    int(result.counters.get("faults_injected", 0)),
                    int(result.counters.get("faults_recovered", 0)),
                )
            if events:
                await self._stream_events(session_id, events, event_batch, out)
            await out.put(
                {
                    "type": "result",
                    "id": session_id,
                    "cached": cached,
                    "result": result_to_document(result),
                }
            )
            record.finish(COMPLETED)
            self.metrics.record_closed("completed")
        except asyncio.CancelledError:
            # The canceller (cancel frame, disconnect, shutdown) does the
            # state accounting; just stop computing.
            raise
        except Exception as error:
            record.finish(FAILED)
            self.metrics.record_closed("failed")
            with contextlib.suppress(asyncio.QueueFull):
                out.put_nowait(
                    {
                        "type": "error",
                        "id": session_id,
                        "code": "simulation-failed",
                        "error": f"{type(error).__name__}: {error}",
                    }
                )

    async def _stream_events(
        self, session_id: str, events, event_batch: int, out: asyncio.Queue
    ) -> None:
        for start in range(0, len(events), event_batch):
            chunk = events[start : start + event_batch]
            await out.put(
                {
                    "type": "events",
                    "id": session_id,
                    "events": events_to_document(chunk),
                }
            )
            self.metrics.record_events(len(chunk))

    def _write_behind(self, key: str, result) -> None:
        """Persist a result without making the client wait for the disk."""
        cache = self.cache
        assert cache is not None

        async def _write() -> None:
            try:
                await asyncio.to_thread(cache.put, key, result)
                self.metrics.cache_writes += 1
            except Exception:
                # A failed cache write must never surface to the client;
                # the next identical request simply misses.
                pass

        task = asyncio.get_running_loop().create_task(_write())
        self._cache_writes.add(task)
        task.add_done_callback(self._cache_writes.discard)

    async def _cancel_session(
        self, record: ServiceSession, *, outcome: str, notify: bool
    ) -> None:
        """Stop a session's runner (if any) and settle its accounting."""
        runner = record.runner
        if runner is not None and not runner.done():
            runner.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await runner
        if record.state in LIVE_STATES:
            record.finish(outcome)
            self.metrics.record_closed(
                "cancelled" if outcome == CANCELLED else "evicted"
            )
        if notify and record.out is not None:
            with contextlib.suppress(asyncio.QueueFull):
                record.out.put_nowait(
                    {"type": outcome, "id": record.session_id}
                )

    # ------------------------------------------------------------------
    # the HTTP adapter
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            request_line = await reader.readline()
            parts = request_line.split()
            if len(parts) < 2:
                return
            method, path = parts[0].decode("latin-1"), parts[1].decode("latin-1")
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if not request_line.isascii():
                self._http_json(
                    writer,
                    400,
                    {"code": REJECT_BAD_REQUEST, "error": "the request line is not ASCII"},
                )
            elif method == "GET" and path == "/metrics":
                self._http_json(writer, 200, self.metrics.snapshot())
            elif method == "GET" and path == "/healthz":
                self._http_json(
                    writer,
                    200,
                    {
                        "status": "ok",
                        "protocol": PROTOCOL_VERSION,
                        "active_sessions": self.admission.active_sessions(),
                    },
                )
            elif method == "POST" and path == "/simulate":
                # The declared length is client input: bound it before
                # reading, so no request can make the server buffer more
                # than one NDJSON frame may hold.
                declared = headers.get("content-length", "0") or "0"
                length = (
                    int(declared) if declared.isascii() and declared.isdigit() else -1
                )
                if not 0 <= length <= _READ_LIMIT:
                    self._http_json(
                        writer,
                        400,
                        {
                            "code": REJECT_BAD_REQUEST,
                            "error": f"Content-Length {declared!r} is not an "
                            f"integer in 0..{_READ_LIMIT}",
                        },
                    )
                else:
                    body = await reader.readexactly(length) if length else b""
                    await self._http_simulate(body, writer)
            else:
                self._http_json(writer, 404, {"error": f"no route {method} {path}"})
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            if task is not None:
                self._conn_tasks.discard(task)

    @staticmethod
    def _http_json(
        writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests"}
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )

    async def _http_simulate(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """``POST /simulate``: run one request, answer as an SSE stream."""
        try:
            document = json.loads(body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
            self._http_json(writer, 400, {"code": REJECT_BAD_REQUEST, "error": str(error)})
            return
        session_id = self.registry.allocate_id()
        outcome = self._admit_and_open(document, session_id)
        if isinstance(outcome, Rejection):
            status = 400 if outcome.code == REJECT_BAD_REQUEST else 429
            self._http_json(
                writer,
                status,
                {"code": outcome.code, "error": outcome.message, "tenant": outcome.tenant},
            )
            return
        record = outcome
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        out: asyncio.Queue = asyncio.Queue(maxsize=self.config.buffer_frames)
        record.out = out
        writer_task = asyncio.get_running_loop().create_task(
            self._drain_frames(out, writer, self._write_sse)
        )
        await out.put({"type": "accepted", "id": session_id, "tenant": record.tenant})
        record.state = RUNNING
        record.runner = asyncio.get_running_loop().create_task(
            self._run_session(record, out)
        )
        try:
            await asyncio.shield(record.runner)
        except (asyncio.CancelledError, Exception):
            pass
        finally:
            if record.state in LIVE_STATES:
                await self._cancel_session(record, outcome=CANCELLED, notify=False)
            self.registry.remove(session_id)
            await out.put(_CLOSE_WRITER)
            with contextlib.suppress(Exception):
                await writer_task

    @staticmethod
    def _write_sse(writer: asyncio.StreamWriter, frame: Mapping[str, Any]) -> None:
        payload = json.dumps(frame, separators=(",", ":"), sort_keys=True)
        writer.write(f"event: {frame.get('type', 'message')}\ndata: {payload}\n\n".encode())


# ----------------------------------------------------------------------
# foreground entry point (the CLI's `picos-experiment serve`)
# ----------------------------------------------------------------------
async def serve_until_interrupted(config: ServerConfig, *, announce=print) -> None:
    """Start a server, announce its endpoints, and run until SIGINT/SIGTERM.

    The announce lines are stable and parseable (the smoke tooling reads
    the chosen ephemeral ports from them)::

        serving ndjson on 127.0.0.1:40001
        serving http on 127.0.0.1:40002
    """
    server = SimulationServer(config)
    await server.start()
    announce(f"serving ndjson on {config.host}:{server.tcp_port}", flush=True)
    if server.http_port is not None:
        announce(f"serving http on {config.host}:{server.http_port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        await server.shutdown(drain=True)
    announce("server stopped", flush=True)
