"""The three benchmark workloads, each driving public entry points.

Every workload has the same shape: ``setup()`` does the one-time work a
user pays before the first result (it is timed as ``setup_s``),
``iteration()`` runs the timed part once and checks its outputs, and
``teardown()`` releases what ``setup()`` built.  An iteration returns an
:class:`Iteration` holding its timings, its operation counts and the exact
work counts that must repeat bit for bit on every run of the same code.

The programs are fixed; the seed only picks the restore and fork points of
``stream-hw-snapshot``.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import PicosConfig
from repro.faults.scenario import parse_fault_spec
from repro.service import ServerConfig, SimulationServer
from repro.service.protocol import decode_frame, encode_frame
from repro.sim import request as request_module
from repro.sim import snapshot as snapshot_module
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.sim.session import open_session

#: Worker cores (threads for ``nanos``) of every workload.
WORKERS = 32
#: The service's default slice size, used by every sliced run.
SLICE_CYCLES = 250_000
#: A fault scenario that is armed but never fires: its window opens long
#: after the program has finished.
DORMANT_FAULT = "delay-event@window=10000000000..10000000001:class=ready"
#: ``stream-hw-snapshot`` captures after every this many slices.
CAPTURE_EVERY = 17
#: The fork doubles the DM-conflict stall from the prototype's 12 cycles.
FORK_STALL_CYCLES = 24
#: Requests each service client sends per iteration (one "wave").
REQUESTS_PER_CLIENT = 4
SERVICE_CLIENTS = 2
#: Client read limit: above the largest ``result`` frame (about 341 kB for
#: ``cholesky/64``), which the asyncio default of 64 KiB rejects.
CLIENT_READ_LIMIT = 16 * 1024 * 1024
#: A request that has not completed after this many seconds has failed.
REQUEST_TIMEOUT_S = 60.0

#: Known-good outputs of the programs above (cycle-exact simulator).
BATCH_MAKESPAN = 144_898_097
BATCH_EVENTS = 228_800
STREAM_MAKESPAN = 42_463_389
STREAM_FORK_MAKESPAN = 42_506_249
STREAM_SLICES = 170
STREAM_DM_CONFLICTS = 1_460
STREAM_TM_FULL_STALLS = 6_973
STREAM_CHAIN_HOPS = 18_957
SERVICE_MAKESPAN = 294_336_984
SERVICE_EVENTS = 17_952

#: Simulated counters summed over the runs an iteration completes.
COUNTER_KEYS = (
    "events_processed",
    "tasks_accepted",
    "dependences_processed",
    "dm_conflicts",
    "tm_full_stalls",
    "vm_full_stalls",
    "chain_hops",
    "dm_allocations",
    "faults_injected",
)
#: Watermark counters: the maximum over the runs, not the sum.
HIGH_WATER_KEYS = ("dm_high_water", "vm_high_water", "tm_high_water")


def cpu() -> float:
    return time.process_time()


@dataclasses.dataclass
class Iteration:
    """Timings, outcome and exact work counts of one timed iteration."""

    #: Process CPU seconds of the timed part.
    run_cpu_s: float = 0.0
    #: Timings in ms by kind, then by operation.  The same operation has
    #: the same key in every iteration, so a run can take each one's best.
    #: ``op`` is the unit operation (batch call, slice or request) and
    #: ``first`` the latency from a start to its first output; other kinds
    #: are workload-specific and printed under their own names.
    timings: Dict[str, Dict[Any, float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Machine-independent counts; equal on every run of the same code.
    work: Dict[str, int] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def time(self, kind: str, key: Any, ms: float) -> None:
        self.timings.setdefault(kind, {})[key] = ms

    def add_counters(self, counters: Dict[str, Any]) -> None:
        work = self.work
        for key in COUNTER_KEYS:
            work[key] = work.get(key, 0) + int(counters.get(key, 0))
        for key in HIGH_WATER_KEYS:
            work[key] = max(work.get(key, 0), int(counters.get(key, 0)))
        work["runs"] = work.get("runs", 0) + 1


def reset_program_memo() -> None:
    """Forget built programs so the next build is cold, as in a new process."""
    for name in ("_PROGRAM_MEMO", "_TRACE_DIGEST_MEMO"):
        memo = getattr(request_module, name, None)
        if memo is not None:
            memo.clear()


class Workload:
    """Base class: a named workload with an optional tracer for spans."""

    name = ""
    #: Whether the timed part runs inside the service (for ``server.*``).
    uses_server = False
    #: Timing kinds whose per-operation bests add up to ``run_cpu_s``.  When
    #: empty, ``run_cpu_s`` is the lowest iteration total.
    run_cpu_kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None

    def span(self, layer: str, name: str):
        """A span of the benchmark's own code (a no-op when not tracing)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer, name)

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> Iteration:
        raise NotImplementedError

    def verify(self) -> Iteration:
        """Untimed output checks run once, after the timed iterations."""
        return Iteration()

    def teardown(self) -> None:
        pass

    def close(self) -> None:
        """Release everything, including what outlives a set-up."""
        self.teardown()


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class BatchWorkload(Workload):
    """``simulate_request`` of ``cholesky/32`` on ``hil-full``, plain and armed.

    Each iteration makes two calls on the same cell: ``full`` with no fault
    plan and ``dormant-fault`` with :data:`DORMANT_FAULT` armed.  They are
    timed as separate operations, so each keeps its own best time.
    """

    name = "batch"
    run_cpu_kinds = ("op",)
    CELLS = (("full", None), ("dormant-fault", DORMANT_FAULT))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests: List[Tuple[str, SimulationRequest]] = []

    def setup(self) -> None:
        reset_program_memo()
        for cell, fault in self.CELLS:
            faults = (parse_fault_spec(fault),) if fault else ()
            request = SimulationRequest.for_workload(
                "cholesky", 32, backend="hil-full", num_workers=WORKERS, faults=faults
            ).normalize()
            request.build_program()
            self.requests.append((cell, request))

    def teardown(self) -> None:
        self.requests = []

    def iteration(self) -> Iteration:
        it = Iteration()
        start = cpu()
        for cell, request in self.requests:
            before = cpu()
            result = simulate_request(request)
            elapsed_ms = (cpu() - before) * 1e3
            it.time("op", cell, elapsed_ms)
            it.time("first", cell, elapsed_ms)
            counters = result.counters
            it.check(
                result.makespan == BATCH_MAKESPAN
                and counters["events_processed"] == BATCH_EVENTS
                and counters.get("faults_injected", 0) == 0,
                f"{cell} call: makespan {result.makespan}, events "
                f"{counters['events_processed']}, faults injected "
                f"{counters.get('faults_injected', 0)}",
            )
            it.work[f"{cell}.makespan"] = result.makespan
            it.add_counters(counters)
        it.run_cpu_s = cpu() - start
        return it


# ----------------------------------------------------------------------
# sliced session with snapshots
# ----------------------------------------------------------------------
class StreamWorkload(Workload):
    """``advance()`` slices of ``cholesky/32`` on ``hil-hw``, with snapshots."""

    name = "stream-hw-snapshot"
    run_cpu_kinds = ("op", "capture_ms")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        #: Indices into the mid-run snapshots (there are nine).
        self.restore_at = rng.randrange(STREAM_SLICES // CAPTURE_EVERY - 1)
        self.fork_at = rng.randrange(STREAM_SLICES // CAPTURE_EVERY - 1)
        self.request: Optional[SimulationRequest] = None
        #: The straight result of the last iteration and its seed-picked
        #: restore and fork snapshots, for verify().
        self.last_run: Optional[Tuple[Any, bytes, bytes]] = None

    def setup(self) -> None:
        reset_program_memo()
        request = SimulationRequest.for_workload(
            "cholesky", 32, backend="hil-hw", num_workers=WORKERS
        ).normalize()
        open_session(request).close()
        self.request = request

    def teardown(self) -> None:
        self.request = None

    def _to_bytes(self, session) -> Tuple[str, bytes]:
        snapshot = snapshot_module.capture(session)
        with self.span("snapshot", "to_bytes"):
            data = json.dumps(
                snapshot.document(), sort_keys=True, separators=(",", ":")
            ).encode()
        return snapshot.kind, data

    def _from_bytes(self, data: bytes):
        with self.span("snapshot", "from_bytes"):
            document = json.loads(data)
        return snapshot_module.SimulationSnapshot.from_document(document)

    def iteration(self) -> Iteration:
        it = Iteration()
        # Free the last iteration's snapshots first: their sizes depend on
        # the seed, and holding them would raise this iteration's peak RSS.
        self.last_run = None
        captured: List[Tuple[str, bytes]] = []
        session = open_session(self.request)
        slices = events = 0
        start = cpu()
        while True:
            before = cpu()
            piece = session.advance(SLICE_CYCLES)
            it.time("op", slices, (cpu() - before) * 1e3)
            slices += 1
            events += len(piece.events)
            if slices % CAPTURE_EVERY == 0:
                before = cpu()
                captured.append(self._to_bytes(session))
                it.time("capture_ms", slices, (cpu() - before) * 1e3)
            if piece.finished:
                break
        it.run_cpu_s = cpu() - start
        it.time("slice_loop_ms", 0, sum(it.timings["op"].values()))
        straight = session.result()
        session.close()
        counters = straight.counters
        it.check(
            slices == STREAM_SLICES
            and straight.makespan == STREAM_MAKESPAN
            and events == 3 * straight.num_tasks
            and counters["dm_conflicts"] == STREAM_DM_CONFLICTS
            and counters["tm_full_stalls"] == STREAM_TM_FULL_STALLS
            and counters["chain_hops"] == STREAM_CHAIN_HOPS,
            f"straight run: {slices} slices, makespan {straight.makespan}, "
            f"{events} events, counters {counters}",
        )
        it.add_counters(counters)
        it.attempted += len(captured)
        mid_run = [data for kind, data in captured if kind == "mid-run"]
        it.check(
            len(mid_run) == len(captured) - 1,
            f"expected every capture but the last to be mid-run, got "
            f"{[kind for kind, _ in captured]}",
        )

        # Restore every mid-run snapshot from bytes and fork the seed-picked
        # one, each up to its first slice: seed-independent timings.  The
        # runs to completion are checked once, by verify().
        for index, data in enumerate(mid_run):
            before = cpu()
            restored = snapshot_module.restore(self._from_bytes(data))
            it.time("restore_ms", index, (cpu() - before) * 1e3)
            restored.advance(SLICE_CYCLES)
            it.time("first", index, (cpu() - before) * 1e3)
            restored.close()
            it.attempted += 1
        if mid_run:
            before = cpu()
            forked = self._fork(mid_run[self.fork_at])
            it.time("fork_ms", 0, (cpu() - before) * 1e3)
            forked.advance(SLICE_CYCLES)
            it.time("first", "fork", (cpu() - before) * 1e3)
            forked.close()
            it.attempted += 1
        picked = max(self.restore_at, self.fork_at) < len(mid_run)
        it.check(picked, f"only {len(mid_run)} mid-run snapshots")
        if picked:
            self.last_run = (straight, mid_run[self.restore_at], mid_run[self.fork_at])

        it.work.update(
            makespan=straight.makespan,
            slices=slices,
            session_events=events,
            snapshots=len(captured),
            snapshot_bytes=sum(len(data) for _, data in captured),
        )
        return it

    def _fork(self, data: bytes):
        """A session resumed from ``data`` with a doubled DM-conflict stall."""
        config = dataclasses.replace(
            self.request.resolved_config() or PicosConfig(),
            dm_conflict_stall_cycles=FORK_STALL_CYCLES,
        )
        return snapshot_module.fork(self._from_bytes(data), config)

    def verify(self) -> Iteration:
        """Run the seed-picked restore and fork of the last iteration to completion."""
        it = Iteration()
        if self.last_run is None:
            return it
        straight, restore_data, fork_data = self.last_run
        resumed = snapshot_module.restore(self._from_bytes(restore_data))
        while not resumed.advance(SLICE_CYCLES).finished:
            pass
        result = resumed.result()
        resumed.close()
        it.check(
            result == straight,
            f"run restored from snapshot {self.restore_at} differs from "
            f"the straight run (makespan {result.makespan})",
        )
        forked = self._fork(fork_data)
        while not forked.advance(SLICE_CYCLES).finished:
            pass
        result = forked.result()
        forked.close()
        it.check(
            result.makespan == STREAM_FORK_MAKESPAN,
            f"fork of snapshot {self.fork_at}: makespan {result.makespan}",
        )
        return it


# ----------------------------------------------------------------------
# the service over loopback NDJSON
# ----------------------------------------------------------------------
#: The request every service client repeats.
SERVICE_REQUEST = {
    "workload": "cholesky",
    "block_size": 64,
    "backend": "nanos",
    "workers": WORKERS,
}


class _RequestFailed(Exception):
    pass


class ServiceWorkload(Workload):
    """Closed-loop NDJSON clients of an in-process ``SimulationServer``."""

    name = "service-nanos"
    uses_server = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.server: Optional[SimulationServer] = None
        self.connections: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._sequence = 0

    # -- plumbing -------------------------------------------------------
    async def _connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.server.tcp_port, limit=CLIENT_READ_LIMIT
        )
        hello = decode_frame(await reader.readline())
        if hello.get("type") != "hello":
            raise RuntimeError(f"unexpected greeting {hello}")
        return reader, writer

    @staticmethod
    async def _close(connection) -> None:
        """Say ``bye`` and wait for the server to hang up, then close."""
        reader, writer = connection
        with contextlib.suppress(ConnectionError, OSError, asyncio.TimeoutError):
            writer.write(encode_frame({"type": "bye"}))
            await writer.drain()
            while await asyncio.wait_for(reader.read(CLIENT_READ_LIMIT), REQUEST_TIMEOUT_S):
                pass
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()

    def _next_id(self, client: int) -> str:
        # Fixed-width ids keep the frame bytes identical on every run.
        self._sequence += 1
        return f"c{client}-{self._sequence:08d}"

    async def _request(self, client: int) -> Tuple[float, float, int, Dict[str, Any]]:
        """One open -> run -> events -> result round trip on ``client``."""
        reader, writer = self.connections[client]
        session_id = self._next_id(client)

        async def frame() -> Dict[str, Any]:
            line = await reader.readline()
            if not line:
                raise _RequestFailed("connection closed by the server")
            return decode_frame(line)

        sent = time.perf_counter()
        writer.write(
            encode_frame({"type": "open", "id": session_id, "request": SERVICE_REQUEST})
        )
        await writer.drain()
        reply = await frame()
        if reply["type"] != "accepted":
            raise _RequestFailed(f"open answered with {reply}")
        writer.write(encode_frame({"type": "run", "id": session_id}))
        await writer.drain()
        events = 0
        first = None
        frames = 0
        while True:
            reply = await frame()
            frames += 1
            if reply["type"] == "events":
                if first is None:
                    first = time.perf_counter() - sent
                events += len(reply["events"])
            elif reply["type"] == "result":
                latency = time.perf_counter() - sent
                result = reply["result"]
                if result["makespan"] != SERVICE_MAKESPAN or events != SERVICE_EVENTS:
                    raise _RequestFailed(
                        f"result makespan {result['makespan']} with {events} events"
                    )
                if first is None:
                    raise _RequestFailed("no events frame before the result")
                return latency, first, frames, result
            else:
                raise _RequestFailed(f"unexpected frame {reply}")

    async def _checked_request(self, client: int, position: int, it: Iteration) -> None:
        try:
            latency, first, frames, result = await asyncio.wait_for(
                self._request(client), REQUEST_TIMEOUT_S
            )
        except (_RequestFailed, asyncio.TimeoutError, ConnectionError, ValueError) as error:
            it.check(False, f"client {client}: {type(error).__name__}: {error}")
            # The connection's state is unknown after a failure: replace it.
            await self._close(self.connections[client])
            self.connections[client] = await self._connect()
            return
        it.check(True, "")
        it.time("op", (client, position), latency * 1e3)
        it.time("first", (client, position), first * 1e3)
        it.work["frames_in"] = it.work.get("frames_in", 0) + frames
        it.add_counters(result.get("counters", {}))

    # -- workload -------------------------------------------------------
    async def _setup(self) -> None:
        self.server = SimulationServer(
            ServerConfig(port=0, http_port=None, cache_dir=None)
        )
        await self.server.start()
        self.connections = [await self._connect() for _ in range(SERVICE_CLIENTS)]
        warm_up = Iteration()
        await self._checked_request(0, 0, warm_up)
        if warm_up.failed:
            raise RuntimeError(f"warm-up request failed: {warm_up.errors}")

    async def _teardown(self) -> None:
        for connection in self.connections:
            await self._close(connection)
        self.connections = []
        if self.server is not None:
            await self.server.shutdown(drain=False)
            self.server = None

    async def _wave(self) -> Iteration:
        it = Iteration()

        async def client(index: int) -> None:
            for position in range(REQUESTS_PER_CLIENT):
                await self._checked_request(index, position, it)

        wall = time.perf_counter()
        start = cpu()
        await asyncio.gather(*(client(index) for index in range(SERVICE_CLIENTS)))
        it.run_cpu_s = cpu() - start
        wall = time.perf_counter() - wall
        completed = it.attempted - it.failed
        it.time("wave_ms", 0, wall * 1e3)
        it.work["requests"] = completed
        return it

    def setup(self) -> None:
        reset_program_memo()
        self.loop.run_until_complete(self._setup())

    def iteration(self) -> Iteration:
        return self.loop.run_until_complete(self._wave())

    def teardown(self) -> None:
        self.loop.run_until_complete(self._teardown())

    def close(self) -> None:
        self.teardown()
        self.loop.close()


def make_workload(name: str, seed: int) -> Workload:
    if name == "batch":
        return BatchWorkload(seed)
    if name == "stream-hw-snapshot":
        return StreamWorkload(seed)
    if name == "service-nanos":
        return ServiceWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
