"""Wire protocol of the simulation service: frames and document codecs.

The native transport is newline-delimited JSON (NDJSON) over TCP: every
frame is one JSON object on one line, client and server each write complete
lines only.  The same frame dictionaries travel over the HTTP adapter as
Server-Sent Events (``event: <type>`` / ``data: <frame>``), so this module
is transport-agnostic: it only defines how Python values become JSON-safe
documents and back.

Client frames
-------------
``{"type": "open", "id": <str>, "request": <request document>}``
    Open a session.  Answered by ``accepted`` or ``rejected``.
``{"type": "submit", "id": ..., "tasks": [<task document>, ...]}``
    Stream more tasks into an open session (online arrival).
``{"type": "run", "id": ...}``
    Seal the session and start the sliced run; event/result frames follow.
``{"type": "cancel", "id": ...}``
    Cancel the session (idempotent); answered by ``cancelled``.
``{"type": "stats", "id": ...}`` / ``{"type": "metrics"}`` / ``{"type": "ping"}``
    Introspection; answered by ``stats`` / ``metrics`` / ``pong``.

Server frames
-------------
``{"type": "accepted", "id": ..., "cache_key": <str or null>}``
``{"type": "rejected", "id": ..., "code": <rejection code>, "error": ...}``
``{"type": "events", "id": ..., "events": [[cycle, kind, task_id], ...]}``
    ``kind`` is the compact order code (0 = submitted, 1 = ready,
    2 = retired), matching the in-cycle delivery order of the session API.
``{"type": "result", "id": ..., "cached": <bool>, "result": <result doc>}``
``{"type": "cancelled"|"evicted", "id": ...}``
``{"type": "error", "id": ..., "error": ...}``

Every rejection carries a typed ``code`` from the ``REJECT_*`` constants,
so clients can distinguish quota pressure (retry later) from malformed
requests (do not retry).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.faults.scenario import (
    FaultConfigurationError,
    faults_from_documents,
)
from repro.runtime.overhead import NanosOverheadModel
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.request import DEFAULT_TENANT, SimulationRequest, StreamOptions
from repro.sim.results import SimulationResult, TaskTimeline
from repro.sim.session import SessionEvent, _EVENT_ORDER

#: Version tag spoken in ``hello``/``pong`` frames and stored in cached
#: service documents.
PROTOCOL_VERSION = 1

# Typed rejection codes (the ``code`` field of a ``rejected`` frame).
REJECT_BAD_REQUEST = "bad-request"
REJECT_SESSION_QUOTA = "session-quota-exceeded"
REJECT_SERVER_CAPACITY = "server-capacity-exceeded"
REJECT_DUPLICATE_SESSION = "duplicate-session-id"
REJECT_UNKNOWN_SESSION = "unknown-session-id"
REJECT_SESSION_STATE = "session-state"
REJECT_FAULTS_FORBIDDEN = "faults-forbidden"


class ProtocolError(ValueError):
    """A frame or document could not be decoded; carries a rejection code."""

    def __init__(self, message: str, code: str = REJECT_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One NDJSON wire frame (compact JSON + newline)."""
    return json.dumps(frame, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a frame dictionary."""
    try:
        frame = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProtocolError(f"invalid JSON frame: {error}") from error
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("a frame must be a JSON object with a string 'type'")
    return frame


# ----------------------------------------------------------------------
# request documents
# ----------------------------------------------------------------------
def request_to_document(request: SimulationRequest) -> Dict[str, Any]:
    """Render a request as a JSON-safe document (client side).

    Inline programs are serialised task by task; workload references stay
    declarative.  ``request_from_document`` inverts this exactly.
    """
    document: Dict[str, Any] = {
        "backend": request.backend,
        "workers": request.num_workers,
    }
    program = request.program
    if hasattr(program, "workload"):
        document["workload"] = program.workload
        if program.block_size is not None:
            document["block_size"] = program.block_size
        if program.problem_size is not None:
            document["problem_size"] = program.problem_size
    else:
        built = program.build()
        document["name"] = built.name
        document["tasks"] = [task_to_document(task) for task in built]
    if request.policy is not SchedulingPolicy.FIFO:
        document["policy"] = request.policy.value
    if request.dm_design is not None:
        document["dm_design"] = request.dm_design.value
    if request.config is not None:
        document["config"] = _config_to_document(request.config)
    if request.overhead is not None:
        document["overhead"] = dataclasses.asdict(request.overhead)
    if request.seed is not None:
        document["seed"] = request.seed
    if request.faults:
        document["faults"] = [scenario.to_document() for scenario in request.faults]
    if request.tenant != DEFAULT_TENANT:
        document["tenant"] = request.tenant
    if request.stream is not None:
        document["stream"] = {
            key: value
            for key, value in dataclasses.asdict(request.stream).items()
            if value is not None
        }
    return document


def request_from_document(document: Mapping[str, Any]) -> SimulationRequest:
    """Decode a request document into a typed :class:`SimulationRequest`.

    Raises :class:`ProtocolError` (code ``bad-request``) on anything
    malformed; backend-side validation (unknown backend, unaccepted
    parameters) is left to ``request.normalize()`` so the server can map
    those failures to the same rejection code.
    """
    if not isinstance(document, Mapping):
        raise ProtocolError("request must be a JSON object")
    known = {
        "workload", "block_size", "problem_size", "name", "tasks",
        "backend", "workers", "policy", "dm_design", "config", "overhead",
        "seed", "faults", "tenant", "stream",
    }
    unknown = sorted(set(document) - known)
    if unknown:
        raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")

    fields: Dict[str, Any] = {}
    if "backend" in document:
        fields["backend"] = document["backend"]
    if "workers" in document:
        fields["num_workers"] = _require_int(document, "workers")
    if "policy" in document:
        fields["policy"] = _parse_enum(SchedulingPolicy, document["policy"], "policy")
    if "dm_design" in document:
        fields["dm_design"] = _parse_enum(DMDesign, document["dm_design"], "dm_design")
    if "config" in document:
        fields["config"] = _config_from_document(document["config"])
    if "overhead" in document:
        fields["overhead"] = _overhead_from_document(document["overhead"])
    if "seed" in document:
        fields["seed"] = _require_int(document, "seed")
    if "faults" in document:
        fields["faults"] = _faults_from_document(document["faults"])
    if "tenant" in document:
        fields["tenant"] = document["tenant"]
    if "stream" in document:
        fields["stream"] = _stream_from_document(document["stream"])

    try:
        if "workload" in document:
            if "tasks" in document:
                raise ProtocolError("give either 'workload' or 'tasks', not both")
            return SimulationRequest.for_workload(
                document["workload"],
                block_size=document.get("block_size"),
                problem_size=document.get("problem_size"),
                **fields,
            )
        if "tasks" in document:
            program = TaskProgram(name=str(document.get("name", "inline")))
            tasks = document["tasks"]
            if not isinstance(tasks, list):
                raise ProtocolError("'tasks' must be a list")
            for entry in tasks:
                program.add_task(task_from_document(entry))
            return SimulationRequest.for_program(program, **fields)
        # No program: a streaming session fed through 'submit' frames.
        return SimulationRequest.streaming(str(document.get("name", "")), **fields)
    except ProtocolError:
        raise
    except (TypeError, ValueError) as error:
        raise ProtocolError(str(error)) from error


def _require_int(document: Mapping[str, Any], field: str) -> int:
    value = document[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{field}' must be an integer")
    return value


def _parse_enum(enum_type: Any, value: Any, field: str) -> Any:
    try:
        return enum_type(value)
    except ValueError as error:
        raise ProtocolError(f"invalid {field}: {value!r}") from error


def _config_to_document(config: PicosConfig) -> Dict[str, Any]:
    from repro.sim.request import config_fields

    return config_fields(config)


def _config_from_document(document: Any) -> PicosConfig:
    if not isinstance(document, Mapping):
        raise ProtocolError("'config' must be a JSON object")
    valid = {f.name for f in dataclasses.fields(PicosConfig)}
    unknown = sorted(set(document) - valid)
    if unknown:
        raise ProtocolError(f"unknown config field(s): {', '.join(unknown)}")
    kwargs = dict(document)
    if "dm_design" in kwargs:
        kwargs["dm_design"] = _parse_enum(DMDesign, kwargs["dm_design"], "config.dm_design")
    try:
        return PicosConfig(**kwargs)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid config: {error}") from error


def _overhead_from_document(document: Any) -> NanosOverheadModel:
    if not isinstance(document, Mapping):
        raise ProtocolError("'overhead' must be a JSON object")
    valid = {f.name for f in dataclasses.fields(NanosOverheadModel)}
    unknown = sorted(set(document) - valid)
    if unknown:
        raise ProtocolError(f"unknown overhead field(s): {', '.join(unknown)}")
    try:
        return NanosOverheadModel(**document)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid overhead model: {error}") from error


def _faults_from_document(document: Any) -> Tuple[Any, ...]:
    if not isinstance(document, list):
        raise ProtocolError("'faults' must be a list of scenario objects")
    try:
        return faults_from_documents(document)
    except (FaultConfigurationError, TypeError, ValueError) as error:
        raise ProtocolError(f"invalid fault scenario: {error}") from error


def _stream_from_document(document: Any) -> StreamOptions:
    if not isinstance(document, Mapping):
        raise ProtocolError("'stream' must be a JSON object")
    valid = {f.name for f in dataclasses.fields(StreamOptions)}
    unknown = sorted(set(document) - valid)
    if unknown:
        raise ProtocolError(f"unknown stream field(s): {', '.join(unknown)}")
    try:
        return StreamOptions(**document)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid stream options: {error}") from error


# ----------------------------------------------------------------------
# task documents
# ----------------------------------------------------------------------
def task_to_document(task: Task) -> List[Any]:
    """Compact task encoding: ``[id, duration, [[address, dir], ...]]``."""
    return [
        task.task_id,
        task.duration,
        [[dep.address, dep.direction.value] for dep in task.dependences],
    ]


def task_from_document(entry: Any) -> Task:
    """Decode one task document (see :func:`task_to_document`)."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ProtocolError("a task document is [id, duration, [[address, dir], ...]]")
    task_id, duration, deps = entry
    if not isinstance(deps, list):
        raise ProtocolError("task dependences must be a list")
    try:
        dependences = [
            Dependence(address, Direction.parse(direction))
            for address, direction in deps
        ]
        return Task(task_id=task_id, dependences=dependences, duration=duration)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid task document: {error}") from error


# ----------------------------------------------------------------------
# event documents
# ----------------------------------------------------------------------
def events_to_document(events: Sequence[SessionEvent]) -> List[List[int]]:
    """Compact event batch: ``[[cycle, kind_code, task_id], ...]``."""
    order = _EVENT_ORDER
    return [[event.cycle, order[event.kind], event.task_id] for event in events]


# ----------------------------------------------------------------------
# result documents
# ----------------------------------------------------------------------
#: Timeline stamps travel as a fixed-order array in this field order.
_TIMELINE_FIELDS: Tuple[str, ...] = ("created", "submitted", "ready", "started", "finished")


def result_to_document(result: SimulationResult) -> Dict[str, Any]:
    """Full-fidelity JSON encoding of a :class:`SimulationResult`.

    Everything round-trips: :func:`result_from_document` rebuilds an object
    that compares field-for-field equal to the original (the cache-parity
    tests pin this), so a cache-served result is indistinguishable from a
    freshly simulated one.
    """
    return {
        "simulator": result.simulator,
        "program_name": result.program_name,
        "num_workers": result.num_workers,
        "makespan": result.makespan,
        "sequential_cycles": result.sequential_cycles,
        "num_tasks": result.num_tasks,
        "timelines": {
            str(task_id): [getattr(timeline, name) for name in _TIMELINE_FIELDS]
            for task_id, timeline in result.timelines.items()
        },
        "counters": dict(result.counters),
        "drain_time": result.drain_time,
    }


def result_from_document(document: Mapping[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from its document form."""
    if not isinstance(document, Mapping):
        raise ProtocolError("result document must be a JSON object")
    try:
        timelines = {
            int(task_id): TaskTimeline(int(task_id), *stamps)
            for task_id, stamps in document["timelines"].items()
        }
        return SimulationResult(
            simulator=document["simulator"],
            program_name=document["program_name"],
            num_workers=document["num_workers"],
            makespan=document["makespan"],
            sequential_cycles=document["sequential_cycles"],
            num_tasks=document["num_tasks"],
            timelines=timelines,
            counters=dict(document["counters"]),
            drain_time=document["drain_time"],
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"invalid result document: {error}") from error
