"""Checkpoint/restore snapshots of sliced simulation sessions.

A :class:`SimulationSnapshot` freezes everything a resumable run needs --
the request, the engine's pending event schedule, the accelerator (or
software-runtime) state and the session's delivery counters -- into plain
JSON-safe primitives, so that :func:`restore` can rebuild a session that
continues *bit-exactly* where the captured one stood: same makespan, same
per-task timelines, same hardware counters, same lifecycle-event stream.
The differential net in ``tests/test_snapshot.py`` and
``tests/test_differential.py`` pins this for every backend, at every event
boundary, under both the flat and the reference datapath.

Three snapshot kinds cover a session's lifecycle:

``initial``
    Taken before the first :meth:`~repro.sim.session.SimulationSession.
    advance`; only the (fully assembled) request is stored.  Restoring
    yields a fresh session -- this is also the only kind a plug-in
    backend without a stepper can produce mid-lifecycle.
``mid-run``
    Taken between ``advance`` slices at the stepper's cycle horizon; the
    complete mutable simulator state travels in the ``state`` document.
``finished``
    Taken after the run completed; the full result document is stored and
    restoring yields a finished session serving it.

Copy-on-capture
---------------

:func:`capture` encodes every piece of mutable state into fresh lists and
dictionaries *at capture time* -- a snapshot never aliases live simulator
state, so closing (or further advancing) the captured session cannot
invalidate it.  The regression tests in ``tests/test_sim_session_slicing.py``
pin this.

Canonical state schema
----------------------

The flat integer-handle datapath and the object-based reference datapath
(`core/reference/`) encode to the *same* canonical document: ``-1``
sentinels for absent handles, packed slot handles (``trs_id * per_trs +
tm_index * stride + dep_index``) for slot references, and invalid entries
normalised to their post-allocation reset values (which every allocation
path overwrites before reading, so canonicalisation is invisible to the
simulation).  That makes a snapshot datapath-neutral: a run captured under
``REPRO_REFERENCE_DATAPATH=1`` restores onto the flat datapath and vice
versa, which is how the differential suite cross-checks the two.

The VM's cached ``_dm_handle`` back-links are deliberately **excluded**
from the schema and recomputed on restore via ``dm.lookup(address)`` --
they are a pure cache of the DM's content, and recomputing them is what
lets a fork re-home live versions into a *wider* DM.

What-if forks
-------------

``restore(snapshot, config=...)`` (or the :func:`fork` convenience) resumes
a mid-run snapshot under a modified :class:`~repro.core.config.PicosConfig`
-- "what if the DM had twice the ways from this point on?".  Latency knobs
may change freely; structural geometry must stay compatible: the TM/VM/DM
set geometry is fixed, the DM hash function must not change, and the DM may
only widen (live ways are re-homed per set, and the VM free list is
extended with the new entries behind the surviving ones).

On-disk format
--------------

A snapshot's document is an envelope around its payload: the format tag,
the schema version, the payload as one string of canonical JSON, and a
:func:`~repro.core.hashing.stable_digest` over that string.  The payload
is encoded once per snapshot and the text is memoized, so the digest,
:func:`save_snapshot` and the service's ``checkpoint`` frame share one
encode.  :meth:`SimulationSnapshot.from_document` (and with it
:func:`load_snapshot`) checks the format and the version, hashes the
payload string as it was read and parses it once; silent corruption (or a
schema drift without a version bump) fails loudly instead of replaying
garbage.  A digest cannot vouch for a document someone edited and
re-stamped, so :func:`restore` also checks the pending lifecycle log and
the timeline columns before the session exists.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import PicosConfig
from repro.core.dct import StallReason
from repro.core.gateway import PendingSubmission
from repro.core.hashing import stable_digest
from repro.core.packets import TaskSlotRef
from repro.core.reference.dependence_memory import DMWay
from repro.core.reference.task_memory import DependenceSlot, TaskEntry
from repro.core.reference.version_memory import VersionEntry
from repro.core.stats import PicosStats
from repro.faults.payloads import TIMER_KILL, TIMER_REJOIN, FaultRedeliver, FaultTimer
from repro.faults.plan import LOG_FAULT_INJECTED, LOG_FAULT_RECOVERED
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Event
from repro.sim.hil import HILSimulator
from repro.sim.request import InlineProgramRef
from repro.sim.session import _EVENT_CLASSES, SimulationSession, open_session

__all__ = [
    "KIND_FINISHED",
    "KIND_INITIAL",
    "KIND_MID_RUN",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SimulationSnapshot",
    "SnapshotError",
    "capture",
    "fork",
    "load_snapshot",
    "restore",
    "save_snapshot",
]

#: Format tag of the on-disk document (`format` field).
SNAPSHOT_FORMAT = "picos-snapshot"
#: Schema version; bump on any change to the state documents below.  Other
#: versions are refused at load, never migrated (see ``docs/snapshots.md``).
SNAPSHOT_VERSION = 3

#: Snapshot kinds (see the module docstring).
KIND_INITIAL = "initial"
KIND_MID_RUN = "mid-run"
KIND_FINISHED = "finished"

#: PicosConfig fields that must be identical between the captured and the
#: forked configuration of a mid-run restore: they size the state arrays
#: the snapshot re-homes into.  (The DM design itself is checked separately
#: -- widening is allowed.)
_GEOMETRY_FIELDS = (
    "num_trs",
    "num_dct",
    "tm_entries",
    "max_deps_per_task",
    "vm_entries",
    "dm_sets",
)

#: PicosStats counters in dataclass order (the ``extra`` map travels
#: separately as sorted pairs).
_STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(PicosStats) if f.name != "extra"
)


class SnapshotError(RuntimeError):
    """A snapshot could not be captured, decoded, restored or forked."""


def _program_task(program: TaskProgram, task_id: Any, where: str) -> Task:
    """The task of ``program`` that ``task_id``, read from ``where``, names.

    The digest only proves a document is self-consistent, and a client can
    re-stamp an edited one, so restore looks up the task ids of its state
    here: anything but an ``int`` task id of the program is refused.
    """
    if type(task_id) is int:  # exact: isinstance() would let a bool through
        try:
            return program.task(task_id)
        except KeyError:
            pass
    raise SnapshotError(f"{where} {task_id!r} names no task of the program")


def _program_row(program: TaskProgram, task_id: Any, where: str) -> int:
    """The row of the task :func:`_program_task` would return."""
    if type(task_id) is int:
        row = program.rows().get(task_id)
        if row is not None:
            return row
    raise SnapshotError(f"{where} {task_id!r} names no task of the program")


def _checked_list(document: Any, what: str) -> List[Any]:
    """``document`` if it is a list, else a :class:`SnapshotError`."""
    if not isinstance(document, list):
        raise SnapshotError(f"{what} is not a list")
    return document


def _checked_workers(document: Any, workers: int, what: str) -> List[int]:
    """``document`` if it lists distinct worker indices below ``workers``."""
    for worker in _checked_list(document, what):
        if type(worker) is not int or not 0 <= worker < workers:
            raise SnapshotError(f"{what} entry {worker!r} names no worker of the {workers}")
    if len(set(document)) != len(document):
        raise SnapshotError(f"{what} name a worker twice")
    return list(document)


def _checked_count(value: Any, what: str, limit: Optional[int] = None) -> int:
    """``value`` if it is an ``int`` of at least 0 and at most ``limit``."""
    if type(value) is not int or value < 0 or (limit is not None and value > limit):
        most = "" if limit is None else f" and at most {limit}"
        raise SnapshotError(f"{what} {value!r} is not an integer of at least 0{most}")
    return value


def _checked_task_ids(document: Any, program: TaskProgram, what: str) -> List[int]:
    """``document`` if it is a list of task ids of ``program``."""
    rows = program.rows()
    for task_id in _checked_list(document, what):
        if type(task_id) is not int or task_id not in rows:
            raise SnapshotError(f"{what} entry {task_id!r} names no task of the program")
    return document


# ----------------------------------------------------------------------
# event payload codec
# ----------------------------------------------------------------------
# Engine event payloads are a small closed vocabulary: ``None``, a bare
# int, an int pair (worker/task), a master job ``(kind, sub)`` whose
# sub-payload is a Task (create), an int pair (dispatch) or an int
# (finish), or -- in a faulted run -- a fault timer / pending redelivery.
# Ints travel raw; everything else is tagged so the decoder needs no
# knowledge of the event kind.
def _payload_to_document(payload: Any) -> Any:
    if payload is None:
        return ["none"]
    if type(payload) is int:
        return payload
    if type(payload) is tuple:
        first, second = payload
        if type(first) is str:  # a master job
            return ["j", first, _payload_to_document(second)]
        return ["t", first, second]
    if isinstance(payload, Task):
        return ["task", payload.task_id]
    if isinstance(payload, FaultTimer):
        return ["fto", payload.index, payload.tag, payload.arg]
    if isinstance(payload, FaultRedeliver):
        return ["frd", payload.index, payload.kind, _payload_to_document(payload.payload)]
    raise SnapshotError(f"unencodable event payload: {payload!r}")


#: Length of each tagged payload document, its tag included.
_PAYLOAD_LENGTHS = {"none": 1, "t": 3, "task": 2, "j": 3, "fto": 4, "frd": 4}


def _payload_from_document(document: Any, program: TaskProgram) -> Any:
    """Decode one queued event's payload, refusing any malformed document.

    Each tag's fields are checked before use, exact types included (a
    re-stamped document may hold anything), so a malformed payload is a
    :class:`SnapshotError`, never a bare ``IndexError`` or ``TypeError``.
    """
    if type(document) is int:  # exact: isinstance() would let a bool through
        return document
    if not (isinstance(document, list) and document and type(document[0]) is str):
        raise SnapshotError(
            "a queued event's payload is neither an integer nor a tagged list"
        )
    tag = document[0]
    length = _PAYLOAD_LENGTHS.get(tag)
    if length is None:
        raise SnapshotError(f"unknown payload tag {tag[:32]!r}")
    if len(document) != length:
        raise SnapshotError(
            f"a queued {tag!r} payload holds {len(document) - 1} fields, "
            f"not {length - 1}"
        )
    if tag == "none":
        return None
    if tag == "t":
        first, second = document[1], document[2]
        if type(first) is not int or type(second) is not int:
            raise SnapshotError("a queued 't' payload holds a non-integer")
        return (first, second)
    if tag == "task":
        return _program_task(program, document[1], "a queued event's task")
    if tag == "j":
        if type(document[1]) is not str:
            raise SnapshotError("a queued master job's kind is not a string")
        return (document[1], _payload_from_document(document[2], program))
    index, name = document[1], document[2]
    if type(index) is not int or type(name) is not str:
        raise SnapshotError(f"a queued {tag!r} payload's index or name is malformed")
    if tag == "fto":
        arg = document[3]
        if arg is not None and type(arg) is not int:
            raise SnapshotError("a queued fault timer's argument is not an integer")
        return FaultTimer(index, name, arg)
    return FaultRedeliver(index, name, _payload_from_document(document[3], program))


#: What the fields of a queued payload name, by event kind (a master job's
#: by job kind): a task of the program or a worker index.
_PAYLOAD_FIELDS = {
    "task-visible": ("task",),
    "worker-done": ("worker", "task"),
    "dispatch": ("task", "worker"),
    "finish": ("task",),
    "submitted": ("task",),
    "task-done": ("worker", "task"),
}


def _check_payload(
    kind: str, payload: Any, rows: Dict[int, int], workers: int, faults: int
) -> None:
    """Refuse a decoded payload naming no task, worker or armed fault.

    The decoder checks a payload's shape; its event kind says what each
    field names.  A fault timer or redelivery must index one of the
    ``faults`` the restored plan arms, a timer must carry a known tag, and
    a redelivered payload is checked by the kind it was withheld from.
    """
    if isinstance(payload, (FaultTimer, FaultRedeliver)):
        if not 0 <= payload.index < faults:
            raise SnapshotError(
                f"a queued fault event's index {payload.index} names none of "
                f"the {faults} faults the restored plan arms"
            )
        if isinstance(payload, FaultTimer):
            if payload.tag not in (TIMER_KILL, TIMER_REJOIN):
                raise SnapshotError(f"a queued fault timer's tag {payload.tag[:32]!r} is unknown")
            return
        kind, payload = payload.kind, payload.payload
    if kind == "master-done" and isinstance(payload, tuple):
        kind, payload = payload
    fields = _PAYLOAD_FIELDS.get(kind)
    if fields is not None:
        _check_names(fields, payload, rows, workers, kind)


def _check_names(
    fields: Tuple[str, ...], values: Any, rows: Dict[int, int], workers: int, what: str
) -> None:
    """Refuse ``values`` unless each names a task in ``rows`` (the program's)
    or a worker below ``workers``, as its entry in ``fields`` says; ``what``
    names the values in the error."""
    if not isinstance(values, (tuple, list)):
        values = (values,)
    if len(values) != len(fields):
        raise SnapshotError(f"a {what} payload is not {' and '.join(fields)}")
    for field, value in zip(fields, values):
        if type(value) is not int or value not in (rows if field == "task" else range(workers)):
            raise SnapshotError(f"a {what} payload's {field} {value!r} names no {field}")


# ----------------------------------------------------------------------
# engine queue codec
# ----------------------------------------------------------------------
def _queue_document(queue: Any) -> Dict[str, Any]:
    current, buckets = queue.snapshot_events()
    return {
        "now": queue.now,
        "processed": queue.processed,
        "current": [
            [event.time, event.kind, _payload_to_document(event.payload)]
            for event in current
        ],
        "buckets": [
            [
                time,
                [
                    [event.kind, _payload_to_document(event.payload)]
                    for event in events
                ],
            ]
            for time, events in buckets
        ],
    }


def _restore_queue(sim: Any, document: Dict[str, Any], workers: int) -> None:
    """Rebuild ``sim``'s queue, checking each payload by its event kind."""
    program = sim.program
    rows = program.rows()
    plan = sim._fault_plan
    faults = 0 if plan is None else len(plan.armed_faults)

    def event(time: int, kind: str, payload_document: Any) -> Event:
        payload = _payload_from_document(payload_document, program)
        _check_payload(kind, payload, rows, workers, faults)
        return Event(time, kind, payload)

    current = [
        event(time, kind, payload) for time, kind, payload in document["current"]
    ]
    buckets = [
        (time, [event(time, kind, payload) for kind, payload in events])
        for time, events in document["buckets"]
    ]
    sim.queue.restore_events(document["now"], document["processed"], current, buckets)


# ----------------------------------------------------------------------
# timelines, lifecycle log, stats
# ----------------------------------------------------------------------
def _delta_coded(column: List[int]) -> List[int]:
    """``column`` as its first value followed by its successive differences."""
    return column[:1] + list(map(operator.sub, column[1:], column))


def _timeline_columns(sim: Any) -> Tuple[List[int], ...]:
    """The simulator's five stamp columns, in document order."""
    return (
        sim._created_at,
        sim._submitted_at,
        sim._ready_at,
        sim._started_at,
        sim._finished_at,
    )


def _timeline_columns_document(sim: Any) -> Dict[str, Any]:
    """The touched timeline rows as delta-coded columns, sorted by task id.

    A row whose five stamps are all 0 is untouched: a simulator starts
    every row so, and restore leaves so every row the columns do not name.
    Only touched rows travel: an OR over the five columns marks them and
    :func:`itertools.compress` picks them out, in program order, which is
    sorted by task id only when it is not id order already.  Each column
    is delta-coded along its length: ids and neighbouring tasks' stamps
    are close, so the differences are short numbers.
    """
    columns = _timeline_columns(sim)
    mask: Iterable[int] = columns[0]
    for column in columns[1:]:
        mask = map(operator.or_, mask, column)
    touched = list(mask)
    ids = list(itertools.compress(sim._rows, touched))
    stamps = [list(itertools.compress(column, touched)) for column in columns]
    if any(map(operator.ge, ids, ids[1:])):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = list(map(ids.__getitem__, order))
        stamps = [list(map(column.__getitem__, order)) for column in stamps]
    return {
        "ids": _delta_coded(ids),
        "stamps": [_delta_coded(column) for column in stamps],
    }


def _check_timelines(
    document: Any, program: TaskProgram
) -> Tuple[List[int], List[List[int]]]:
    """Decode the timeline columns, refusing any no captured run could have left.

    Like the lifecycle log, the columns are checked before restore
    allocates for them: an ``ids`` column and five stamp columns, all of
    one length and no longer than the program, holding plain integers.
    Decoded, the ids must strictly increase and each name a task of the
    program, and no stamp may be negative.  Returns each named task's row
    (its position in the program) and the decoded stamp columns.
    """
    if not (isinstance(document, dict) and document.keys() == {"ids", "stamps"}):
        raise SnapshotError(
            "the snapshot's timelines are not an object of 'ids' and 'stamps'"
        )
    ids, stamps = document["ids"], document["stamps"]
    if not (isinstance(stamps, list) and len(stamps) == 5):
        raise SnapshotError("the snapshot's timelines do not hold five stamp columns")
    columns = [ids, *stamps]
    if not all(isinstance(column, list) for column in columns):
        raise SnapshotError("a timeline column of the snapshot is not a list")
    if any(len(column) != len(ids) for column in stamps):
        raise SnapshotError("the snapshot's timeline columns differ in length")
    if len(ids) > program.num_tasks:
        raise SnapshotError(
            f"the snapshot's timelines hold {len(ids)} rows, more than the "
            f"program's {program.num_tasks} tasks"
        )
    # Exact types: isinstance() would let a bool through.
    if not all(set(map(type, column)) <= {int} for column in columns):
        raise SnapshotError("a timeline column of the snapshot holds a non-integer")
    if min(ids[1:], default=1) < 1:
        raise SnapshotError("the snapshot's timeline ids do not strictly increase")
    try:
        rows = list(map(program.rows().__getitem__, itertools.accumulate(ids)))
    except KeyError as error:
        raise SnapshotError(
            f"timeline row {error.args[0]} names no task of the program"
        ) from None
    stamps = [list(itertools.accumulate(column)) for column in stamps]
    if any(column and min(column) < 0 for column in stamps):
        raise SnapshotError("the snapshot's timelines hold a negative stamp")
    return rows, stamps


def _restore_timeline_columns(
    sim: Any, rows: List[int], stamps: List[List[int]]
) -> None:
    """Write the checked stamp columns into a freshly built simulator's.

    Its columns hold all zeros, as every row did before the run touched
    it; the rows the document names take their stamps.
    """
    for column, values in zip(_timeline_columns(sim), stamps):
        for row, value in zip(rows, values):
            column[row] = value


def _stats_document(stats: PicosStats) -> Dict[str, Any]:
    return {
        "fields": [getattr(stats, name) for name in _STATS_FIELDS],
        "extra": [[key, value] for key, value in sorted(stats.extra.items())],
    }


def _restore_stats(stats: PicosStats, document: Dict[str, Any]) -> None:
    values = document["fields"]
    if len(values) != len(_STATS_FIELDS):
        raise SnapshotError("stats document does not match the counter inventory")
    for name, value in zip(_STATS_FIELDS, values):
        setattr(stats, name, value)
    stats.extra = {key: value for key, value in document["extra"]}


# ----------------------------------------------------------------------
# Task Memory codec (TM0 + TMX, canonical across datapaths)
# ----------------------------------------------------------------------
def _empty_tm_document(entries: int, stride: int) -> Dict[str, Any]:
    """The canonical all-invalid TM document (post-reset field values)."""
    total = entries * stride
    return {
        "entries": entries,
        "stride": stride,
        "valid": [False] * entries,
        "task_id": [-1] * entries,
        "num_deps": [0] * entries,
        "ready_deps": [0] * entries,
        "dep_count": [0] * entries,
        "slot_address": [0] * total,
        "slot_vm_index": [-1] * total,
        "slot_ready": [False] * total,
        "slot_predecessor": [-1] * total,
        "slot_is_producer": [False] * total,
        "free": [],
        "high_water": 0,
    }


def _tm_document(trs: Any) -> Dict[str, Any]:
    inner = getattr(trs, "_inner", None)
    if inner is None:
        return _tm_document_flat(trs.task_memory)
    return _tm_document_reference(inner.task_memory, trs._codec)


def _tm_document_flat(tm: Any) -> Dict[str, Any]:
    stride = tm.max_deps_per_task
    document = _empty_tm_document(tm.entries, stride)
    for index in range(tm.entries):
        if not tm._valid[index]:
            continue
        document["valid"][index] = True
        document["task_id"][index] = tm._task_id[index]
        document["num_deps"][index] = tm._num_deps[index]
        document["ready_deps"][index] = tm._ready_deps[index]
        count = tm._dep_count[index]
        document["dep_count"][index] = count
        base = index * stride
        for dep in range(count):
            offset = base + dep
            document["slot_address"][offset] = tm._slot_address[offset]
            document["slot_vm_index"][offset] = tm._slot_vm_index[offset]
            document["slot_ready"][offset] = tm._slot_ready[offset]
            document["slot_predecessor"][offset] = tm._slot_predecessor[offset]
            document["slot_is_producer"][offset] = tm._slot_is_producer[offset]
    document["free"] = list(tm._free)
    document["high_water"] = tm._high_water
    return document


def _tm_document_reference(tm: Any, codec: Any) -> Dict[str, Any]:
    stride = tm.max_deps_per_task
    document = _empty_tm_document(tm.entries, stride)
    for index, entry in enumerate(tm._slots):
        if entry is None:
            continue
        document["valid"][index] = True
        document["task_id"][index] = entry.task_id
        document["num_deps"][index] = entry.num_deps
        document["ready_deps"][index] = entry.ready_deps
        document["dep_count"][index] = len(entry.dep_slots)
        base = index * stride
        for dep, slot in enumerate(entry.dep_slots):
            offset = base + dep
            document["slot_address"][offset] = slot.address
            document["slot_vm_index"][offset] = (
                -1 if slot.vm_index is None else slot.vm_index
            )
            document["slot_ready"][offset] = slot.ready
            document["slot_predecessor"][offset] = (
                -1 if slot.predecessor is None else codec.encode(slot.predecessor)
            )
            document["slot_is_producer"][offset] = slot.is_producer
    document["free"] = list(tm._free)
    document["high_water"] = tm._high_water
    return document


def _restore_tm(trs: Any, document: Dict[str, Any]) -> None:
    inner = getattr(trs, "_inner", None)
    tm = trs.task_memory
    if tm.entries != document["entries"] or tm.max_deps_per_task != document["stride"]:
        raise SnapshotError(
            "TM geometry mismatch: the snapshot was taken with "
            f"{document['entries']}x{document['stride']} slots, the restore "
            f"target has {tm.entries}x{tm.max_deps_per_task}"
        )
    if inner is None:
        _restore_tm_flat(tm, document)
    else:
        _restore_tm_reference(inner.task_memory, document, trs.trs_id, trs._codec)


def _restore_tm_flat(tm: Any, document: Dict[str, Any]) -> None:
    tm._valid[:] = list(document["valid"])
    tm._task_id[:] = list(document["task_id"])
    tm._num_deps[:] = list(document["num_deps"])
    tm._ready_deps[:] = list(document["ready_deps"])
    tm._dep_count[:] = list(document["dep_count"])
    tm._slot_address[:] = list(document["slot_address"])
    tm._slot_vm_index[:] = list(document["slot_vm_index"])
    tm._slot_ready[:] = list(document["slot_ready"])
    tm._slot_predecessor[:] = list(document["slot_predecessor"])
    tm._slot_is_producer[:] = list(document["slot_is_producer"])
    tm._free[:] = list(document["free"])
    tm._by_task_id = {
        document["task_id"][index]: index
        for index in range(tm.entries)
        if document["valid"][index]
    }
    tm._high_water = document["high_water"]


def _restore_tm_reference(
    tm: Any, document: Dict[str, Any], trs_id: int, codec: Any
) -> None:
    stride = tm.max_deps_per_task
    slots: List[Optional[TaskEntry]] = [None] * tm.entries
    for index in range(tm.entries):
        if not document["valid"][index]:
            continue
        entry = TaskEntry(
            tm_index=index,
            task_id=document["task_id"][index],
            num_deps=document["num_deps"][index],
            ready_deps=document["ready_deps"][index],
        )
        base = index * stride
        for dep in range(document["dep_count"][index]):
            offset = base + dep
            vm_index = document["slot_vm_index"][offset]
            predecessor = document["slot_predecessor"][offset]
            slot = DependenceSlot(
                dep_index=dep,
                address=document["slot_address"][offset],
                vm_index=None if vm_index < 0 else vm_index,
                ready=document["slot_ready"][offset],
                predecessor=None if predecessor < 0 else codec.decode(predecessor),
                is_producer=document["slot_is_producer"][offset],
            )
            slot.slot_ref = TaskSlotRef(trs_id=trs_id, tm_index=index, dep_index=dep)
            entry.dep_slots.append(slot)
        slots[index] = entry
    tm._slots = slots
    tm._free[:] = list(document["free"])
    tm._by_task_id = {
        document["task_id"][index]: index
        for index in range(tm.entries)
        if document["valid"][index]
    }
    tm._high_water = document["high_water"]


# ----------------------------------------------------------------------
# Dependence Memory codec
# ----------------------------------------------------------------------
def _dm_document(dm: Any) -> Dict[str, Any]:
    num_sets, ways = dm.num_sets, dm.ways_per_set
    total = num_sets * ways
    document: Dict[str, Any] = {
        "sets": num_sets,
        "ways": ways,
        "valid": [False] * total,
        "input_only": [True] * total,
        "tag": [-1] * total,
        "latest": [-1] * total,
        "live": [0] * total,
        "access": [0] * total,
        "conflicts": dm.conflicts,
        "allocations": dm.allocations,
        "occupied": dm._occupied,
        "high_water": dm._high_water,
    }
    reference_sets = getattr(dm, "_sets", None)
    if reference_sets is None:
        for handle in range(total):
            if not dm._valid[handle]:
                continue
            document["valid"][handle] = True
            document["input_only"][handle] = dm._input_only[handle]
            document["tag"][handle] = dm._tag[handle]
            document["latest"][handle] = dm._latest_vm_index[handle]
            document["live"][handle] = dm._live_versions[handle]
            document["access"][handle] = dm._access_count[handle]
    else:
        for set_index, set_ways in enumerate(reference_sets):
            for way_index, way in enumerate(set_ways):
                if not way.valid:
                    continue
                handle = set_index * ways + way_index
                document["valid"][handle] = True
                document["input_only"][handle] = way.input_only
                document["tag"][handle] = way.tag
                document["latest"][handle] = (
                    -1 if way.latest_vm_index is None else way.latest_vm_index
                )
                document["live"][handle] = way.live_versions
                document["access"][handle] = way.access_count
    return document


def _restore_dm(dm: Any, document: Dict[str, Any]) -> None:
    old_ways = document["ways"]
    new_ways = dm.ways_per_set
    if dm.num_sets != document["sets"]:
        raise SnapshotError(
            f"DM set-count mismatch: snapshot has {document['sets']} sets, "
            f"the restore target has {dm.num_sets}"
        )
    if new_ways < old_ways:
        raise SnapshotError(
            f"cannot narrow the DM on restore: snapshot has {old_ways} ways "
            f"per set, the restore target only {new_ways}"
        )
    reference_sets = getattr(dm, "_sets", None)
    if reference_sets is None:
        total = dm.num_sets * new_ways
        dm._valid[:] = [False] * total
        dm._input_only[:] = [True] * total
        dm._tag[:] = [-1] * total
        dm._latest_vm_index[:] = [-1] * total
        dm._live_versions[:] = [0] * total
        dm._access_count[:] = [0] * total
        for set_index in range(dm.num_sets):
            for way_index in range(old_ways):
                source = set_index * old_ways + way_index
                if not document["valid"][source]:
                    continue
                handle = set_index * new_ways + way_index
                dm._valid[handle] = True
                dm._input_only[handle] = document["input_only"][source]
                dm._tag[handle] = document["tag"][source]
                dm._latest_vm_index[handle] = document["latest"][source]
                dm._live_versions[handle] = document["live"][source]
                dm._access_count[handle] = document["access"][source]
    else:
        for set_index in range(dm.num_sets):
            set_ways = [DMWay() for _ in range(new_ways)]
            for way_index in range(old_ways):
                source = set_index * old_ways + way_index
                if not document["valid"][source]:
                    continue
                latest = document["latest"][source]
                set_ways[way_index] = DMWay(
                    valid=True,
                    input_only=document["input_only"][source],
                    tag=document["tag"][source],
                    latest_vm_index=None if latest < 0 else latest,
                    live_versions=document["live"][source],
                    access_count=document["access"][source],
                )
            reference_sets[set_index] = set_ways
    dm.conflicts = document["conflicts"]
    dm.allocations = document["allocations"]
    dm._occupied = document["occupied"]
    dm._high_water = document["high_water"]


# ----------------------------------------------------------------------
# Version Memory codec
# ----------------------------------------------------------------------
def _vm_document(vm: Any, codec: Any) -> Dict[str, Any]:
    entries = vm.entries
    document: Dict[str, Any] = {
        "entries": entries,
        "valid": [False] * entries,
        "address": [0] * entries,
        "producer": [-1] * entries,
        "producer_finished": [False] * entries,
        "last_consumer": [-1] * entries,
        "consumers_arrived": [0] * entries,
        "consumers_finished": [0] * entries,
        "next_version": [-1] * entries,
        "free": list(vm._free),
        "high_water": vm._high_water,
        "total_allocations": vm._total_allocations,
    }
    reference_slots = getattr(vm, "_slots", None)
    if reference_slots is None:
        for index in range(entries):
            if not vm._valid[index]:
                continue
            document["valid"][index] = True
            document["address"][index] = vm._address[index]
            document["producer"][index] = vm._producer[index]
            document["producer_finished"][index] = vm._producer_finished[index]
            document["last_consumer"][index] = vm._last_consumer[index]
            document["consumers_arrived"][index] = vm._consumers_arrived[index]
            document["consumers_finished"][index] = vm._consumers_finished[index]
            document["next_version"][index] = vm._next_version[index]
    else:
        for index, entry in enumerate(reference_slots):
            if entry is None:
                continue
            document["valid"][index] = True
            document["address"][index] = entry.address
            document["producer"][index] = (
                -1 if entry.producer is None else codec.encode(entry.producer)
            )
            document["producer_finished"][index] = entry.producer_finished
            document["last_consumer"][index] = (
                -1
                if entry.last_consumer is None
                else codec.encode(entry.last_consumer)
            )
            document["consumers_arrived"][index] = entry.consumers_arrived
            document["consumers_finished"][index] = entry.consumers_finished
            document["next_version"][index] = (
                -1 if entry.next_version is None else entry.next_version
            )
    return document


def _restore_vm(vm: Any, document: Dict[str, Any], dm: Any, codec: Any) -> None:
    old_entries = document["entries"]
    new_entries = vm.entries
    if new_entries < old_entries:
        raise SnapshotError(
            f"cannot shrink the VM on restore: snapshot has {old_entries} "
            f"entries, the restore target only {new_entries}"
        )
    # A widened VM (DM widening implies a larger effective VM) keeps the
    # captured free list behind the brand-new entries, so recycling order
    # for the surviving entries is untouched and fresh entries hand out in
    # ascending index order, exactly like a cold VM's.
    if new_entries > old_entries:
        free = list(range(new_entries - 1, old_entries - 1, -1)) + list(
            document["free"]
        )
    else:
        free = list(document["free"])
    reference_slots = getattr(vm, "_slots", None)
    if reference_slots is None:
        vm._valid[:] = [False] * new_entries
        vm._address[:] = [0] * new_entries
        vm._producer[:] = [-1] * new_entries
        vm._producer_finished[:] = [False] * new_entries
        vm._last_consumer[:] = [-1] * new_entries
        vm._consumers_arrived[:] = [0] * new_entries
        vm._consumers_finished[:] = [0] * new_entries
        vm._next_version[:] = [-1] * new_entries
        vm._dm_handle[:] = [-1] * new_entries
        for index in range(old_entries):
            if not document["valid"][index]:
                continue
            vm._valid[index] = True
            vm._address[index] = document["address"][index]
            vm._producer[index] = document["producer"][index]
            vm._producer_finished[index] = document["producer_finished"][index]
            vm._last_consumer[index] = document["last_consumer"][index]
            vm._consumers_arrived[index] = document["consumers_arrived"][index]
            vm._consumers_finished[index] = document["consumers_finished"][index]
            vm._next_version[index] = document["next_version"][index]
            # The DM back-link is a cache of the DM's content; recomputing
            # it (instead of storing it) is what re-homes live versions
            # into a forked, wider DM.
            vm._dm_handle[index] = dm.lookup(document["address"][index])
    else:
        slots: List[Optional[VersionEntry]] = [None] * new_entries
        for index in range(old_entries):
            if not document["valid"][index]:
                continue
            producer = document["producer"][index]
            last_consumer = document["last_consumer"][index]
            next_version = document["next_version"][index]
            slots[index] = VersionEntry(
                vm_index=index,
                address=document["address"][index],
                producer=None if producer < 0 else codec.decode(producer),
                producer_finished=document["producer_finished"][index],
                last_consumer=(
                    None if last_consumer < 0 else codec.decode(last_consumer)
                ),
                consumers_arrived=document["consumers_arrived"][index],
                consumers_finished=document["consumers_finished"][index],
                next_version=None if next_version < 0 else next_version,
            )
        vm._slots = slots
    vm._free[:] = free
    vm._high_water = document["high_water"]
    vm._total_allocations = document["total_allocations"]


# ----------------------------------------------------------------------
# DCT, Gateway, accelerator facade
# ----------------------------------------------------------------------
def _dct_document(dct: Any) -> Dict[str, Any]:
    inner = getattr(dct, "_inner", None)
    target = dct if inner is None else inner
    codec = getattr(dct, "_codec", None)
    return {
        "dm": _dm_document(target.dm),
        "vm": _vm_document(target.vm, codec),
        "blocked": sorted(target._blocked_addresses),
    }


def _restore_dct(dct: Any, document: Dict[str, Any]) -> None:
    inner = getattr(dct, "_inner", None)
    target = dct if inner is None else inner
    codec = getattr(dct, "_codec", None)
    _restore_dm(target.dm, document["dm"])
    _restore_vm(target.vm, document["vm"], target.dm, codec)
    target._blocked_addresses = set(document["blocked"])


def _gateway_document(gateway: Any) -> Dict[str, Any]:
    pending = gateway._pending
    pending_document = None
    if pending is not None:
        pending_document = {
            "task": pending.task.task_id,
            "trs": pending.trs_id,
            "tm_index": pending.tm_index,
            "next_dep_index": pending.next_dep_index,
            "reason": None if pending.reason is None else pending.reason.value,
            "retries": pending.retries,
        }
    return {
        "next_trs": gateway._next_trs,
        "pending": pending_document,
        "slots": [
            [task_id, trs_id, tm_index]
            for task_id, (trs_id, tm_index) in sorted(gateway._slot_of_task.items())
        ],
    }


def _restore_gateway(
    gateway: Any, document: Dict[str, Any], program: TaskProgram
) -> None:
    gateway._next_trs = document["next_trs"]
    pending = document["pending"]
    if pending is None:
        gateway._pending = None
    else:
        reason = pending["reason"]
        gateway._pending = PendingSubmission(
            task=_program_task(program, pending["task"], "the Gateway's pending task"),
            trs_id=pending["trs"],
            tm_index=pending["tm_index"],
            next_dep_index=pending["next_dep_index"],
            reason=None if reason is None else StallReason(reason),
            retries=pending["retries"],
        )
    gateway._slot_of_task = {
        task_id: (trs_id, tm_index)
        for task_id, trs_id, tm_index in document["slots"]
    }


def _scheduler_document(scheduler: Any) -> Dict[str, Any]:
    return {
        "queue": list(scheduler._queue),
        "scheduled": scheduler._total_scheduled,
        "max_occupancy": scheduler._max_occupancy,
    }


def _restore_scheduler(
    scheduler: Any, document: Dict[str, Any], program: TaskProgram
) -> None:
    scheduler._queue = deque(
        _checked_task_ids(document["queue"], program, "a ready queue")
    )
    scheduler._total_scheduled = document["scheduled"]
    scheduler._max_occupancy = document["max_occupancy"]


def _accel_document(accel: Any) -> Dict[str, Any]:
    arbiter = accel.arbiter
    return {
        "stats": _stats_document(accel.stats),
        "arbiter": {
            "to_trs": arbiter.messages_to_trs,
            "to_dct": arbiter.messages_to_dct,
            "load": [arbiter._per_dct_load[index] for index in range(arbiter.num_dct)],
        },
        "trs": [_tm_document(trs) for trs in accel.trs_instances],
        "dct": [_dct_document(dct) for dct in accel.dct_instances],
        "gateway": _gateway_document(accel.gateway),
        "deps_of_task": [
            [task_id, accel._deps_of_task[task_id]]
            for task_id in sorted(accel._deps_of_task)
        ],
        "submitted": accel._submitted,
        "finished": accel._finished,
        "scheduler": _scheduler_document(accel.scheduler),
    }


def _restore_accel(accel: Any, document: Dict[str, Any], program: TaskProgram) -> None:
    if len(document["trs"]) != len(accel.trs_instances) or len(
        document["dct"]
    ) != len(accel.dct_instances):
        raise SnapshotError(
            "accelerator geometry mismatch: the snapshot has "
            f"{len(document['trs'])} TRS / {len(document['dct'])} DCT "
            f"instances, the restore target "
            f"{len(accel.trs_instances)} / {len(accel.dct_instances)}"
        )
    # All TRS/DCT/Gateway instances share the accelerator's PicosStats
    # object; restoring it once in place keeps that aliasing intact.
    _restore_stats(accel.stats, document["stats"])
    arbiter = accel.arbiter
    arbiter.messages_to_trs = document["arbiter"]["to_trs"]
    arbiter.messages_to_dct = document["arbiter"]["to_dct"]
    arbiter._per_dct_load = {
        index: load for index, load in enumerate(document["arbiter"]["load"])
    }
    for trs, trs_document in zip(accel.trs_instances, document["trs"]):
        _restore_tm(trs, trs_document)
    for dct, dct_document in zip(accel.dct_instances, document["dct"]):
        _restore_dct(dct, dct_document)
    _restore_gateway(accel.gateway, document["gateway"], program)
    accel._deps_of_task = {
        task_id: count for task_id, count in document["deps_of_task"]
    }
    accel._submitted = document["submitted"]
    accel._finished = document["finished"]
    _restore_scheduler(accel.scheduler, document["scheduler"], program)


def _workers_document(pool: Any) -> Dict[str, Any]:
    return {
        "states": [
            [w.busy_until, w.tasks_executed, w.busy_cycles, w.current_task]
            for w in pool._workers
        ],
        "idle": list(pool._idle),
    }


def _restore_workers(pool: Any, document: Dict[str, Any]) -> None:
    states = document["states"]
    if len(states) != pool.num_workers:
        raise SnapshotError(
            f"worker-count mismatch: snapshot has {len(states)} workers, "
            f"the restore target {pool.num_workers}"
        )
    for worker, row in zip(pool._workers, states):
        worker.busy_until = row[0]
        worker.tasks_executed = row[1]
        worker.busy_cycles = row[2]
        worker.current_task = row[3]
    pool._idle[:] = _checked_workers(
        document["idle"], pool.num_workers, "the idle workers"
    )


# ----------------------------------------------------------------------
# simulator codecs
# ----------------------------------------------------------------------
def _fault_plan_document(sim: Any, document: Dict[str, Any]) -> Dict[str, Any]:
    """Attach the armed-fault state under the optional ``faults`` key.

    Unfaulted runs get no key at all, so their state documents (and
    therefore snapshot digests) do not depend on the fault subsystem.
    """
    plan = sim._fault_plan
    if plan is not None:
        document["faults"] = plan.snapshot_state()
    return document


def _restore_fault_plan(sim: Any, state: Dict[str, Any]) -> None:
    plan = sim._fault_plan
    document = state.get("faults")
    if document is None:
        if plan is not None:
            raise SnapshotError(
                "the restore request arms fault scenarios but the snapshot "
                "carries no armed-fault state"
            )
        return
    if plan is None:
        raise SnapshotError(
            "snapshot carries armed-fault state but the restore request "
            "arms no fault scenarios"
        )
    plan.restore_state(document)


def _log_document(log: Optional[List[Tuple[int, int, int]]]) -> List[List[int]]:
    """The pending lifecycle log, sorted.

    The stepper keeps these entries as a heap whose layout depends on how
    the run was sliced; sorting makes the document (and so the digest) a
    function of the simulation at the captured cycle alone.
    """
    return [] if log is None else [list(entry) for entry in sorted(log)]


def _check_lifecycle_log(entries: Any, cycle: Any, program: TaskProgram) -> None:
    """Refuse a pending lifecycle log no captured run could have left.

    The digest only proves a document is self-consistent, and a client can
    re-stamp an edited one, so each entry is checked before the session
    exists: three plain integers, an order code naming an event class, a
    stamp after the snapshot's cycle (earlier entries were handed out
    before the capture) and a task of the program -- or ``-1`` for a
    fault event that targets a worker or bank.
    """
    if type(cycle) is not int:
        raise SnapshotError(f"snapshot cycle {cycle!r} is not an integer")
    if not isinstance(entries, list):
        raise SnapshotError("the snapshot's lifecycle log is not a list")
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(type(value) is int for value in entry)
        ):
            raise SnapshotError(
                f"lifecycle log entry {entry!r} is not three integers"
            )
        stamp, order, task_id = entry
        if not 0 <= order < len(_EVENT_CLASSES):
            raise SnapshotError(
                f"lifecycle log entry {entry!r} has an unknown order code"
            )
        if stamp <= cycle:
            raise SnapshotError(
                f"lifecycle log entry {entry!r} is stamped at or before the "
                f"snapshot cycle {cycle}"
            )
        if task_id == -1 and order in (LOG_FAULT_INJECTED, LOG_FAULT_RECOVERED):
            continue
        try:
            program.task(task_id)
        except KeyError:
            raise SnapshotError(
                f"lifecycle log entry {entry!r} names no task of the program"
            ) from None


def _hil_state_document(sim: HILSimulator) -> Dict[str, Any]:
    return _fault_plan_document(sim, {
        "simulator": "hil",
        "queue": _queue_document(sim.queue),
        "timelines": _timeline_columns_document(sim),
        "log": _log_document(sim._lifecycle_log),
        "pending_new": [task.task_id for task in sim._pending_new],
        "new_free_at": sim._picos_new_free_at,
        "finish_free_at": sim._picos_finish_free_at,
        "master_busy": sim._master_busy,
        "finish_jobs": list(sim._master_finish_jobs),
        "dispatch_jobs": [[task_id, worker] for task_id, worker in sim._master_dispatch_jobs],
        "next_create_index": sim._next_create_index,
        "finished_tasks": sim._finished_tasks,
        "submission_blocked": sim._submission_blocked,
        "ready": _scheduler_document(sim.ready),
        "workers": _workers_document(sim.workers),
        "accel": _accel_document(sim.accel),
    })


def _restore_hil(sim: HILSimulator, state: Dict[str, Any]) -> None:
    program = sim.program
    workers = sim.workers.num_workers
    sim._prepared = True
    _restore_queue(sim, state["queue"], workers)
    if sim._lifecycle_log is not None:
        sim._lifecycle_log[:] = [tuple(entry) for entry in state["log"]]
    sim._pending_new = deque(
        _program_task(program, task_id, "the HIL master's pending_new task")
        for task_id in state["pending_new"]
    )
    sim._picos_new_free_at = state["new_free_at"]
    sim._picos_finish_free_at = state["finish_free_at"]
    sim._master_busy = state["master_busy"]
    sim._master_finish_jobs = deque(
        _checked_task_ids(state["finish_jobs"], program, "the master's finish jobs")
    )
    jobs = _checked_list(state["dispatch_jobs"], "the master's dispatch jobs")
    for job in jobs:
        _check_names(_PAYLOAD_FIELDS["dispatch"], job, program.rows(), workers, "dispatch job")
    sim._master_dispatch_jobs = deque(map(tuple, jobs))
    sim._next_create_index = _checked_count(
        state["next_create_index"], "the master's next creation", program.num_tasks
    )
    sim._finished_tasks = _checked_count(
        state["finished_tasks"], "the HIL finished-task count", program.num_tasks
    )
    sim._submission_blocked = state["submission_blocked"]
    _restore_scheduler(sim.ready, state["ready"], program)
    _restore_workers(sim.workers, state["workers"])
    _restore_accel(sim.accel, state["accel"], program)
    _restore_fault_plan(sim, state)


def _nanos_state_document(sim: NanosRuntimeSimulator) -> Dict[str, Any]:
    # The simulator keeps its state by row; the document names tasks by id,
    # counts and submissions sorted by id, the ready pool in pool order.
    task_ids = sim.graph.task_ids
    return _fault_plan_document(sim, {
        "simulator": "nanos",
        "queue": _queue_document(sim.queue),
        "timelines": _timeline_columns_document(sim),
        "log": _log_document(sim._lifecycle_log),
        "master_joins_at": sim._master_joins_at,
        "idle_workers": list(sim._idle_workers),
        "remaining_preds": [
            [task_id, count]
            for task_id, count in sorted(zip(task_ids, sim._remaining_preds))
        ],
        "submitted": sorted(
            task_ids[row] for row, done in enumerate(sim._submitted) if done
        ),
        "ready_pool": [task_ids[row] for row in sim._ready_pool],
        "finished": sim._finished,
        "makespan": sim._makespan,
    })


def _checked_remaining_preds(document: Any, program: TaskProgram) -> List[int]:
    """The Nanos++ unfinished-predecessor counts by row, refusing any forged one.

    A captured run counts every task of the program once: one ``[task_id,
    count]`` pair per task, each id an ``int`` task of the program and
    each count a non-negative ``int``.
    """
    if not (isinstance(document, list) and len(document) == program.num_tasks):
        raise SnapshotError(
            "the Nanos++ predecessor counts are not a list of one pair per task"
        )
    remaining = [-1] * program.num_tasks  # -1: no count read yet
    for pair in document:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SnapshotError("a Nanos++ predecessor count is not a [task, count] pair")
        task_id, count = pair
        row = _program_row(program, task_id, "a Nanos++ predecessor count's task")
        if type(count) is not int or count < 0:
            raise SnapshotError(
                f"the predecessor count of task {task_id} is not a non-negative integer"
            )
        if remaining[row] >= 0:
            raise SnapshotError("the Nanos++ predecessor counts name a task twice")
        remaining[row] = count
    return remaining


def _restore_nanos(sim: NanosRuntimeSimulator, state: Dict[str, Any]) -> None:
    program = sim.program
    sim._prepared = True
    _restore_queue(sim, state["queue"], sim.num_threads)
    if sim._lifecycle_log is not None:
        sim._lifecycle_log[:] = [tuple(entry) for entry in state["log"]]
    sim._master_joins_at = _checked_count(
        state["master_joins_at"], "the Nanos++ master's join cycle"
    )
    sim._idle_workers = _checked_workers(
        state["idle_workers"], sim.num_threads, "the Nanos++ idle threads"
    )
    sim._remaining_preds = _checked_remaining_preds(state["remaining_preds"], program)
    submitted = [False] * program.num_tasks
    for task_id in _checked_list(state["submitted"], "the Nanos++ submitted tasks"):
        submitted[_program_row(program, task_id, "a Nanos++ submitted task")] = True
    sim._submitted = submitted
    sim._ready_pool = deque(
        _program_row(program, task_id, "the Nanos++ ready pool's task")
        for task_id in _checked_list(state["ready_pool"], "the Nanos++ ready pool")
    )
    sim._finished = _checked_count(
        state["finished"], "the Nanos++ finished-task count", program.num_tasks
    )
    sim._makespan = _checked_count(state["makespan"], "the Nanos++ makespan")
    _restore_fault_plan(sim, state)


def _simulator_state_document(sim: Any) -> Dict[str, Any]:
    if isinstance(sim, HILSimulator):
        return _hil_state_document(sim)
    if isinstance(sim, NanosRuntimeSimulator):
        return _nanos_state_document(sim)
    raise SnapshotError(
        f"no snapshot codec for simulator type {type(sim).__name__}"
    )


def _restore_simulator_state(sim: Any, state: Dict[str, Any], cycle: int) -> None:
    label = state.get("simulator")
    if isinstance(sim, HILSimulator):
        expected = "hil"
    elif isinstance(sim, NanosRuntimeSimulator):
        expected = "nanos"
    else:
        raise SnapshotError(
            f"no snapshot codec for simulator type {type(sim).__name__}"
        )
    if label != expected:
        raise SnapshotError(
            f"snapshot state is for simulator {label!r}, the restore target "
            f"runs {expected!r}"
        )
    _check_lifecycle_log(state.get("log"), cycle, sim.program)
    rows, stamps = _check_timelines(state.get("timelines"), sim.program)
    _restore_timeline_columns(sim, rows, stamps)
    if expected == "hil":
        _restore_hil(sim, state)
    else:
        _restore_nanos(sim, state)


# ----------------------------------------------------------------------
# the snapshot value object
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimulationSnapshot:
    """A frozen, JSON-safe image of one simulation session.

    All fields hold plain JSON-compatible primitives (the request, state
    and result travel as their document forms), so the in-memory snapshot
    and its on-disk serialisation are the same value -- :attr:`digest` is
    stable across a save/load round trip.  The canonical payload text is
    encoded once, on first use, and memoized outside the fields, so treat
    the field values as read-only.  ``==`` compares the seven fields.
    """

    #: ``initial``, ``mid-run`` or ``finished``.
    kind: str
    #: Backend name the session ran on.
    backend: str
    #: Cycle horizon the snapshot was taken at (0 for ``initial``, the
    #: stepper horizon for ``mid-run``, the drain time for ``finished``).
    cycle: int
    #: The session's request as a protocol document (streamed tasks folded
    #: into an inline program, so the restored run needs no side channel).
    request: Dict[str, Any]
    #: Session delivery counters (events delivered / ready / retired seen,
    #: current cycle), restored verbatim.
    counters: Dict[str, int]
    #: Full simulator state (``mid-run`` only).
    state: Optional[Dict[str, Any]]
    #: Full result document (``finished`` only).
    result: Optional[Dict[str, Any]]

    def _encoded(self) -> Tuple[str, str]:
        """The payload's canonical JSON text and its digest, encoded once."""
        memo = self.__dict__.get("_memo")
        if memo is None:
            payload = {
                "kind": self.kind,
                "backend": self.backend,
                "cycle": self.cycle,
                "request": self.request,
                "counters": self.counters,
                "state": self.state,
                "result": self.result,
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            memo = (text, stable_digest(text))
            object.__setattr__(self, "_memo", memo)
        return memo

    @property
    def digest(self) -> str:
        """Content digest over the canonical payload text."""
        return self._encoded()[1]

    def document(self) -> Dict[str, Any]:
        """The on-disk document: the payload text in its versioned envelope."""
        text, digest = self._encoded()
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "digest": digest,
            "payload": text,
        }

    @classmethod
    def from_document(cls, document: Any) -> "SimulationSnapshot":
        """Decode (and verify) a snapshot document.

        Checks the format and the version, hashes the payload string as
        received, then parses it once; the text seeds the memo, so saving
        the loaded snapshot again encodes nothing.  Raises
        :class:`SnapshotError` on a foreign format, an unsupported version,
        a payload that is not a string of JSON text encoding an object, a
        digest mismatch (corruption, or hand-edited state) or a missing
        field.
        """
        if not isinstance(document, dict):
            raise SnapshotError("a snapshot document must be a JSON object")
        if document.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"not a {SNAPSHOT_FORMAT} document "
                f"(format={document.get('format')!r})"
            )
        if document.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {document.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        text = document.get("payload")
        if not isinstance(text, str):
            raise SnapshotError("the snapshot payload is not a string of JSON text")
        try:
            digest = stable_digest(text)
        except UnicodeEncodeError as error:
            raise SnapshotError(
                f"the snapshot payload is not encodable text: {error}"
            ) from None
        if document.get("digest") != digest:
            raise SnapshotError(
                "snapshot digest mismatch: the document was corrupted or "
                "edited after capture"
            )
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as error:
            raise SnapshotError(f"the snapshot payload is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise SnapshotError("the snapshot payload is not a JSON object")
        try:
            snapshot = cls(
                kind=payload["kind"],
                backend=payload["backend"],
                cycle=payload["cycle"],
                request=payload["request"],
                counters=payload["counters"],
                state=payload["state"],
                result=payload["result"],
            )
        except KeyError as error:
            raise SnapshotError(f"snapshot payload misses field {error}") from error
        if snapshot.kind not in (KIND_INITIAL, KIND_MID_RUN, KIND_FINISHED):
            raise SnapshotError(f"unknown snapshot kind {snapshot.kind!r}")
        object.__setattr__(snapshot, "_memo", (text, digest))
        return snapshot


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture(session: SimulationSession) -> SimulationSnapshot:
    """Snapshot ``session`` at its current cycle boundary.

    Copy-on-capture: every piece of mutable state is encoded into fresh
    JSON primitives here, so the snapshot shares nothing with the live
    session.  Valid in any state except closed.
    """
    # Imported here, not at module level: the service package imports this
    # module (server-side checkpoint/restore), so a top-level import of its
    # protocol codecs would be circular.
    from repro.service.protocol import request_to_document, result_to_document

    if session.closed:
        raise SnapshotError("cannot capture a closed session")
    request = session.request
    if session._streamed:
        # Fold streamed tasks into an inline program so the snapshot is
        # self-contained: the restored session re-assembles exactly the
        # program this one would simulate.
        request = dataclasses.replace(
            request, program=InlineProgramRef(session._assembled_program())
        )
    request_document = request_to_document(request)
    counters = {
        "delivered": session._delivered,
        "ready_seen": session._ready_seen,
        "retired_seen": session._retired_seen,
        "current_cycle": session._current_cycle,
    }
    result = session._result
    if result is not None:
        return SimulationSnapshot(
            kind=KIND_FINISHED,
            backend=request.backend,
            cycle=result.drain_time,
            request=request_document,
            counters=counters,
            state=None,
            result=result_to_document(result),
        )
    stepper = session._stepper
    if stepper is None:
        return SimulationSnapshot(
            kind=KIND_INITIAL,
            backend=request.backend,
            cycle=0,
            request=request_document,
            counters=counters,
            state=None,
            result=None,
        )
    return SimulationSnapshot(
        kind=KIND_MID_RUN,
        backend=request.backend,
        cycle=stepper._horizon,
        request=request_document,
        counters=counters,
        state=_simulator_state_document(stepper._sim),
        result=None,
    )


# ----------------------------------------------------------------------
# restore / fork
# ----------------------------------------------------------------------
def _forked_request(snapshot, request, config):  # type: ignore[no-untyped-def]
    if snapshot.kind == KIND_FINISHED:
        raise SnapshotError(
            "cannot fork a finished snapshot: there is nothing left to run"
        )
    if "config" not in request.accepted_parameters():
        raise SnapshotError(
            f"backend {request.backend!r} takes no Picos configuration; "
            "it cannot be forked"
        )
    if snapshot.kind == KIND_MID_RUN:
        old = request.resolved_config()
        if old is None:
            old = PicosConfig()
        for name in _GEOMETRY_FIELDS:
            if getattr(old, name) != getattr(config, name):
                raise SnapshotError(
                    f"cannot fork mid-run: structural field {name!r} differs "
                    f"({getattr(old, name)!r} -> {getattr(config, name)!r}); "
                    "only latency knobs and DM widening may change"
                )
        if old.dm_design.uses_pearson != config.dm_design.uses_pearson:
            raise SnapshotError(
                "cannot fork mid-run across DM hash functions: live "
                "addresses would re-home to different sets"
            )
        if config.dm_design.ways < old.dm_design.ways:
            raise SnapshotError(
                "mid-run forks may widen the DM, never narrow it "
                f"({old.dm_design.ways} -> {config.dm_design.ways} ways)"
            )
    return dataclasses.replace(request, config=config, dm_design=None)


def restore(
    snapshot: SimulationSnapshot, *, config: Optional[PicosConfig] = None
) -> SimulationSession:
    """Rebuild a live session from ``snapshot``.

    The restored session continues bit-exactly where the captured one
    stood: running it to completion yields a result field-for-field equal
    to the uninterrupted run's.  With ``config`` the remainder of a
    mid-run (or the whole of an initial) snapshot executes under the
    modified configuration instead -- see the module docstring for the
    compatibility rules.
    """
    # Lazy for the same layering reason as in capture().
    from repro.service.protocol import request_from_document, result_from_document

    request = request_from_document(snapshot.request)
    if config is not None:
        request = _forked_request(snapshot, request, config)
    session = open_session(request)
    if not isinstance(session, SimulationSession):
        raise SnapshotError(
            f"backend {request.backend!r} opened a "
            f"{type(session).__name__} session, which restore() cannot "
            "populate"
        )
    session._delivered = snapshot.counters.get("delivered", 0)
    session._ready_seen = snapshot.counters.get("ready_seen", 0)
    session._retired_seen = snapshot.counters.get("retired_seen", 0)
    session._current_cycle = snapshot.counters.get("current_cycle", 0)
    if snapshot.kind == KIND_INITIAL:
        return session
    session.seal()
    if snapshot.kind == KIND_FINISHED:
        if config is not None:
            raise SnapshotError(
                "cannot fork a finished snapshot: there is nothing left to run"
            )
        if snapshot.result is None:
            raise SnapshotError("finished snapshot carries no result document")
        session._result = result_from_document(snapshot.result)
        return session
    if snapshot.kind != KIND_MID_RUN:
        raise SnapshotError(f"unknown snapshot kind {snapshot.kind!r}")
    if snapshot.state is None:
        raise SnapshotError("mid-run snapshot carries no state document")
    factory = getattr(session._backend, "make_stepper", None)
    if factory is None:
        raise SnapshotError(
            f"backend {request.backend!r} provides no stepper; a mid-run "
            "snapshot of it cannot exist"
        )
    stepper = factory(
        session._assembled_program(), **session.request.simulate_kwargs()
    )
    _restore_simulator_state(stepper._sim, snapshot.state, snapshot.cycle)
    stepper._horizon = snapshot.cycle
    stepper.finished = stepper._sim.queue.empty
    session._stepper = stepper
    return session


def fork(
    snapshot: SimulationSnapshot, config: PicosConfig
) -> SimulationSession:
    """Resume ``snapshot`` under a modified configuration (what-if run)."""
    return restore(snapshot, config=config)


# ----------------------------------------------------------------------
# on-disk persistence
# ----------------------------------------------------------------------
def save_snapshot(
    snapshot: SimulationSnapshot, path: Union[str, Path]
) -> Path:
    """Write ``snapshot``'s document to ``path`` as one JSON object."""
    target = Path(path)
    target.write_text(
        json.dumps(snapshot.document(), sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def load_snapshot(path: Union[str, Path]) -> SimulationSnapshot:
    """Read, verify and decode a snapshot written by :func:`save_snapshot`."""
    source = Path(path)
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {source}: {error}") from error
    except (ValueError, RecursionError) as error:
        raise SnapshotError(f"{source} is not valid JSON: {error}") from error
    return SimulationSnapshot.from_document(document)
