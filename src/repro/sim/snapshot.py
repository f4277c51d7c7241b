"""Checkpoint/restore snapshots of sliced simulation sessions.

A :class:`SimulationSnapshot` freezes everything a resumable run needs --
the request, the engine's pending event schedule, the accelerator (or
software-runtime) state and the session's delivery counters -- into plain
JSON-safe primitives, so that :func:`restore` can rebuild a session that
continues *bit-exactly* where the captured one stood: same makespan, same
per-task timelines, same hardware counters, same lifecycle-event stream.
The differential net in ``tests/test_snapshot.py`` and
``tests/test_differential.py`` pins this for every backend and at every
event boundary.

Three snapshot kinds cover a session's lifecycle:

``initial``
    Taken before the first :meth:`~repro.sim.session.SimulationSession.
    advance`; only the (fully assembled) request is stored.  Restoring
    yields a fresh session.
``mid-run``
    Taken between ``advance`` slices at the stepper's cycle horizon; the
    complete mutable simulator state travels in the ``state`` document.
``finished``
    Taken after the run completed; the full result document is stored and
    restoring yields a finished session serving it.

Copy-on-capture
---------------

:func:`capture` encodes all mutable state into fresh lists and dictionaries,
so closing or advancing the captured session cannot invalidate a snapshot.

Canonical state schema
----------------------

The accelerator state travels as the flat datapath's own columns (see
``docs/datapath.md``): ``-1`` sentinels for absent handles, packed slot
handles (``trs_id * per_trs + tm_index * stride + dep_index``) for slot
references, and invalid entries normalised to their post-allocation reset
values (which every allocation path overwrites before reading, so the
normalisation is invisible to the simulation).

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
the schema version, the payload as one string of canonical JSON, encoded
once, and a :func:`~repro.core.hashing.stable_digest` over that string,
which :meth:`SimulationSnapshot.from_document` checks as it reads.  A
digest cannot vouch for a document someone edited and re-stamped, so every
field of the payload is checked against the restore schema below before
the session uses it.
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
from repro.core.stats import PicosStats
from repro.faults.payloads import (
    FAULT_REDELIVER,
    FAULT_TIMER,
    TIMER_KILL,
    TIMER_REJOIN,
    FaultRedeliver,
    FaultTimer,
)
from repro.faults.plan import LOG_FAULT_INJECTED, LOG_FAULT_RECOVERED
from repro.faults.scenario import FaultKind
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Task, TaskProgram
from repro.sim.hil import HILSimulator
from repro.sim.request import InlineProgramRef
from repro.sim.session import _EVENT_CLASSES, EngineStepper, SimulationSession, open_session

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
SNAPSHOT_VERSION = 4

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

#: PicosStats counters in dataclass order.
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(PicosStats))


class SnapshotError(RuntimeError):
    """A snapshot could not be captured, decoded, restored or forked."""


# ----------------------------------------------------------------------
# the restore schema
# ----------------------------------------------------------------------
# Every payload field is checked against these tables before restore uses
# it; consistency rules then cover what a shape check cannot.  A table is a
# dict (exactly its keys, in order; ``faults`` only if the plan arms faults),
# a tuple (a fixed-length row), a _List, a _OneOf or a _Leaf.  A bound is
# an int, a name in the walk's context or a function of it: the context holds
# the program, the workers, the armed faults, the snapshot cycle, the restore
# target's geometry (a fork may widen the DM and VM) and stored header fields.
class _Refused(Exception):
    def __init__(self, message: str = "") -> None:
        super().__init__(message)
        self.path: List[Any] = []  # innermost key first


def _bound(bound: Any, c: Dict[str, Any]) -> Any:
    return c[bound] if type(bound) is str else bound(c) if callable(bound) else bound


def _check(spec: Any, value: Any, c: Dict[str, Any]) -> None:
    if type(spec) is dict:
        keys = [key for key in spec if key != "faults" or c["faults"]]
        if type(value) is not dict or value.keys() != set(keys):
            raise _Refused(f"is not an object of {', '.join(keys)}")
        items: Iterable[Tuple[Any, Any]] = ((key, spec[key]) for key in keys)
    elif type(spec) is tuple:
        if type(value) is not list or len(value) != len(spec):
            raise _Refused(f"{value!r:.40} is not a list of {len(spec)}")
        items = enumerate(spec)
    else:
        return spec.check(value, c)
    for key, item in items:
        try:
            _check(item, value[key], c)
        except _Refused as refused:
            refused.path.append(key)
            raise


def _accepts(spec: Any, values: List[Any], c: Dict[str, Any]) -> bool:
    """Whether all of ``values`` fit ``spec``, tested in bulk."""
    if type(spec) is tuple:
        return set(map(type, values)) <= {list} and set(map(len, values)) <= {len(spec)} and all(
            _accepts(item, list(map(operator.itemgetter(i), values)), c)
            for i, item in enumerate(spec)
        )
    return type(spec) is not dict and spec.accepts(values, c)


def _check_all(spec: Any, values: List[Any], c: Dict[str, Any]) -> None:
    if not _accepts(spec, values, c):
        for index, value in enumerate(values):  # to name the refused one
            try:
                _check(spec, value, c)
            except _Refused as refused:
                refused.path.append(index)
                raise


class _Leaf:
    """A scalar that ``accepts`` tests a column at a time, in bulk."""

    def __init__(self, accepts: Any, why: str, store: Optional[str] = None) -> None:
        self.accepts, self.why, self.store = accepts, why, store

    def check(self, value: Any, c: Dict[str, Any]) -> None:
        if not self.accepts((value,), c):
            raise _Refused(f"{value!r:.40} {self.why.format(**c)}")
        if self.store is not None:
            c[self.store] = value


class _List:
    """``item``s, ``length`` of them if given, at least ``least``, ``distinct``
    (or distinct in a column)."""

    def __init__(self, item: Any, length: Any = None, distinct: Any = None, least: int = 0) -> None:
        self.item, self.length, self.distinct, self.least = item, length, distinct, least

    def check(self, value: Any, c: Dict[str, Any]) -> None:
        if type(value) is not list:
            raise _Refused(f"{value!r:.40} is not a list")
        length = _bound(self.length, c)
        if length is not None and len(value) != length:
            raise _Refused(f"holds {len(value)} entries, not {length}")
        if len(value) < self.least:
            raise _Refused(f"holds {len(value)} entries, not at least {self.least}")
        _check_all(self.item, value, c)
        if self.distinct is not None:
            keys = value if self.distinct is True else [row[self.distinct] for row in value]
            if len(set(keys)) != len(keys):
                raise _Refused("holds an entry twice")

    def accepts(self, values: List[Any], c: Dict[str, Any]) -> bool:
        return self.length is self.distinct is None and set(map(type, values)) <= {list} and (
            min(map(len, values), default=self.least) >= self.least
            and _accepts(self.item, list(itertools.chain.from_iterable(values)), c)
        )


class _OneOf:
    """A list whose entry at ``position`` picks the table of the whole."""

    def __init__(self, position: int, options: Dict[str, Any]) -> None:
        self.position, self.options = position, options

    def _pick(self, value: Any) -> Any:
        key = value[self.position] if type(value) is list and len(value) > self.position else 0
        return key if type(key) is str and key in self.options else None

    def check(self, value: Any, c: Dict[str, Any]) -> None:
        if self._pick(value) is None:
            raise _Refused(f"{value!r:.60} is not one of {', '.join(self.options)}")
        _check(self.options[self._pick(value)], value, c)

    def accepts(self, values: List[Any], c: Dict[str, Any]) -> bool:
        keys = list(map(self._pick, values))
        return None not in keys and all(
            _accepts(self.options[key], [v for v, k in zip(values, keys) if k == key], c)
            for key in dict.fromkeys(keys)
        )


def _or_null(leaf: _Leaf) -> _Leaf:
    return _Leaf(lambda values, c: leaf.accepts([v for v in values if v is not None], c), leaf.why)


def _int(lo: Any = 0, hi: Any = None, why: str = "", store: Optional[str] = None) -> _Leaf:
    """A plain ``int`` (a ``bool`` is refused) in ``[lo, hi]``."""

    def accepts(values: Any, c: Dict[str, Any]) -> bool:
        low, high = _bound(lo, c), _bound(hi, c)
        return set(map(type, values)) <= {int} and (not values or (
            (low is None or min(values) >= low) and (high is None or max(values) <= high)
        ))

    words = [f"{word} {{{b}}}" if type(b) is str else f"{word} {b}" for word, b in (
        (" of at least", lo), (" and at most", hi)) if b is not None]
    return _Leaf(accepts, why or "is not an integer" + "".join(words), store)


def _index(size: str, what: str, lo: int = 0) -> _Leaf:
    """An index below the context's ``size`` (and ``-1`` for none if ``lo`` is)."""
    return _int(lo, lambda c: c[size] - 1, f"names no {what} of the {{{size}}}")


def _is(*options: Any) -> _Leaf:
    """One of ``options``, of its exact type (``True`` is not ``1``)."""
    pairs = [(type(option), option) for option in options]
    why = "is not one of " + ", ".join(map(repr, options))
    return _Leaf(lambda values, c: all((type(v), v) in pairs for v in values), why)


def _tasks(values: Any, c: Dict[str, Any]) -> bool:
    return set(map(type, values)) <= {int} and all(map(c["rows"].__contains__, values))


def _dm_ways(c: Dict[str, Any]) -> int:
    return c["dm_sets"] * c["ways"]


ANY, COUNT = _Leaf(lambda values, c: True, ""), _int()
BOOL = _Leaf(lambda values, c: set(map(type, values)) <= {bool}, "is not a bool")
STR = _Leaf(lambda values, c: set(map(type, values)) <= {str}, "is not a string")
FLOAT = _Leaf(lambda values, c: set(map(type, values)) <= {float}, "is not a float")
TASK = _Leaf(_tasks, "names no task of the program")
TASK_OR_NONE = _Leaf(  # -1: a free TM entry, or a fault event that names no task
    lambda values, c: _tasks([v for v in values if type(v) is not int or v != -1], c),
    "names no task of the program, nor is it -1",
)
WORKER, FAULT = _index("workers", "worker"), _index("faults", "fault")
TRS, TM_INDEX = _index("num_trs", "TRS"), _index("tm_entries", "TM entry")
VM_INDEX = _index("vm", "VM entry")
SLOT, VERSION = _index("slots", "slot", -1), _index("vm", "VM entry", -1)
LATER = _int(lambda c: c["cycle"] + 1, why="is not an integer after the snapshot cycle {cycle}")
DEPS, IDS = _int(0, "max_deps_per_task"), _List(_int(None))


def _queue(events: Dict[str, Any], timers: Dict[str, Any]) -> Dict[str, Any]:
    """``[kind, payload]`` events, the payload's table picked by the kind; a fault
    timer carries its tag's argument, a redelivery the kind it withheld."""
    events = dict(events, **{
        FAULT_TIMER: _OneOf(2, {tag: (_is("fto"), FAULT, ANY, arg) for tag, arg in timers.items()}),
        FAULT_REDELIVER: _OneOf(2, {k: (_is("frd"), FAULT, ANY, i) for k, i in events.items()}),
    })
    return {
        "now": _int(0, "cycle"), "processed": COUNT,
        "current": _List(ANY, 0),  # every slice drains the bucket it detached
        # Capture never writes an empty bucket, and delivery reads the first
        # event of every bucket it detaches.
        "buckets": _List((LATER, _List(_OneOf(0, {k: (ANY, i) for k, i in events.items()}),
                                       least=1)), distinct=0),
    }


_TIMELINES = {"ids": IDS, "stamps": (IDS,) * 5}
_LOG = _List((LATER, _int(0, len(_EVENT_CLASSES) - 1), TASK_OR_NONE))
_FAULTS = {
    "armed": BOOL, "injected": COUNT, "recovered": COUNT, "last_completion": _int(-1, "cycle"),
    "scenarios": _List({
        "fires": COUNT, "injected": COUNT, "recovered": COUNT,
        # random.getstate(): version 3, 624 words and a position, gauss_next
        "rng": (_is(3), (_int(0, 2**32 - 1),) * 624 + (_int(0, 624),), _or_null(FLOAT)),
        "killed": _List((WORKER, TASK)), "awaiting": _List(TASK, distinct=True),
        "watching": _or_null(WORKER),
    }, "faults"),
}
_TM = {
    "entries": _int("tm_entries", "tm_entries"),
    "stride": _int("max_deps_per_task", "max_deps_per_task"),
    "valid": _List(BOOL, "tm_entries"), "task_id": _List(TASK_OR_NONE, "tm_entries"),
    "num_deps": _List(DEPS, "tm_entries"), "ready_deps": _List(DEPS, "tm_entries"),
    "dep_count": _List(DEPS, "tm_entries"), "slot_address": _List(COUNT, "tm_slots"),
    "slot_vm_index": _List(VERSION, "tm_slots"), "slot_ready": _List(BOOL, "tm_slots"),
    "slot_predecessor": _List(SLOT, "tm_slots"), "slot_is_producer": _List(BOOL, "tm_slots"),
    "free": _List(TM_INDEX, distinct=True),
}
_DCT = {  # the VM first: DM ways and TM slots hold its indices
    "vm": {
        "entries": _int(1, "effective_vm_entries", store="vm"), "valid": _List(BOOL, "vm"),
        "address": _List(COUNT, "vm"), "producer": _List(SLOT, "vm"),
        "producer_finished": _List(BOOL, "vm"), "last_consumer": _List(SLOT, "vm"),
        "consumers_arrived": _List(_int(0, "arrivals"), "vm"),
        "consumers_finished": _List(_int(0, "arrivals"), "vm"),
        "next_version": _List(VERSION, "vm"), "free": _List(VM_INDEX, distinct=True),
    },
    "dm": {
        "sets": _int("dm_sets", "dm_sets"), "ways": _int(1, "dm_ways", store="ways"),
        "valid": _List(BOOL, _dm_ways), "input_only": _List(BOOL, _dm_ways),
        "tag": _List(_int(-1), _dm_ways), "latest": _List(VERSION, _dm_ways),
        "live": _List(_int(0, "vm"), _dm_ways),
    },
    "blocked": _List(COUNT, distinct=True),
}
_HIL_STATE = {
    "simulator": _is("hil"),
    "queue": _queue({
        "task-visible": TASK,
        "worker-done": (_is("t"), WORKER, TASK),
        "master-done": _OneOf(1, {
            "create": (_is("j"), ANY, (_is("task"), TASK)),
            "dispatch": (_is("j"), ANY, (_is("t"), TASK, WORKER)),
            "finish": (_is("j"), ANY, TASK),
        }),
    }, {TIMER_KILL: _is(None)}),
    "timelines": _TIMELINES, "log": _LOG, "pending_new": _int(0, "tasks"),
    "new_free_at": COUNT, "finish_free_at": COUNT, "master_busy": BOOL,
    "finish_jobs": _List(TASK), "dispatch_jobs": _List((TASK, WORKER)),
    "next_create_index": _int(0, "tasks"), "finished_tasks": _int(0, "tasks"),
    "submission_blocked": BOOL, "ready": {"queue": _List(TASK), "max_occupancy": COUNT},
    "workers": {"tasks": _List(_or_null(TASK), "workers"), "idle": _List(WORKER, distinct=True)},
    "accel": {
        "stats": _List(COUNT, len(_STATS_FIELDS)),
        "dct": _List(_DCT, "num_dct"),
        "trs": _List(_TM, "num_trs"),
        "gateway": {
            "next_trs": TRS,
            "pending": ANY,  # null, or _PENDING
            "slots": _List((TASK, TRS, TM_INDEX), None, 0),
        },
        "deps_of_task": _List((TASK, DEPS), None, 0),
        "submitted": COUNT, "finished": COUNT,
    },
    "faults": _FAULTS,
}
_PENDING = {
    "task": TASK, "trs": TRS, "tm_index": TM_INDEX, "next_dep_index": DEPS,
    "reason": _is(None, *(reason.value for reason in StallReason)), "retries": COUNT,
}
_NANOS_STATE = {
    "simulator": _is("nanos"),
    "queue": _queue({
        "submitted": TASK, "task-done": (_is("t"), WORKER, TASK), "master-joins": (_is("none"),),
    }, {TIMER_KILL: _is(None), TIMER_REJOIN: WORKER}),
    "timelines": _TIMELINES, "log": _LOG, "master_joins_at": COUNT,
    "idle_workers": _List(WORKER, distinct=True),
    "remaining_preds": _List((TASK, COUNT), "tasks", 0),
    "submitted": _List(TASK, distinct=True), "ready_pool": _List(TASK),
    "finished": _int(0, "tasks"), "makespan": COUNT,
    "faults": _FAULTS,
}
_PAYLOAD = {
    "kind": _is(KIND_INITIAL, KIND_MID_RUN, KIND_FINISHED), "backend": STR,
    "cycle": _int(store="cycle"), "request": ANY,
    "counters": {"delivered": COUNT, "ready_seen": COUNT, "retired_seen": COUNT,
                 "current_cycle": _int(0, "cycle")},
    "state": ANY, "result": ANY,
}


def _walk(spec: Any, value: Any, c: Dict[str, Any], where: str) -> None:
    """Check ``value``, found at ``where``, against ``spec``."""
    try:
        _check(spec, value, c)
    except _Refused as refused:
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(refused.path))
        raise SnapshotError(f"{where}{path} {refused}") from None


def _rule(message: str) -> SnapshotError:
    return SnapshotError(f"inconsistent state: {message}")


def _queued(state: Dict[str, Any], kind: str, c: Dict[str, Any]) -> List[Any]:
    """The queued ``kind`` events' payloads, withheld ones too (not a duplicate's echo)."""
    events = [event for _, bucket in state["queue"]["buckets"] for event in bucket]
    return [payload for event_kind, payload in events if event_kind == kind] + [
        payload[3] for event_kind, payload in events
        if event_kind == FAULT_REDELIVER and payload[2] == kind and payload[1] not in c["echoes"]
    ]


def _check_hil_rules(state: Dict[str, Any], c: Dict[str, Any]) -> None:
    """The TM, Gateway, master, ready queues and workers agree where each task is,
    and each TM's and VM's free list holds exactly its invalid entries."""
    accel, gateway, in_tm, valid = state["accel"], state["accel"]["gateway"], {}, 0
    for trs, tm in enumerate(accel["trs"]):
        for index in itertools.compress(range(tm["entries"]), tm["valid"]):
            deps, valid = tm["num_deps"][index], valid + 1
            in_tm[tm["task_id"][index]] = (trs, index, deps, tm["ready_deps"][index] >= deps)
    slots = {task: (trs, index) for task, trs, index in gateway["slots"]}
    if len(in_tm) != valid or slots != {task: at[:2] for task, at in in_tm.items()}:
        raise _rule("the Gateway's slots are not the tasks of the valid TM entries")
    accepted, pending = dict(in_tm), gateway["pending"]
    if pending is not None:  # a stalled submission, the first pending_new row
        _walk(_PENDING, pending, c, "state.accel.gateway.pending")
        if accepted.pop(pending["task"], (None,))[:2] != (pending["trs"], pending["tm_index"]) or (
            pending["next_dep_index"] >= c["program"].task(pending["task"]).num_dependences
        ):
            raise _rule("the Gateway's pending task is not stalled at its TM entry")
    if dict(map(tuple, accel["deps_of_task"])) != {t: at[2] for t, at in accepted.items()}:
        raise _rule("deps_of_task are not the accepted tasks and their dependence counts")
    # Tasks are created in program order and wait in pending_new, in that
    # order, until the Gateway accepts them: its count names the program
    # rows just before those of the create jobs still queued.
    created = c["tasks"] if c["hw_only"] else state["next_create_index"]
    creating = sum(job[1] == "create" for job in _queued(state, "master-done", c))
    count, rows = state["pending_new"], c["rows"]
    start = c["pending_start"] = created - creating - count
    if count + creating + len(accepted) + accel["finished"] != created or any(
        start <= rows[task] < start + count for task in accepted
    ):
        raise _rule("pending_new, the TM and the finished tasks do not hold each created task once")
    if pending is not None and (not count or rows[pending["task"]] != start):
        raise _rule("the Gateway's pending task is not the first pending_new row")
    current = state["workers"]["tasks"]
    groups = [state["ready"]["queue"], state["finish_jobs"]]
    groups.append([task for task in current if task is not None])
    tasks = set(itertools.chain(*groups))
    if len(tasks) != sum(map(len, groups)) or not all(t in in_tm and in_tm[t][3] for t in tasks):
        raise _rule("the ready queues, workers and finish jobs do not hold distinct ready TM tasks")
    if any(current[worker] != task for task, worker in state["dispatch_jobs"]):
        raise _rule("a dispatch job's worker is not reserved for its task")
    if set(state["workers"]["idle"]) != {w for w, task in enumerate(current) if task is None}:
        raise _rule("the idle workers are not the workers without a task")
    scenarios = state.get("faults", {}).get("scenarios", ())
    killed = {tuple(pair) for scenario in scenarios for pair in scenario["killed"]}
    for _, worker, task in _queued(state, "worker-done", c):
        if current[worker] != task and (worker, task) not in killed:
            raise _rule(f"a queued worker-done names task {task}, not worker {worker}'s")
    memories = [(f"TRS {i}'s TM", tm) for i, tm in enumerate(accel["trs"])]
    memories += [(f"DCT {i}'s VM", dct["vm"]) for i, dct in enumerate(accel["dct"])]
    for name, memory in memories:  # the walker checked that free is distinct
        if set(memory["free"]) != {i for i, valid in enumerate(memory["valid"]) if not valid}:
            raise _rule(f"{name} free list is not its invalid entries")


def _check_nanos_rules(state: Dict[str, Any], c: Dict[str, Any]) -> None:
    """Submissions, predecessor counts, ready, running and finished tasks agree."""
    rows = c["rows"]
    remaining = c["remaining_preds"] = [0] * c["tasks"]
    for task, count in state["remaining_preds"]:
        remaining[rows[task]] = count
    submitted = c["submitted"] = set(map(rows.__getitem__, state["submitted"]))
    ready = list(map(rows.__getitem__, state["ready_pool"]))
    ready += [rows[payload[2]] for payload in _queued(state, "task-done", c)]  # and running
    if any(row not in submitted or remaining[row] for row in ready) or len(set(ready)) < len(ready):
        raise _rule("the ready and running tasks are not distinct submitted tasks with 0 left")
    done = {row for row in submitted if not remaining[row]}.difference(ready)
    if state["finished"] != len(done):
        raise _rule(f"finished is not the {len(done)} submitted tasks done")
    expected, graph = list(c["graph"].pred_counts), c["graph"]
    for successor in itertools.chain.from_iterable(map(graph.successor_rows, done)):
        expected[successor] -= 1
    if remaining != expected:
        raise _rule("remaining_preds are not each task's unfinished predecessors")


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


def _payload_from_document(document: Any, program: TaskProgram) -> Any:
    """Decode one queued event's payload, already checked by the schema."""
    if type(document) is int:
        return document
    tag = document[0]
    if tag == "none":
        return None
    if tag == "t":
        return (document[1], document[2])
    if tag == "task":
        return program.task(document[1])
    if tag == "j":
        return (document[1], _payload_from_document(document[2], program))
    if tag == "fto":
        return FaultTimer(document[1], document[2], document[3])
    return FaultRedeliver(document[1], document[2], _payload_from_document(document[3], program))


# ----------------------------------------------------------------------
# engine queue codec
# ----------------------------------------------------------------------
def _queue_document(queue: Any) -> Dict[str, Any]:
    current, buckets = queue.snapshot_events()
    return {
        "now": queue.now,
        "processed": queue.processed,
        "current": [
            [queue.now, kind, _payload_to_document(payload)] for kind, payload in current
        ],
        "buckets": [
            [time, [[kind, _payload_to_document(payload)] for kind, payload in events]]
            for time, events in buckets
        ],
    }


def _restore_queue(sim: Any, document: Dict[str, Any]) -> None:
    program = sim.program
    buckets = [
        (time, [(kind, _payload_from_document(p, program)) for kind, p in events])
        for time, events in document["buckets"]
    ]
    sim.queue.restore_events(document["now"], document["processed"], buckets)


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


def _stats_document(stats: PicosStats) -> List[int]:
    return [getattr(stats, name) for name in _STATS_FIELDS]


def _restore_stats(stats: PicosStats, document: List[int]) -> None:
    for name, value in zip(_STATS_FIELDS, document):
        setattr(stats, name, value)


# ----------------------------------------------------------------------
# Task Memory codec (TM0 + TMX)
# ----------------------------------------------------------------------
def _tm_document(tm: Any) -> Dict[str, Any]:
    """The TM's columns; invalid entries and unrecorded slots at their reset values."""
    entries, stride = tm.entries, tm.max_deps_per_task
    total = entries * stride
    document: Dict[str, Any] = {
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
        "free": list(tm._free),
    }
    for index in range(entries):
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
    return document


def _restore_tm(tm: Any, document: Dict[str, Any]) -> None:
    for key in ("valid", "task_id", "num_deps", "ready_deps", "dep_count", "free"):
        getattr(tm, f"_{key}")[:] = document[key]
    for key in ("address", "vm_index", "ready", "predecessor", "is_producer"):
        getattr(tm, f"_slot_{key}")[:] = document[f"slot_{key}"]


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
    }
    for handle in range(total):
        if not dm._valid[handle]:
            continue
        document["valid"][handle] = True
        document["input_only"][handle] = dm._input_only[handle]
        document["tag"][handle] = dm._tag[handle]
        document["latest"][handle] = dm._latest_vm_index[handle]
        document["live"][handle] = dm._live_versions[handle]
    return document


def _restore_dm(dm: Any, document: Dict[str, Any]) -> None:
    # A fork may widen the DM: each set's ways keep their way indices, and
    # the target's ways all start invalid.
    old_ways = document["ways"]
    new_ways = dm.ways_per_set
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
    dm._occupied = sum(document["valid"])  # the count of valid ways, not stored


# ----------------------------------------------------------------------
# Version Memory codec
# ----------------------------------------------------------------------
def _vm_document(vm: Any) -> Dict[str, Any]:
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
    }
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
    return document


def _restore_vm(vm: Any, document: Dict[str, Any], dm: Any) -> None:
    old_entries = document["entries"]
    # A widened VM (DM widening implies a larger effective VM) keeps the
    # captured free list behind the brand-new entries, so recycling order
    # for the surviving entries is untouched and fresh entries hand out in
    # ascending index order, exactly like a cold VM's.
    free = list(range(vm.entries - 1, old_entries - 1, -1)) + document["free"]
    # Columns named like their keys; allocating a free entry rewrites it.
    for key in ("valid", "address", "producer", "producer_finished", "last_consumer"):
        getattr(vm, f"_{key}")[:old_entries] = document[key]
    for key in ("consumers_arrived", "consumers_finished", "next_version"):
        getattr(vm, f"_{key}")[:old_entries] = document[key]
    for index in itertools.compress(range(old_entries), document["valid"]):
        # The DM back-link is a cache of the DM's content; recomputing it
        # (instead of storing it) is what re-homes live versions into a
        # forked, wider DM.
        handle = dm.lookup(document["address"][index])
        if handle < 0:
            raise _rule(f"VM entry {index}'s address is held by no DM way")
        vm._dm_handle[index] = handle
    vm._free[:] = free


# ----------------------------------------------------------------------
# DCT, Gateway, accelerator facade
# ----------------------------------------------------------------------
def _dct_document(dct: Any) -> Dict[str, Any]:
    return {
        "dm": _dm_document(dct.dm),
        "vm": _vm_document(dct.vm),
        "blocked": sorted(dct._blocked_addresses),
    }


def _restore_dct(dct: Any, document: Dict[str, Any]) -> None:
    _restore_dm(dct.dm, document["dm"])
    _restore_vm(dct.vm, document["vm"], dct.dm)
    dct._blocked_addresses = set(document["blocked"])


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
    gateway._pending = None if pending is None else PendingSubmission(
        program.task(pending["task"]), pending["trs"], pending["tm_index"],
        pending["next_dep_index"], pending["reason"] and StallReason(pending["reason"]),
        pending["retries"],
    )
    gateway._slot_of_task = {
        task_id: (trs_id, tm_index)
        for task_id, trs_id, tm_index in document["slots"]
    }


def _accel_document(accel: Any) -> Dict[str, Any]:
    return {
        "stats": _stats_document(accel.stats),
        "trs": [_tm_document(trs.task_memory) for trs in accel.trs_instances],
        "dct": [_dct_document(dct) for dct in accel.dct_instances],
        "gateway": _gateway_document(accel.gateway),
        "deps_of_task": [
            [task_id, accel._deps_of_task[task_id]]
            for task_id in sorted(accel._deps_of_task)
        ],
        "submitted": accel._submitted,
        "finished": accel._finished,
    }


def _restore_accel(accel: Any, document: Dict[str, Any], program: TaskProgram) -> None:
    # All TRS/DCT/Gateway instances share the accelerator's PicosStats
    # object; restoring it once in place keeps that aliasing intact.
    _restore_stats(accel.stats, document["stats"])
    for trs, trs_document in zip(accel.trs_instances, document["trs"]):
        _restore_tm(trs.task_memory, trs_document)
    for dct, dct_document in zip(accel.dct_instances, document["dct"]):
        _restore_dct(dct, dct_document)
    _restore_gateway(accel.gateway, document["gateway"], program)
    accel._deps_of_task = dict(map(tuple, document["deps_of_task"]))
    accel._submitted = document["submitted"]
    accel._finished = document["finished"]


def _workers_document(pool: Any) -> Dict[str, Any]:
    return {"tasks": [w.current_task for w in pool._workers], "idle": list(pool._idle)}


def _restore_workers(pool: Any, document: Dict[str, Any]) -> None:
    for worker, task in zip(pool._workers, document["tasks"]):
        worker.current_task = task
    pool._idle[:] = document["idle"]


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


def _log_document(log: Optional[List[Tuple[int, int, int]]]) -> List[List[int]]:
    """The pending lifecycle log, sorted.

    The stepper keeps these entries as a heap whose layout depends on how
    the run was sliced; sorting makes the document (and so the digest) a
    function of the simulation at the captured cycle alone.
    """
    return [] if log is None else [list(entry) for entry in sorted(log)]


def _hil_state_document(sim: HILSimulator) -> Dict[str, Any]:
    return _fault_plan_document(sim, {
        "simulator": "hil",
        "queue": _queue_document(sim.queue),
        "timelines": _timeline_columns_document(sim),
        "log": _log_document(sim._lifecycle_log),
        "pending_new": len(sim._pending_new),
        "new_free_at": sim._picos_new_free_at,
        "finish_free_at": sim._picos_finish_free_at,
        "master_busy": sim._master_busy,
        "finish_jobs": list(sim._master_finish_jobs),
        "dispatch_jobs": [[task_id, worker] for task_id, worker in sim._master_dispatch_jobs],
        "next_create_index": sim._next_create_index,
        "finished_tasks": sim._finished_tasks,
        "submission_blocked": sim._submission_blocked,
        "ready": {"queue": list(sim.ready._queue), "max_occupancy": sim.ready._max_occupancy},
        "workers": _workers_document(sim.workers),
        "accel": _accel_document(sim.accel),
    })


def _restore_hil(sim: HILSimulator, state: Dict[str, Any], c: Dict[str, Any]) -> None:
    program = sim.program
    sim._prepared = True
    _restore_queue(sim, state["queue"])
    if sim._lifecycle_log is not None:
        sim._lifecycle_log[:] = [tuple(entry) for entry in state["log"]]
    start = c["pending_start"]
    sim._pending_new = deque(itertools.islice(program, start, start + state["pending_new"]))
    sim._picos_new_free_at = state["new_free_at"]
    sim._picos_finish_free_at = state["finish_free_at"]
    sim._master_busy = state["master_busy"]
    sim._master_finish_jobs = deque(state["finish_jobs"])
    sim._master_dispatch_jobs = deque(map(tuple, state["dispatch_jobs"]))
    sim._next_create_index = state["next_create_index"]
    sim._finished_tasks = state["finished_tasks"]
    sim._submission_blocked = state["submission_blocked"]
    sim.ready._queue = deque(state["ready"]["queue"])
    sim.ready._max_occupancy = state["ready"]["max_occupancy"]
    _restore_workers(sim.workers, state["workers"])
    _restore_accel(sim.accel, state["accel"], program)
    if sim._fault_plan is not None:
        sim._fault_plan.restore_state(state["faults"])


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


def _restore_nanos(
    sim: NanosRuntimeSimulator, state: Dict[str, Any], c: Dict[str, Any]
) -> None:
    rows = c["rows"]
    sim._prepared = True
    _restore_queue(sim, state["queue"])
    if sim._lifecycle_log is not None:
        sim._lifecycle_log[:] = [tuple(entry) for entry in state["log"]]
    sim._master_joins_at = state["master_joins_at"]
    sim._idle_workers = list(state["idle_workers"])
    sim._remaining_preds = c["remaining_preds"]
    sim._submitted = [row in c["submitted"] for row in range(c["tasks"])]
    sim._ready_pool = deque(map(rows.__getitem__, state["ready_pool"]))
    sim._finished = state["finished"]
    sim._makespan = state["makespan"]
    if sim._fault_plan is not None:
        sim._fault_plan.restore_state(state["faults"])


def _simulator_state_document(sim: Any) -> Dict[str, Any]:
    if isinstance(sim, HILSimulator):
        return _hil_state_document(sim)
    if isinstance(sim, NanosRuntimeSimulator):
        return _nanos_state_document(sim)
    raise SnapshotError(
        f"no snapshot codec for simulator type {type(sim).__name__}"
    )


def _restore_simulator_state(sim: Any, state: Any, cycle: int) -> None:
    """Check ``state`` against the tables and the rules for ``sim``, a
    freshly built restore target, then restore ``sim`` from it."""
    hil = isinstance(sim, HILSimulator)
    if not hil and not isinstance(sim, NanosRuntimeSimulator):
        raise SnapshotError(f"no snapshot codec for simulator type {type(sim).__name__}")
    program, plan = sim.program, sim._fault_plan
    armed = [] if plan is None else plan.armed_faults
    c = {
        "program": program, "rows": program.rows(), "tasks": program.num_tasks, "cycle": cycle,
        "faults": len(armed), "workers": sim.num_workers if hil else sim.num_threads,
        "graph": None if hil else sim.graph,
        "echoes": {a.index for a in armed if a.scenario.kind is FaultKind.DUPLICATE_EVENT},
    }
    if hil:
        config = sim.config
        c.update((name, getattr(config, name)) for name in _GEOMETRY_FIELDS + ("dm_ways",))
        c.update(effective_vm_entries=config.effective_vm_entries, hw_only=sim._hw_only)
        c["tm_slots"] = config.tm_entries * config.max_deps_per_task
        c.update(slots=config.num_trs * c["tm_slots"], arrivals=c["tasks"] * c["max_deps_per_task"])
    _walk(_HIL_STATE if hil else _NANOS_STATE, state, c, "state")
    ids, stamps = state["timelines"]["ids"], state["timelines"]["stamps"]
    try:
        if min(ids[1:], default=1) < 1 or len(ids) > c["tasks"]:
            raise KeyError
        rows = list(map(c["rows"].__getitem__, itertools.accumulate(ids)))
    except KeyError:
        raise _rule("the timeline ids do not strictly increase through tasks") from None
    decoded = [list(itertools.accumulate(column)) for column in stamps]
    if any(len(column) != len(ids) or column and min(column) < 0 for column in decoded):
        raise _rule("a timeline stamp column does not hold one stamp >= 0 per id")
    if any(task == -1 and order not in (LOG_FAULT_INJECTED, LOG_FAULT_RECOVERED)
           for _, order, task in state["log"]):
        raise _rule("a lifecycle log entry of a task names no task")
    (_check_hil_rules if hil else _check_nanos_rules)(state, c)
    if plan is not None:  # each scenario's open faults are the ones it waits on
        faults = state["faults"]
        waits = [payload[1] for payload in _queued(state, FAULT_REDELIVER, c)]
        waits += [p[1] for p in _queued(state, FAULT_TIMER, c) if p[2] == TIMER_REJOIN]
        for index, scenario in enumerate(faults["scenarios"]):
            awaited = len(scenario["awaiting"]) + (scenario["watching"] is not None)
            if scenario["injected"] - scenario["recovered"] != awaited + waits.count(index):
                raise _rule(f"fault scenario {index}'s open faults are not what it waits on")
        for count in ("injected", "recovered"):
            if faults[count] != sum(scenario[count] for scenario in faults["scenarios"]):
                raise _rule(f"the fault plan's {count} count is not its scenarios' sum")
    prefix = len(rows) if all(map(operator.eq, rows, range(len(rows)))) else 0  # rows 0 .. n-1
    for column, values in zip(_timeline_columns(sim), decoded):  # all zeros so far
        column[:prefix] = values[:prefix]
        for row, value in zip(rows[prefix:], values[prefix:]):
            column[row] = value
    if hil:
        _restore_hil(sim, state, c)
    else:
        _restore_nanos(sim, state, c)


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
        a payload that is not a string of JSON text, a digest mismatch
        (corruption, or hand-edited state) or a payload that ``_PAYLOAD``
        refuses.
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
        _walk(_PAYLOAD, payload, {"faults": 0}, "the payload")
        snapshot = cls(**payload)
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
    from repro.service.protocol import ProtocolError, request_from_document, result_from_document

    try:
        request = request_from_document(snapshot.request)
        if snapshot.kind == KIND_FINISHED and snapshot.result is not None:
            result = result_from_document(snapshot.result)
    except ProtocolError as error:
        raise SnapshotError(f"the snapshot's request or result is refused: {error}") from error
    if snapshot.backend != request.backend:
        raise SnapshotError(f"backend {snapshot.backend!r} is not the request's")
    if config is not None:
        request = _forked_request(snapshot, request, config)
    session = open_session(request)
    session._delivered = snapshot.counters["delivered"]
    session._ready_seen = snapshot.counters["ready_seen"]
    session._retired_seen = snapshot.counters["retired_seen"]
    session._current_cycle = snapshot.counters["current_cycle"]
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
        session._result = result
        return session
    if snapshot.kind != KIND_MID_RUN:
        raise SnapshotError(f"unknown snapshot kind {snapshot.kind!r}")
    if snapshot.state is None:
        raise SnapshotError("mid-run snapshot carries no state document")
    stepper = EngineStepper(session._simulator())
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
