"""Task and dependence model shared by every simulator in the package.

The OmpSs programming model (Section II-A of the paper) lets the programmer
annotate a function with ``#pragma omp task input(...) output(...)
inout(...)``.  At task-creation time the runtime receives a *work
descriptor*: a task identifier plus, for each dependence, the memory address
of the data it refers to and its direction.  That descriptor is exactly what
the Picos hardware consumes (packets N1/N4 in Figure 3b), so the classes in
this module are the lingua franca between the application generators
(:mod:`repro.apps`), the traces (:mod:`repro.traces`), the software runtime
models (:mod:`repro.runtime`) and the hardware model (:mod:`repro.core`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.dependence_analysis import TaskGraph


class Direction(enum.Enum):
    """Direction of a task dependence, as written in the OmpSs pragma.

    ``IN`` corresponds to ``input(...)`` (the task reads the data), ``OUT``
    to ``output(...)`` (the task overwrites the data) and ``INOUT`` to
    ``inout(...)`` (the task reads and then writes the data).
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def reads(self) -> bool:
        """``True`` if a dependence with this direction reads the data."""
        # Identity checks instead of tuple membership: this property runs
        # once or twice per dependence of every simulated task.
        return self is Direction.IN or self is Direction.INOUT

    @property
    def writes(self) -> bool:
        """``True`` if a dependence with this direction writes the data."""
        return self is Direction.OUT or self is Direction.INOUT

    @classmethod
    def parse(cls, text: str) -> "Direction":
        """Parse a direction from its textual form (``in``/``out``/``inout``).

        A few common synonyms used by OmpSs traces are accepted as well
        (``input``, ``output``, ``r``, ``w``, ``rw``).
        """
        normalized = text.strip().lower()
        aliases = {
            "in": cls.IN,
            "input": cls.IN,
            "r": cls.IN,
            "read": cls.IN,
            "out": cls.OUT,
            "output": cls.OUT,
            "w": cls.OUT,
            "write": cls.OUT,
            "inout": cls.INOUT,
            "rw": cls.INOUT,
            "readwrite": cls.INOUT,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown dependence direction: {text!r}")
        return aliases[normalized]

    def merged_with(self, other: "Direction") -> "Direction":
        """Combine two directions referring to the same address.

        OmpSs collapses repeated dependences on the same address inside one
        task into a single dependence whose direction is the union of the
        accesses; this helper implements that union.
        """
        if self is other:
            return self
        return Direction.INOUT


@dataclass(frozen=True)
class Dependence:
    """A single data dependence of a task.

    Attributes
    ----------
    address:
        Base memory address of the data the dependence refers to.  The Picos
        hardware matches dependences by address (the DM ``Tag``), so the
        address is the identity of the data.
    direction:
        Whether the task reads, writes or reads-and-writes the data.
    """

    address: int
    direction: Direction

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("dependence address must be non-negative")

    @property
    def is_consumer(self) -> bool:
        """``True`` when the dependence only reads the data (``input``)."""
        return self.direction is Direction.IN

    @property
    def is_producer(self) -> bool:
        """``True`` when the dependence writes the data (``output``/``inout``)."""
        return self.direction.writes


@dataclass
class Task:
    """A single task instance, as created by the master thread.

    Attributes
    ----------
    task_id:
        Unique identifier of the task within a :class:`TaskProgram`.
    dependences:
        The task's dependences, in pragma order.  Repeated addresses are
        merged (their directions are combined) exactly as Nanos++ does, so
        one task never carries two dependences on the same address.
    duration:
        Execution time of the task body in cycles, as obtained from the
        instrumented sequential execution (Table I ``AveTSize`` is the mean
        of these values for a benchmark).
    creation_cycles:
        Cycles the master thread spends creating the task work descriptor
        before it can be submitted (used by the full-system mode).
    label:
        Optional human-readable task-type label (``"potrf"``, ``"gemm"``,
        ...) used by reports and tests.
    """

    task_id: int
    dependences: List[Dependence] = field(default_factory=list)
    duration: int = 1
    creation_cycles: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if self.duration < 0:
            raise ValueError("task duration must be non-negative")
        if self.creation_cycles < 0:
            raise ValueError("creation_cycles must be non-negative")
        # The task's own list, holding the caller's (often shared)
        # Dependence values; only a repeated address builds new ones.
        dependences = list(self.dependences)
        if len({dep.address for dep in dependences}) != len(dependences):
            dependences = _merge_dependences(dependences)
        self.dependences = dependences

    @property
    def num_dependences(self) -> int:
        """Number of (merged) dependences the task carries."""
        return len(self.dependences)

    @property
    def addresses(self) -> Tuple[int, ...]:
        """Addresses referenced by the task, in dependence order."""
        return tuple(dep.address for dep in self.dependences)

    def reads(self) -> Tuple[int, ...]:
        """Addresses the task reads (``input`` and ``inout`` dependences)."""
        return tuple(d.address for d in self.dependences if d.direction.reads)

    def writes(self) -> Tuple[int, ...]:
        """Addresses the task writes (``output`` and ``inout`` dependences)."""
        return tuple(d.address for d in self.dependences if d.direction.writes)


class DependencePool:
    """One shared :class:`Dependence` per distinct (address, direction).

    A program carries many dependences on few distinct values: the blocked
    ``cholesky/32`` has 133 120 dependences on 4 159 of them.  A generator
    or trace loader asks one pool, which lives as long as the build, for
    every dependence, so the program holds each value once.  The pool keeps
    one table per direction, keyed by address: the enum is never hashed.
    """

    __slots__ = ("_input", "_output", "_inout")

    def __init__(self) -> None:
        self._input: Dict[int, Dependence] = {}
        self._output: Dict[int, Dependence] = {}
        self._inout: Dict[int, Dependence] = {}

    def input(self, address: int) -> Dependence:
        """The ``input`` dependence on ``address``."""
        dep = self._input.get(address)
        if dep is None:
            dep = self._input[address] = Dependence(address, Direction.IN)
        return dep

    def output(self, address: int) -> Dependence:
        """The ``output`` dependence on ``address``."""
        dep = self._output.get(address)
        if dep is None:
            dep = self._output[address] = Dependence(address, Direction.OUT)
        return dep

    def inout(self, address: int) -> Dependence:
        """The ``inout`` dependence on ``address``."""
        dep = self._inout.get(address)
        if dep is None:
            dep = self._inout[address] = Dependence(address, Direction.INOUT)
        return dep

    def get(self, address: int, direction: Direction) -> Dependence:
        """The dependence on ``address`` with ``direction``."""
        if direction is Direction.IN:
            return self.input(address)
        if direction is Direction.OUT:
            return self.output(address)
        return self.inout(address)


def _merge_dependences(dependences: Sequence[Dependence]) -> List[Dependence]:
    """Merge dependences on the same address, combining their directions."""
    merged: Dict[int, Direction] = {}
    order: List[int] = []
    for dep in dependences:
        if dep.address in merged:
            merged[dep.address] = merged[dep.address].merged_with(dep.direction)
        else:
            merged[dep.address] = dep.direction
            order.append(dep.address)
    return [Dependence(address, merged[address]) for address in order]


class TaskProgram:
    """An ordered stream of task creations.

    A :class:`TaskProgram` is what the master thread of an OmpSs application
    produces: tasks in *creation order*, each with its dependences and its
    measured execution time.  It is the single input format consumed by the
    Picos simulator, the Nanos++ model and the Perfect simulator, which makes
    head-to-head comparisons meaningful (exactly the trace-driven methodology
    of Section IV-A of the paper).
    """

    def __init__(self, tasks: Optional[Iterable[Task]] = None, name: str = "") -> None:
        self.name = name
        self._tasks: List[Task] = []
        #: Task id -> position in ``_tasks`` (see :meth:`rows`).
        self._rows: Dict[int, int] = {}
        #: Memoized dependence graph (see
        #: :func:`repro.runtime.dependence_analysis.task_graph`).
        self._graph: Optional["TaskGraph"] = None
        if tasks is not None:
            for task in tasks:
                self.add_task(task)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Append ``task`` to the creation stream.

        Raises ``ValueError`` if a task with the same identifier is already
        part of the program.  Drops the memoized dependence graph, so the
        next :func:`~repro.runtime.dependence_analysis.task_graph` call
        sees the new task.
        """
        if task.task_id in self._rows:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._rows[task.task_id] = len(self._tasks)
        self._tasks.append(task)
        self._graph = None
        return task

    def create_task(
        self,
        dependences: Sequence[Dependence] = (),
        duration: int = 1,
        creation_cycles: int = 0,
        label: str = "",
    ) -> Task:
        """Create and append a task, assigning the next free identifier."""
        task = Task(
            task_id=len(self._tasks),
            dependences=dependences,  # type: ignore[arg-type]  # Task copies it once
            duration=duration,
            creation_cycles=creation_cycles,
            label=label,
        )
        return self.add_task(task)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def task(self, task_id: int) -> Task:
        """Return the task with identifier ``task_id``."""
        return self._tasks[self._rows[task_id]]

    def rows(self) -> Dict[int, int]:
        """Each task id's position in creation order, keyed in that order.

        The simulators index their per-task timeline columns by these
        positions: task ids of inline and streamed programs are
        client-chosen keys, not dense indices.  The map is the program's
        own, grown by :meth:`add_task`; treat it as read-only.
        """
        return self._rows

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The tasks of the program, in creation order."""
        return tuple(self._tasks)

    # ------------------------------------------------------------------
    # aggregate properties (the columns of Table I)
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Total number of tasks (Table I ``#Tasks``)."""
        return len(self._tasks)

    @property
    def sequential_cycles(self) -> int:
        """Sum of all task durations (Table I ``SeqExec``)."""
        return sum(task.duration for task in self._tasks)

    @property
    def average_task_size(self) -> float:
        """Mean task duration in cycles (Table I ``AveTSize``)."""
        if not self._tasks:
            return 0.0
        return self.sequential_cycles / len(self._tasks)

    @property
    def dependence_count_range(self) -> Tuple[int, int]:
        """Minimum and maximum number of dependences per task (Table I ``#Dep``)."""
        if not self._tasks:
            return (0, 0)
        counts = [task.num_dependences for task in self._tasks]
        return (min(counts), max(counts))

    @property
    def average_dependences(self) -> float:
        """Mean number of dependences per task."""
        if not self._tasks:
            return 0.0
        return sum(t.num_dependences for t in self._tasks) / len(self._tasks)

    @property
    def max_dependences(self) -> int:
        """Largest number of dependences carried by any single task."""
        if not self._tasks:
            return 0
        return max(t.num_dependences for t in self._tasks)

    def unique_addresses(self) -> Tuple[int, ...]:
        """All distinct dependence addresses, in first-appearance order."""
        seen: Dict[int, None] = {}
        for task in self._tasks:
            for dep in task.dependences:
                seen.setdefault(dep.address, None)
        return tuple(seen.keys())

    def summary(self) -> Dict[str, object]:
        """A small dictionary of the Table I columns for this program."""
        lo, hi = self.dependence_count_range
        return {
            "name": self.name,
            "num_tasks": self.num_tasks,
            "dep_range": (lo, hi),
            "avg_task_size": self.average_task_size,
            "sequential_cycles": self.sequential_cycles,
        }

    def with_creation_order(self, order: Sequence[int]) -> "TaskProgram":
        """Return a copy of the program with tasks re-created in ``order``.

        ``order`` is a permutation of task identifiers.  This is the
        mechanism behind the *Modified Lu* experiment of Figure 9, where the
        creation order of the row-panel tasks is reversed to avoid the
        last-consumer wake-up corner case.
        """
        if sorted(order) != sorted(self._rows):
            raise ValueError("order must be a permutation of the task ids")
        reordered = TaskProgram(name=self.name)
        for task_id in order:
            reordered.add_task(self.task(task_id))
        return reordered
