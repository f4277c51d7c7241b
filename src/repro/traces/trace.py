"""Task-trace format.

A trace records, for every task of an instrumented sequential execution:

* the task identification,
* its dependences (memory address and direction),
* the task-creation latency in cycles,
* the task execution time in cycles.

That is exactly the information the paper's traces carry (Section IV-A).
:class:`TaskTrace` is a thin, serialisable view over a
:class:`~repro.runtime.task.TaskProgram`; the plain-text format makes it
easy to persist generated workloads, diff them and feed them back into any
of the simulators.

Text format (one line per record)::

    # picos-trace v1 name=<program name>
    task <id> dur=<cycles> create=<cycles> label=<label>
    dep <address-hex> <in|out|inout>
    ...

``dep`` lines always follow the ``task`` line they belong to.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, TextIO, Union

from repro.runtime.task import Dependence, DependencePool, Direction, Task, TaskProgram

_HEADER_PREFIX = "# picos-trace v1"

#: The integer ``task`` fields: trace key -> :class:`Task` field.
_CYCLE_FIELDS = {"dur": "duration", "create": "creation_cycles"}


class TraceFormatError(ValueError):
    """Raised when a trace file does not follow the expected format."""


class TaskTrace:
    """A serialisable task trace wrapping a :class:`TaskProgram`."""

    def __init__(self, program: TaskProgram) -> None:
        self.program = program

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the traced program."""
        return self.program.name

    def __len__(self) -> int:
        return self.program.num_tasks

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task], name: str = "") -> "TaskTrace":
        """Build a trace directly from an iterable of tasks."""
        return cls(TaskProgram(tasks, name=name))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def dump(self, stream: TextIO) -> None:
        """Write the trace to a text stream."""
        stream.write(f"{_HEADER_PREFIX} name={self.program.name}\n")
        for task in self.program:
            stream.write(
                f"task {task.task_id} dur={task.duration} "
                f"create={task.creation_cycles} label={task.label}\n"
            )
            for dep in task.dependences:
                stream.write(f"dep {dep.address:#x} {dep.direction.value}\n")

    def dumps(self) -> str:
        """Serialise the trace to a string."""
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def parse(cls, stream: TextIO) -> "TaskTrace":
        """Parse a trace from a text stream."""
        header = stream.readline()
        if not header.startswith(_HEADER_PREFIX):
            raise TraceFormatError("missing picos-trace header")
        name = ""
        if "name=" in header:
            name = header.split("name=", 1)[1].strip()
        program = TaskProgram(name=name)
        pool = DependencePool()
        current: List[Dependence] = []
        pending_task: dict | None = None

        def flush() -> None:
            nonlocal pending_task, current
            if pending_task is None:
                return
            try:
                program.add_task(Task(dependences=current, **pending_task))
            except ValueError as exc:  # a negative or repeated value
                raise TraceFormatError(f"line {task_line}: {exc}") from exc
            pending_task = None
            current = []

        for line_number, raw in enumerate(stream, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "task":
                flush()
                pending_task = _parse_task_line(fields, line_number)
                task_line = line_number
            elif fields[0] == "dep":
                if pending_task is None:
                    raise TraceFormatError(
                        f"line {line_number}: dependence before any task"
                    )
                current.append(_parse_dep_line(fields, line_number, pool))
            else:
                raise TraceFormatError(
                    f"line {line_number}: unknown record {fields[0]!r}"
                )
        flush()
        return cls(program)

    @classmethod
    def parses(cls, text: str) -> "TaskTrace":
        """Parse a trace from a string."""
        return cls.parse(io.StringIO(text))


def _parse_task_line(fields: List[str], line_number: int) -> dict:
    if len(fields) < 2:
        raise TraceFormatError(f"line {line_number}: malformed task record")
    try:
        task_id = int(fields[1])
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: bad task id") from exc
    record = {"task_id": task_id, "duration": 1, "creation_cycles": 0, "label": ""}
    for field in fields[2:]:
        if "=" not in field:
            raise TraceFormatError(f"line {line_number}: bad task field {field!r}")
        key, value = field.split("=", 1)
        if key == "label":
            record["label"] = value
        elif key in _CYCLE_FIELDS:
            try:
                record[_CYCLE_FIELDS[key]] = int(value)
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {line_number}: bad {key} value {value!r}"
                ) from exc
        else:
            raise TraceFormatError(f"line {line_number}: unknown task field {key!r}")
    return record


def _parse_dep_line(
    fields: List[str], line_number: int, pool: DependencePool
) -> Dependence:
    if len(fields) != 3:
        raise TraceFormatError(f"line {line_number}: malformed dep record")
    try:
        address = int(fields[1], 0)
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: bad dep address") from exc
    try:
        return pool.get(address, Direction.parse(fields[2]))
    except ValueError as exc:  # a negative address or an unknown direction
        raise TraceFormatError(f"line {line_number}: {exc}") from exc


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_trace(trace: TaskTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` and return the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as stream:
        trace.dump(stream)
    return path


def load_trace(path: Union[str, Path]) -> TaskTrace:
    """Read a trace previously written with :func:`save_trace`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as stream:
        return TaskTrace.parse(stream)
