"""Exact software dependence analysis (the reference model).

Nanos++ performs dynamic dependence analysis at task-submission time: for
every dependence address it keeps the last writer and the set of readers
since that writer, and derives the predecessor tasks the new task must wait
for (Section II-A).  The Picos hardware implements the same semantics with
the DM/VM/TMX chain mechanism of Section III.

This module implements those semantics directly on a :class:`TaskProgram`.
It serves three purposes:

* it is the graph builder for the Perfect (roofline) scheduler and the
  Nanos++ software-only model, which share one graph per program through
  :func:`task_graph`;
* it is the *reference* against which the hardware model is validated
  (property-based tests assert that the set of predecessor/successor
  relations realised by the Picos chain mechanism matches this analysis);
* it provides graph metrics (critical path, maximum parallelism) used by the
  experiment drivers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.runtime.task import Task, TaskProgram


@dataclass
class TaskGraph:
    """An explicit task dependence graph.

    ``predecessors[t]`` is the set of task ids that must finish before task
    ``t`` may start; ``successors`` is the inverse relation.  Tasks with no
    predecessors are ready at program start.
    """

    num_tasks: int
    predecessors: Dict[int, Set[int]] = field(default_factory=dict)
    successors: Dict[int, Set[int]] = field(default_factory=dict)
    durations: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for task_id in range(self.num_tasks):
            self.predecessors.setdefault(task_id, set())
            self.successors.setdefault(task_id, set())
            self.durations.setdefault(task_id, 1)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int) -> None:
        """Add a dependence edge ``src -> dst`` (``dst`` waits for ``src``)."""
        if src == dst:
            return
        self.predecessors[dst].add(src)
        self.successors[src].add(dst)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total number of dependence edges."""
        return sum(len(preds) for preds in self.predecessors.values())

    def roots(self) -> List[int]:
        """Tasks with no predecessors (ready at program start)."""
        return [t for t in range(self.num_tasks) if not self.predecessors[t]]

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as ``(src, dst)`` pairs."""
        result: List[Tuple[int, int]] = []
        for dst, preds in self.predecessors.items():
            for src in preds:
                result.append((src, dst))
        return result

    def topological_order(self) -> List[int]:
        """Return the tasks in a topological order.

        Because edges always point from an earlier-created task to a
        later-created one (program order is a valid serialisation), creation
        order itself is a topological order; this method validates that
        property and returns it.
        """
        for dst, preds in self.predecessors.items():
            for src in preds:
                if src >= dst:
                    raise ValueError(
                        f"edge {src}->{dst} violates program-order topology"
                    )
        return list(range(self.num_tasks))

    def critical_path_length(self) -> int:
        """Length (in cycles) of the longest dependence chain.

        This is the makespan an ideal machine with infinitely many workers
        and zero management overhead would achieve -- the asymptote of the
        paper's Perfect Simulator.
        """
        finish: Dict[int, int] = {}
        for task_id in self.topological_order():
            start = 0
            for pred in self.predecessors[task_id]:
                start = max(start, finish[pred])
            finish[task_id] = start + self.durations[task_id]
        return max(finish.values()) if finish else 0

    def max_parallelism(self) -> float:
        """Average available parallelism: total work / critical path."""
        cp = self.critical_path_length()
        if cp == 0:
            return 0.0
        total = sum(self.durations.values())
        return total / cp

    def level_widths(self) -> List[int]:
        """Number of tasks per dependence level (depth in the DAG).

        Level 0 contains the root tasks; level ``k`` contains tasks whose
        longest predecessor chain has ``k`` edges.  Useful to characterise
        wavefront-style applications in tests.
        """
        level: Dict[int, int] = {}
        for task_id in self.topological_order():
            preds = self.predecessors[task_id]
            level[task_id] = 0 if not preds else 1 + max(level[p] for p in preds)
        widths: Dict[int, int] = defaultdict(int)
        for depth in level.values():
            widths[depth] += 1
        return [widths[d] for d in range(max(widths) + 1)] if widths else []


class DependenceAnalyzer:
    """Incremental last-writer / reader-set dependence analysis.

    The analyzer is fed tasks one at a time, in creation order, exactly as
    the Nanos++ submission path would see them, and reports for each new
    task the set of predecessor tasks it must wait for.

    The OmpSs rules implemented here (and by the Picos hardware) are:

    * an ``input`` dependence waits for the last writer of the address (RAW);
    * an ``output`` or ``inout`` dependence waits for the last writer *and*
      for every reader that arrived since that writer (WAW + WAR -- the
      hardware does not rename versions to distinct storage, so
      anti-dependences are honoured rather than removed).
    """

    def __init__(self) -> None:
        self._last_writer: Dict[int, Optional[int]] = {}
        self._readers_since_writer: Dict[int, List[int]] = {}
        self._predecessors: Dict[int, Set[int]] = {}

    def submit(self, task: Task) -> FrozenSet[int]:
        """Analyse ``task`` and return the ids of its predecessor tasks."""
        preds: Set[int] = set()
        for dep in task.dependences:
            address = dep.address
            writer = self._last_writer.get(address)
            readers = self._readers_since_writer.setdefault(address, [])
            if dep.direction.reads and not dep.direction.writes:
                # Pure input: wait for the last writer only.
                if writer is not None:
                    preds.add(writer)
            else:
                # output / inout: wait for the last writer and all readers.
                if writer is not None:
                    preds.add(writer)
                preds.update(readers)
            # Update the address state *after* computing the predecessors.
            if dep.direction.writes:
                self._last_writer[address] = task.task_id
                self._readers_since_writer[address] = []
            elif dep.direction.reads:
                readers.append(task.task_id)
        preds.discard(task.task_id)
        self._predecessors[task.task_id] = preds
        return frozenset(preds)

    def predecessors(self, task_id: int) -> FrozenSet[int]:
        """Predecessor set of an already-submitted task."""
        return frozenset(self._predecessors[task_id])


def build_task_graph(program: TaskProgram) -> TaskGraph:
    """Build the explicit :class:`TaskGraph` of ``program``.

    The graph encodes exactly the inter-task synchronisation that both the
    Nanos++ runtime and the Picos hardware must enforce for the program.
    """
    graph = TaskGraph(num_tasks=program.num_tasks)
    analyzer = DependenceAnalyzer()
    for task in program:
        graph.durations[task.task_id] = task.duration
        for pred in analyzer.submit(task):
            graph.add_edge(pred, task.task_id)
    return graph


def task_graph(program: TaskProgram) -> TaskGraph:
    """The dependence graph of ``program``, built once and shared.

    The graph depends on the program alone, so the first call builds it
    with :func:`build_task_graph` and keeps it on the program; the Nanos++
    model, the Perfect scheduler and :func:`ready_order_is_valid` then
    reuse it on every run instead of redoing the analysis.  Every caller
    gets the same object and must treat it as read-only.

    The graph lives and dies with its program: :meth:`TaskProgram.add_task`
    drops it, and the request layer's bounded program memo bounds how many
    are kept.  Code that edits a task of the program in place must drop it
    too (``program._graph = None``), as
    :func:`repro.apps.common.scale_durations_to_mean` does.
    """
    graph = program._graph
    if graph is None:
        graph = program._graph = build_task_graph(program)
    return graph


def ready_order_is_valid(program: TaskProgram, start_order: Sequence[int]) -> bool:
    """Check that ``start_order`` respects every dependence of ``program``.

    ``start_order`` lists task ids in the order they *started executing* in
    some simulation.  The function returns ``True`` when no task starts
    before all of its predecessors appear earlier in the order.  It is the
    main cross-simulator correctness oracle used by the test suite.
    """
    graph = task_graph(program)
    position = {task_id: index for index, task_id in enumerate(start_order)}
    if len(position) != program.num_tasks:
        return False
    for dst, preds in graph.predecessors.items():
        for src in preds:
            if position[src] >= position[dst]:
                return False
    return True
