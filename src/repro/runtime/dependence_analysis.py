"""Exact software dependence analysis (the reference model).

Nanos++ performs dynamic dependence analysis at task-submission time: for
every dependence address it keeps the last writer and the set of readers
since that writer, and derives the predecessor tasks the new task must wait
for (Section II-A).  The Picos hardware implements the same semantics with
the DM/VM/TMX chain mechanism of Section III.

This module implements those semantics directly on a :class:`TaskProgram`.
It serves three purposes:

* it is the graph builder for the Nanos++ model (the ``nanos`` and
  ``perfect`` backends), which shares one graph per program through
  :func:`task_graph`;
* it is the *reference* against which the hardware model is validated
  (property-based tests assert that the set of predecessor/successor
  relations realised by the Picos chain mechanism matches this analysis);
* it provides graph metrics (critical path, maximum parallelism) used by the
  experiment drivers.

The graph is a CSR (compressed sparse rows) over the program's *rows*, the
tasks' positions in creation order: a handful of flat int lists, not one
set per task.  Task ids are client-chosen keys, not indices, so they appear
only where a query answers in ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.runtime.task import Direction, TaskProgram


@dataclass
class TaskGraph:
    """The task dependence graph of one program, as a CSR over its rows.

    Row ``r`` is the ``r``-th task created.  Its successors -- the tasks
    that wait for it -- are ``succ_rows[succ_offsets[r]:succ_offsets[r +
    1]]``, and ``pred_counts[r]`` is the number of distinct tasks it waits
    for.  Every edge runs from an earlier row to a later one: creation
    order is a valid serialisation of the program.

    The successors of a row are listed in the order a Python ``set`` of
    those rows, filled in creation order, iterates.  That order is the
    Nanos++ model's order of releasing them, so it is part of its
    cycle-exact results.
    """

    #: Task id of each row.
    task_ids: List[int]
    #: Number of distinct predecessors of each row.
    pred_counts: List[int]
    #: ``num_tasks + 1`` offsets into :attr:`succ_rows`.
    succ_offsets: List[int]
    #: The successor rows of every row, concatenated.
    succ_rows: List[int]
    #: Execution time of each row's task body, in cycles.
    durations: List[int]

    # ------------------------------------------------------------------
    # row queries
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of tasks (rows) in the graph."""
        return len(self.task_ids)

    @property
    def num_edges(self) -> int:
        """Total number of dependence edges."""
        return len(self.succ_rows)

    def successor_rows(self, row: int) -> List[int]:
        """The rows waiting for ``row``, in release order."""
        offsets = self.succ_offsets
        return self.succ_rows[offsets[row]:offsets[row + 1]]

    # ------------------------------------------------------------------
    # id queries
    # ------------------------------------------------------------------
    def roots(self) -> List[int]:
        """Tasks with no predecessors (ready at program start)."""
        ids = self.task_ids
        return [ids[row] for row, count in enumerate(self.pred_counts) if not count]

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as ``(src, dst)`` task-id pairs, by source row."""
        ids = self.task_ids
        return [
            (ids[row], ids[succ])
            for row in range(len(ids))
            for succ in self.successor_rows(row)
        ]

    def predecessors(self, task_id: int) -> FrozenSet[int]:
        """Ids of the tasks ``task_id`` waits for.

        A query for tests and inspection: it scans every earlier row's
        successors, O(tasks + edges) per call.  The simulators only walk
        successors.
        """
        ids = self.task_ids
        try:
            row = ids.index(task_id)
        except ValueError:
            raise KeyError(task_id) from None
        return frozenset(ids[src] for src in range(row) if row in self.successor_rows(src))

    def _longest_paths(self, weights: Sequence[int]) -> List[int]:
        """Per row, the heaviest path ending there (``weights`` by row)."""
        offsets = self.succ_offsets
        succ_rows = self.succ_rows
        start = [0] * len(weights)
        end = [0] * len(weights)
        for row, weight in enumerate(weights):
            finish = end[row] = start[row] + weight
            for succ in succ_rows[offsets[row]:offsets[row + 1]]:
                if finish > start[succ]:
                    start[succ] = finish
        return end

    def critical_path_length(self) -> int:
        """Length (in cycles) of the longest dependence chain.

        This is the makespan an ideal machine with infinitely many workers
        and zero management overhead would achieve -- the asymptote of the
        paper's Perfect Simulator.
        """
        return max(self._longest_paths(self.durations), default=0)

    def max_parallelism(self) -> float:
        """Average available parallelism: total work / critical path."""
        cp = self.critical_path_length()
        if cp == 0:
            return 0.0
        return sum(self.durations) / cp

    def level_widths(self) -> List[int]:
        """Number of tasks per dependence level (depth in the DAG).

        Level 0 contains the root tasks; level ``k`` contains tasks whose
        longest predecessor chain has ``k`` edges.  Useful to characterise
        wavefront-style applications in tests.
        """
        # The longest chain of unit weights ending at a row counts its
        # tasks, one more than its edges.
        depths = self._longest_paths([1] * self.num_tasks)
        widths = [0] * max(depths, default=0)
        for depth in depths:
            widths[depth - 1] += 1
        return widths


def build_task_graph(program: TaskProgram) -> TaskGraph:
    """Build the :class:`TaskGraph` of ``program`` in one pass.

    The graph encodes exactly the inter-task synchronisation that both the
    Nanos++ runtime and the Picos hardware must enforce for the program.
    Tasks are analysed in creation order, as the Nanos++ submission path
    sees them, under the OmpSs rules the Picos hardware implements too:

    * an ``input`` dependence waits for the last writer of the address (RAW);
    * an ``output`` or ``inout`` dependence waits for the last writer *and*
      for every reader that arrived since that writer (WAW + WAR -- the
      hardware does not rename versions to distinct storage, so
      anti-dependences are honoured rather than removed).
    """
    tasks = program.tasks
    num_tasks = len(tasks)
    reads_only = Direction.IN
    # Address -> row of its last writer.
    last_writer: Dict[int, int] = {}
    # Address -> rows that read it since its last writer.
    readers: Dict[int, List[int]] = {}
    # Row -> the set of its successor rows, filled in creation order; the
    # sets fix each row's release order (see TaskGraph).
    successors: List[Optional[Set[int]]] = [None] * num_tasks
    pred_counts = [0] * num_tasks

    for row, task in enumerate(tasks):
        preds = 0
        for dep in task.dependences:
            address = dep.address
            writer = last_writer.get(address)
            if dep.direction is reads_only:
                waits_for: Sequence[int] = () if writer is None else (writer,)
                readers.setdefault(address, []).append(row)
            else:
                since_writer = readers.pop(address, [])
                if writer is not None:
                    since_writer.append(writer)
                waits_for = since_writer
                last_writer[address] = row
            for pred in waits_for:
                if pred == row:  # no self-edge, should an address repeat
                    continue
                succ = successors[pred]
                if succ is None:
                    successors[pred] = {row}
                elif row in succ:
                    continue
                else:
                    succ.add(row)
                preds += 1
        pred_counts[row] = preds

    succ_offsets = [0]
    succ_rows: List[int] = []
    for succ in successors:
        if succ:
            succ_rows.extend(succ)
        succ_offsets.append(len(succ_rows))
    return TaskGraph(
        task_ids=[task.task_id for task in tasks],
        pred_counts=pred_counts,
        succ_offsets=succ_offsets,
        succ_rows=succ_rows,
        durations=[task.duration for task in tasks],
    )


def task_graph(program: TaskProgram) -> TaskGraph:
    """The dependence graph of ``program``, built once and shared.

    The graph depends on the program alone, so the first call builds it
    with :func:`build_task_graph` and keeps it on the program; the Nanos++
    model (``nanos`` and ``perfect``) and :func:`ready_order_is_valid` then
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
    some simulation.  The function returns ``True`` when every task of the
    program appears and none starts before all of its predecessors appear
    earlier in the order.  It is the main cross-simulator correctness
    oracle used by the test suite.
    """
    graph = task_graph(program)
    rows = program.rows()
    position = [-1] * graph.num_tasks
    for index, task_id in enumerate(start_order):
        row = rows.get(task_id)
        if row is None:
            return False
        position[row] = index
    if -1 in position:
        return False
    offsets = graph.succ_offsets
    succ_rows = graph.succ_rows
    for row, start in enumerate(position):
        for succ in succ_rows[offsets[row]:offsets[row + 1]]:
            if start >= position[succ]:
                return False
    return True
