"""Inter-module packets of the Picos hardware.

Every arrow of Figure 3b is a small fixed-format packet travelling through a
FIFO.  The datapath carries most of them as packed integer handles and
outcome triples (see ``docs/datapath.md``); the one packet it still builds
as an object is :class:`ExecuteTaskPacket` (TRS -> TS, step N6), a
hand-written ``__slots__`` value class (compare-by-value, hashable) because
a frozen dataclass's ``object.__setattr__``-based ``__init__`` costs several
times as much per instance.
"""

from __future__ import annotations


class ExecuteTaskPacket:
    """TRS -> TS: the task in ``tm_index`` has all dependences ready (N6)."""

    __slots__ = ("task_id", "trs_id", "tm_index")

    def __init__(self, task_id: int, trs_id: int, tm_index: int) -> None:
        self.task_id = task_id
        self.trs_id = trs_id
        self.tm_index = tm_index

    def __repr__(self) -> str:
        return (
            f"ExecuteTaskPacket(task_id={self.task_id}, trs_id={self.trs_id}, "
            f"tm_index={self.tm_index})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecuteTaskPacket):
            return NotImplemented
        return (
            self.task_id == other.task_id
            and self.trs_id == other.trs_id
            and self.tm_index == other.tm_index
        )

    def __hash__(self) -> int:
        return hash((self.task_id, self.trs_id, self.tm_index))
