"""In-memory span tracer that wraps a program's callables from outside.

A :class:`Tracer` replaces chosen methods and module functions with thin
wrappers (:meth:`Tracer.install`).  Each call records a span -- probe,
start, end and the span that was open when it began -- into a flat
in-memory array, and folds its CPU time into per-probe aggregates through a
stack of open spans: a span's *self* time is its duration minus the part
its child spans cover.  Nothing is written while the program runs; the
spans go to disk once, at the end (:meth:`Tracer.write`).

Only synchronous callables may be wrapped: a coroutine suspends mid-span
and would corrupt the stack.  Wrapping happens on classes and on the
module namespaces callers read, so it must precede the construction of any
object that binds a wrapped method at ``__init__`` time.
"""

from __future__ import annotations

import array
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept in memory per tracer; later spans still count in the
#: aggregates but are not stored (each span costs four 8-byte integers).
MAX_SPANS = 1_000_000


class Probe:
    """One wrapped callable: its layer, its name and its aggregates."""

    __slots__ = ("layer", "name", "index", "calls", "self_ns", "total_ns", "observed", "observe")

    def __init__(
        self,
        layer: str,
        name: str,
        observe: Optional[Callable[[Any], int]] = None,
        index: int = -1,
    ) -> None:
        self.layer = layer
        #: Position in :attr:`Tracer.probes`, as recorded in the spans.
        self.index = index
        self.name = name
        self.observe = observe
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        #: Sum of ``observe(return value)`` over all calls (e.g. bytes).
        self.observed = 0

    def reset(self) -> None:
        self.calls = self.self_ns = self.total_ns = self.observed = 0


class Tracer:
    """Layer-stack span recorder over process CPU time."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns) -> None:
        self.clock = clock
        self.probes: List[Probe] = []
        self._by_key: Dict[Tuple[str, str], Probe] = {}
        #: Open spans: ``[probe, start_ns, child_ns, span_id]``.
        self._stack: List[list] = []
        #: Flat span records ``probe_index, start_ns, end_ns, parent_id``;
        #: a span's id is its record index (entry order), ``-1`` = no parent.
        self.spans = array.array("q")
        self.spans_dropped = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def probe(
        self, layer: str, name: str, observe: Optional[Callable[[Any], int]] = None
    ) -> Probe:
        key = (layer, name)
        probe = self._by_key.get(key)
        if probe is None:
            probe = Probe(layer, name, observe, len(self.probes))
            self._by_key[key] = probe
            self.probes.append(probe)
        return probe

    def _wrap(self, probe: Probe, func: Callable) -> Callable:
        enter, leave, observe = self._enter, self._exit, probe.observe

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(probe)
            try:
                result = func(*args, **kwargs)
            finally:
                leave(probe, frame)
            if observe is not None:
                probe.observed += observe(result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", probe.name)
        return traced

    def install(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        name: Optional[str] = None,
        observe: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (class or module) with a traced wrapper.

        Static and class methods keep their descriptor type, so callers
        see the same binding behaviour as before.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        probe = self.probe(layer, name or attribute, observe)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self._wrap(probe, raw.__func__))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(probe, raw.__func__))
        else:
            wrapped = self._wrap(probe, raw)
        self._restore.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Trace a block of the benchmark's own code as a span of ``layer``."""
        probe = self.probe(layer, name)
        frame = self._enter(probe)
        try:
            yield
        finally:
            self._exit(probe, frame)

    def _enter(self, probe: Probe) -> list:
        start = self.clock()
        span_id = -1
        if len(self.spans) < MAX_SPANS * 4:
            span_id = len(self.spans) >> 2
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.extend((probe.index, start, 0, parent))
        else:
            self.spans_dropped += 1
        frame = [probe, start, 0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, probe: Probe, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        probe.calls += 1
        probe.total_ns += duration
        probe.self_ns += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[(frame[3] << 2) + 2] = end

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (spans are kept for the final write-out)."""
        for probe in self.probes:
            probe.reset()

    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for probe in self.probes:
            totals[probe.layer] = totals.get(probe.layer, 0.0) + probe.self_ns / 1e9
        return totals

    def get(self, layer: str, name: str) -> Probe:
        """The probe ``layer``/``name`` (an idle one if it was never installed)."""
        return self._by_key.get((layer, name)) or Probe(layer, name)

    # ------------------------------------------------------------------
    # write-out
    # ------------------------------------------------------------------
    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans (binary) and a JSON index describing them."""
        directory.mkdir(parents=True, exist_ok=True)
        spans_path = directory / f"{stem}.spans"
        with open(spans_path, "wb") as handle:
            self.spans.tofile(handle)
        index_path = directory / f"{stem}.json"
        index_path.write_text(
            json.dumps(
                {
                    "format": "int64 records: probe, start_ns, end_ns, parent span id",
                    "clock": "process CPU time",
                    "spans": len(self.spans) // 4,
                    "spans_dropped": self.spans_dropped,
                    "probes": [f"{p.layer}:{p.name}" for p in self.probes],
                },
                indent=1,
            )
            + "\n"
        )
        return index_path
