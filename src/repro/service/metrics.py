"""Operational metrics of the simulation service.

One :class:`ServiceMetrics` instance per server process, updated inline by
the serving code (single-threaded under asyncio, so plain counters are
race-free) and rendered as a JSON document by :meth:`ServiceMetrics.
snapshot` -- the payload of both the TCP ``metrics`` frame and the HTTP
``GET /metrics`` endpoint.  See ``docs/service.md`` for the glossary.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds, upper-bound buckets)."""

    #: Upper bounds in milliseconds; the final bucket is unbounded.
    DEFAULT_BOUNDS_MS: Tuple[float, ...] = (
        0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    )

    def __init__(self, bounds_ms: Sequence[float] = DEFAULT_BOUNDS_MS) -> None:
        self._bounds = tuple(sorted(bounds_ms))
        self._counts: List[int] = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.total_seconds = 0.0
        #: The largest observation so far, in seconds.
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one observation (given in seconds)."""
        ms = seconds * 1000.0
        self._counts[bisect.bisect_left(self._bounds, ms)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile in milliseconds (bucket upper bound).

        ``None`` when empty.  The unbounded tail reports the largest
        finite bound, so the estimate is conservative but always finite.
        """
        if not self.count:
            return None
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                bounded = min(index, len(self._bounds) - 1)
                return self._bounds[bounded]
        return self._bounds[-1]  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> Dict[str, Any]:
        buckets = {f"le_{bound:g}ms": count for bound, count in zip(self._bounds, self._counts)}
        buckets["inf"] = self._counts[-1]
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "median_ms": self.quantile(0.5),
            "p99_ms": self.quantile(0.99),
            "max_ms": self.max_seconds * 1000.0 if self.count else None,
            "buckets": buckets,
        }


class ServiceMetrics:
    """Counter set of one server process."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        # sessions
        self.sessions_admitted = 0
        self.sessions_rejected: Dict[str, int] = {}
        self.sessions_completed = 0
        self.sessions_cancelled = 0
        self.sessions_evicted = 0
        self.sessions_failed = 0
        self.sessions_active = 0
        # cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_writes = 0
        # checkpoint/restore
        self.checkpoints_taken = 0
        self.sessions_restored = 0
        # fault injection
        self.faulted_sessions = 0
        self.faults_injected = 0
        self.faults_recovered = 0
        # streaming
        self.events_streamed = 0
        self.frames_sent = 0
        # slicing
        self.slice_latency = LatencyHistogram()
        self.throttle_seconds = 0.0

    # ------------------------------------------------------------------
    # recorders
    # ------------------------------------------------------------------
    def record_admitted(self) -> None:
        self.sessions_admitted += 1
        self.sessions_active += 1

    def record_rejected(self, code: str) -> None:
        self.sessions_rejected[code] = self.sessions_rejected.get(code, 0) + 1

    def record_closed(self, outcome: str) -> None:
        """Account one admitted session's end (``outcome`` names the counter)."""
        self.sessions_active -= 1
        if outcome == "completed":
            self.sessions_completed += 1
        elif outcome == "cancelled":
            self.sessions_cancelled += 1
        elif outcome == "evicted":
            self.sessions_evicted += 1
        else:
            self.sessions_failed += 1

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_checkpoint(self) -> None:
        self.checkpoints_taken += 1

    def record_restored(self) -> None:
        self.sessions_restored += 1

    def record_faulted_session(self) -> None:
        """Account one admitted session that arms fault scenarios."""
        self.faulted_sessions += 1

    def record_fault_events(self, injected: int, recovered: int) -> None:
        """Account the fault activity of one finished faulted run."""
        self.faults_injected += injected
        self.faults_recovered += recovered

    def record_events(self, count: int) -> None:
        self.events_streamed += count

    def record_frame(self) -> None:
        self.frames_sent += 1

    def record_slice(self, seconds: float) -> None:
        self.slice_latency.observe(seconds)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot served by ``/metrics`` and the TCP frame."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "uptime_seconds": self._clock() - self.started_at,
            "sessions": {
                "admitted": self.sessions_admitted,
                "active": self.sessions_active,
                "rejected": dict(sorted(self.sessions_rejected.items())),
                "rejected_total": sum(self.sessions_rejected.values()),
                "completed": self.sessions_completed,
                "cancelled": self.sessions_cancelled,
                "evicted": self.sessions_evicted,
                "failed": self.sessions_failed,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "writes": self.cache_writes,
                "hit_rate": (self.cache_hits / lookups) if lookups else None,
            },
            "snapshots": {
                "checkpoints_taken": self.checkpoints_taken,
                "sessions_restored": self.sessions_restored,
            },
            "faults": {
                "faulted_sessions": self.faulted_sessions,
                "injected": self.faults_injected,
                "recovered": self.faults_recovered,
            },
            "streaming": {
                "events_streamed": self.events_streamed,
                "frames_sent": self.frames_sent,
            },
            "slices": self.slice_latency.as_dict(),
            "throttle_seconds": self.throttle_seconds,
        }
