"""Admission control and per-tenant quotas for the simulation service.

Two independent mechanisms, both enforced per tenant (the request's
``tenant`` field) with a server-wide backstop:

* **Concurrent-session quotas** are checked at open time.  An over-quota
  request is *rejected with a typed code* (``session-quota-exceeded`` or
  ``server-capacity-exceeded``) instead of queueing -- the service
  degrades by refusing work it cannot take, never by collapsing under a
  backlog it silently accepted.
* **Cycles-per-second throttles** shape running sessions.  A classic token
  bucket per tenant: each cooperative slice asks for its cycle budget and
  the controller answers with the delay (possibly zero) the session must
  sleep before computing the slice.  Sessions of throttled tenants slow
  down; nothing else on the event loop does.

The controller is synchronous and clock-injected, so the quota logic is
unit-testable without a running server or real time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.service.protocol import (
    REJECT_FAULTS_FORBIDDEN,
    REJECT_SERVER_CAPACITY,
    REJECT_SESSION_QUOTA,
)


@dataclass(frozen=True)
class TenantQuota:
    """Resource limits of one tenant (``None`` = unlimited)."""

    #: Maximum concurrently open sessions.
    max_sessions: Optional[int] = None
    #: Sustained simulated-cycle throughput (cycles per wall second).
    cycles_per_second: Optional[float] = None
    #: Bucket capacity of the throttle; defaults to one second's worth.
    burst_cycles: Optional[float] = None
    #: Whether requests carrying armed fault scenarios are admitted.
    #: Fault injection deliberately perturbs shared capacity (frozen banks,
    #: killed workers keep sessions alive longer), so operators can reserve
    #: it for trusted tenants.
    allow_faults: bool = True

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 0:
            raise ValueError("max_sessions must be >= 0")
        if self.cycles_per_second is not None and self.cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be > 0")

    @property
    def bucket_cycles(self) -> Optional[float]:
        """The throttle bucket's capacity (``None`` when unthrottled)."""
        if self.cycles_per_second is None:
            return None
        if self.burst_cycles is not None:
            return self.burst_cycles
        return self.cycles_per_second


#: The quota applied when a tenant has no explicit entry.
UNLIMITED = TenantQuota()


@dataclass(frozen=True)
class Rejection:
    """A typed admission refusal (maps 1:1 onto a ``rejected`` frame)."""

    code: str
    message: str
    tenant: str
    limit: Optional[int] = None


class AdmissionTicket:
    """One admitted session's hold on its tenant's quota.

    Release exactly once when the session ends (finished, cancelled,
    evicted or its connection died); releasing is idempotent.
    """

    def __init__(self, controller: "AdmissionController", tenant: str) -> None:
        self._controller = controller
        self.tenant = tenant
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self.tenant)


class _TokenBucket:
    """Token bucket in simulated-cycle units against a wall-clock rate."""

    __slots__ = ("rate", "capacity", "tokens", "stamp")

    def __init__(self, rate: float, capacity: float, now: float) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.stamp = now

    def delay_for(self, cycles: float, now: float) -> float:
        """Consume ``cycles`` tokens; the wait (seconds) before proceeding.

        The bucket may go negative (the slice is admitted but charged),
        which is what turns a sequence of large slices into the configured
        sustained rate instead of requiring slices smaller than the burst.
        """
        elapsed = now - self.stamp
        if elapsed > 0:
            self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
            self.stamp = now
        self.tokens -= cycles
        if self.tokens >= 0:
            return 0.0
        return -self.tokens / self.rate


class AdmissionController:
    """Session admission and cycle throttling, per tenant."""

    def __init__(
        self,
        *,
        default_quota: TenantQuota = UNLIMITED,
        tenant_quotas: Optional[Mapping[str, TenantQuota]] = None,
        max_total_sessions: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_total_sessions is not None and max_total_sessions < 0:
            raise ValueError("max_total_sessions must be >= 0")
        self._default_quota = default_quota
        self._tenant_quotas = dict(tenant_quotas or {})
        self._max_total = max_total_sessions
        self._clock = clock
        self._active: Dict[str, int] = {}
        self._total_active = 0
        self._buckets: Dict[str, _TokenBucket] = {}

    # ------------------------------------------------------------------
    # session admission
    # ------------------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota applied to ``tenant`` (explicit entry or the default)."""
        return self._tenant_quotas.get(tenant, self._default_quota)

    def active_sessions(self, tenant: Optional[str] = None) -> int:
        """Currently admitted sessions, overall or for one tenant."""
        if tenant is None:
            return self._total_active
        return self._active.get(tenant, 0)

    def admit(self, tenant: str, *, faulted: bool = False):
        """Admit one session; an :class:`AdmissionTicket` or a :class:`Rejection`.

        ``faulted`` marks a request that arms fault scenarios; tenants whose
        quota sets ``allow_faults=False`` get a typed
        ``faults-forbidden`` rejection before any quota slot is consumed.
        """
        if faulted and not self.quota_for(tenant).allow_faults:
            return Rejection(
                code=REJECT_FAULTS_FORBIDDEN,
                message=(
                    f"tenant {tenant!r} is not allowed to arm fault scenarios"
                ),
                tenant=tenant,
            )
        if self._max_total is not None and self._total_active >= self._max_total:
            return Rejection(
                code=REJECT_SERVER_CAPACITY,
                message=(
                    f"server is at capacity ({self._max_total} concurrent "
                    "sessions); retry later"
                ),
                tenant=tenant,
                limit=self._max_total,
            )
        quota = self.quota_for(tenant)
        held = self._active.get(tenant, 0)
        if quota.max_sessions is not None and held >= quota.max_sessions:
            return Rejection(
                code=REJECT_SESSION_QUOTA,
                message=(
                    f"tenant {tenant!r} is at its concurrent-session quota "
                    f"({quota.max_sessions}); retry later"
                ),
                tenant=tenant,
                limit=quota.max_sessions,
            )
        self._active[tenant] = held + 1
        self._total_active += 1
        return AdmissionTicket(self, tenant)

    def _release(self, tenant: str) -> None:
        held = self._active.get(tenant, 0)
        if held <= 1:
            self._active.pop(tenant, None)
        else:
            self._active[tenant] = held - 1
        if held:
            self._total_active -= 1

    # ------------------------------------------------------------------
    # cycle throttling
    # ------------------------------------------------------------------
    def slice_delay(self, tenant: str, cycles: int) -> float:
        """Seconds a session must wait before simulating ``cycles`` more.

        Zero for unthrottled tenants; the session runner sleeps the
        returned delay (pausing only itself) before computing the slice.
        """
        quota = self.quota_for(tenant)
        rate = quota.cycles_per_second
        if rate is None or cycles <= 0:
            return 0.0
        bucket = self._buckets.get(tenant)
        now = self._clock()
        if bucket is None or bucket.rate != rate:
            bucket = _TokenBucket(rate, quota.bucket_cycles, now)
            self._buckets[tenant] = bucket
        return bucket.delay_for(cycles, now)
