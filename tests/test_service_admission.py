"""Tests for admission control, tenant quotas, throttling and metrics."""

from __future__ import annotations

import pytest

from repro.service.admission import (
    AdmissionController,
    AdmissionTicket,
    Rejection,
    TenantQuota,
    UNLIMITED,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import REJECT_SERVER_CAPACITY, REJECT_SESSION_QUOTA


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionQuotas:
    def test_unlimited_by_default(self):
        controller = AdmissionController()
        tickets = [controller.admit("anyone") for _ in range(50)]
        assert all(isinstance(t, AdmissionTicket) for t in tickets)
        assert controller.active_sessions() == 50

    def test_per_tenant_quota_rejects_with_typed_code(self):
        controller = AdmissionController(
            tenant_quotas={"teamA": TenantQuota(max_sessions=2)}
        )
        first = controller.admit("teamA")
        second = controller.admit("teamA")
        assert isinstance(first, AdmissionTicket)
        assert isinstance(second, AdmissionTicket)
        third = controller.admit("teamA")
        assert isinstance(third, Rejection)
        assert third.code == REJECT_SESSION_QUOTA
        assert third.tenant == "teamA"
        assert third.limit == 2
        # Another tenant is unaffected.
        assert isinstance(controller.admit("teamB"), AdmissionTicket)
        # Releasing a slot readmits.
        first.release()
        assert isinstance(controller.admit("teamA"), AdmissionTicket)

    def test_default_quota_applies_to_unlisted_tenants(self):
        controller = AdmissionController(
            default_quota=TenantQuota(max_sessions=1),
            tenant_quotas={"vip": UNLIMITED},
        )
        assert isinstance(controller.admit("walkin"), AdmissionTicket)
        assert isinstance(controller.admit("walkin"), Rejection)
        for _ in range(5):
            assert isinstance(controller.admit("vip"), AdmissionTicket)

    def test_server_capacity_backstop(self):
        controller = AdmissionController(max_total_sessions=2)
        controller.admit("a")
        controller.admit("b")
        rejection = controller.admit("c")
        assert isinstance(rejection, Rejection)
        assert rejection.code == REJECT_SERVER_CAPACITY
        assert rejection.limit == 2

    def test_ticket_release_is_idempotent(self):
        controller = AdmissionController()
        ticket = controller.admit("t")
        ticket.release()
        ticket.release()
        assert controller.active_sessions("t") == 0
        assert controller.active_sessions() == 0

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_sessions=-1)
        with pytest.raises(ValueError):
            TenantQuota(cycles_per_second=0)
        with pytest.raises(ValueError):
            AdmissionController(max_total_sessions=-3)


class TestCycleThrottle:
    def test_unthrottled_tenants_never_wait(self):
        clock = FakeClock()
        controller = AdmissionController(clock=clock)
        assert controller.slice_delay("free", 10**9) == 0.0

    def test_bucket_enforces_the_sustained_rate(self):
        clock = FakeClock()
        controller = AdmissionController(
            tenant_quotas={"slow": TenantQuota(cycles_per_second=1000.0)},
            clock=clock,
        )
        # The full burst (one second's worth) passes immediately...
        assert controller.slice_delay("slow", 1000) == 0.0
        # ...the next slice must wait out its cost at the configured rate.
        delay = controller.slice_delay("slow", 500)
        assert delay == pytest.approx(0.5)
        # Waiting refills: after the delay elapses the next slice is free
        # again only once its cycles have been earned back.
        clock.now += delay
        assert controller.slice_delay("slow", 500) == pytest.approx(0.5)

    def test_throttle_is_per_tenant(self):
        clock = FakeClock()
        controller = AdmissionController(
            tenant_quotas={"slow": TenantQuota(cycles_per_second=10.0)},
            clock=clock,
        )
        assert controller.slice_delay("slow", 100) >= 0.0
        assert controller.slice_delay("slow", 100) > 0.0
        # An unthrottled tenant on the same controller never waits.
        assert controller.slice_delay("fast", 10**6) == 0.0

    def test_burst_capacity_override(self):
        clock = FakeClock()
        controller = AdmissionController(
            tenant_quotas={
                "bursty": TenantQuota(cycles_per_second=100.0, burst_cycles=1000.0)
            },
            clock=clock,
        )
        assert controller.slice_delay("bursty", 1000) == 0.0
        assert controller.slice_delay("bursty", 100) == pytest.approx(1.0)


class TestMetrics:
    def test_session_accounting(self):
        metrics = ServiceMetrics(clock=FakeClock())
        metrics.record_admitted()
        metrics.record_admitted()
        metrics.record_rejected(REJECT_SESSION_QUOTA)
        metrics.record_closed("completed")
        metrics.record_closed("cancelled")
        snapshot = metrics.snapshot()
        sessions = snapshot["sessions"]
        assert sessions["admitted"] == 2
        assert sessions["active"] == 0
        assert sessions["completed"] == 1
        assert sessions["cancelled"] == 1
        assert sessions["rejected"] == {REJECT_SESSION_QUOTA: 1}
        assert sessions["rejected_total"] == 1

    def test_cache_hit_rate(self):
        metrics = ServiceMetrics(clock=FakeClock())
        assert metrics.snapshot()["cache"]["hit_rate"] is None
        metrics.record_cache(True)
        metrics.record_cache(False)
        metrics.record_cache(True)
        assert metrics.snapshot()["cache"]["hit_rate"] == pytest.approx(2 / 3)

    def test_histogram_quantiles(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.as_dict()["max_ms"] is None
        for _ in range(90):
            histogram.observe(0.0004)  # 0.4 ms -> first bucket
        for _ in range(10):
            histogram.observe(0.2)  # 200 ms -> le_250ms bucket
        assert histogram.quantile(0.5) == 0.5
        assert histogram.quantile(0.99) == 250.0
        rendered = histogram.as_dict()
        assert rendered["count"] == 100
        assert rendered["median_ms"] == 0.5
        assert rendered["max_ms"] == pytest.approx(200.0)
        assert rendered["buckets"]["le_0.5ms"] == 90

    def test_histogram_overflow_bucket_stays_finite(self):
        histogram = LatencyHistogram()
        histogram.observe(10.0)  # 10 s: beyond every bound
        assert histogram.quantile(0.5) == 1000.0
        assert histogram.as_dict()["buckets"]["inf"] == 1
