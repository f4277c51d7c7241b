"""The fault-injection matrix: every fault kind on every backend.

Four families of assertions pin the subsystem:

* **liveness + invariants** -- every (fault kind x backend) combination
  completes all tasks with a dependence-valid execution order, and the
  run-level invariant verifier (:func:`repro.faults.invariants.verify_run`,
  executed inside ``_build_result``) passes;
* **exact event accounting** -- the ``FaultInjected``/``FaultRecovered``
  events observed through the streaming session API match the run's
  ``faults_injected``/``faults_recovered`` counters one-for-one;
* **determinism** -- the same seed plus the same fault plan replays
  field-for-field identically;
* **cycle neutrality** -- with no faults armed (or with a scenario armed
  that never fires) the engine's golden digests are unchanged, so the
  injection layer is provably zero-cost when off.

The scenarios are armed against the saturated capacity-corner setups
shared with ``tests/test_failure_injection.py`` (see
:data:`tests.helpers.SATURATION_CASES`), so chaos and resource exhaustion
are exercised together.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import (
    FaultConfigurationError,
    FaultKind,
    FaultScenario,
    FaultTarget,
    FaultTrigger,
    RecoveryPolicy,
    parse_fault_spec,
)
from repro.runtime.dependence_analysis import ready_order_is_valid
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.sim.session import FaultInjected, FaultRecovered, open_session

from tests.helpers import DORMANT_FAULT, SATURATION_CASES
from tests.test_perf_parity import GOLDEN, result_digest

#: The backends the injection layer hooks (the perfect backend rejects
#: faulted requests by construction -- see the rejection test below).
FAULTED_BACKENDS = ("hil-full", "hil-hw", "hil-comm", "nanos")

#: The matrix workload: the every-capacity-tiny corner, so faults land on
#: an accelerator that is already saturating its TM/VM/DM resources.
_CASE = SATURATION_CASES["tiny-everything"]
_WORKERS = 4


def _request(backend, faults=()):
    fields = {"backend": backend, "num_workers": _WORKERS, "faults": faults}
    if backend.startswith("hil"):
        fields["config"] = _CASE.config
    return SimulationRequest.for_program(_CASE.build_program(), **fields)


def _baseline_makespan(backend):
    return simulate_request(_request(backend)).makespan


def scenario_for(kind: FaultKind, makespan: int) -> FaultScenario:
    """A scenario of ``kind`` whose trigger lands inside a real run."""
    mid = max(makespan // 2, 1)
    if kind is FaultKind.KILL_WORKER:
        return FaultScenario(
            kind,
            FaultTrigger(at_cycle=mid),
            FaultTarget(worker_id=1),
            RecoveryPolicy(delay_cycles=50),
        )
    if kind is FaultKind.FREEZE_BANK:
        start = max(makespan // 4, 0)
        return FaultScenario(
            kind,
            FaultTrigger(window=(start, max(start + 1, mid)), max_fires=None),
            FaultTarget(bank=0),
        )
    return FaultScenario(
        kind,
        FaultTrigger(probability=0.25, seed=11, max_fires=3),
        FaultTarget(packet_class="ready"),
        RecoveryPolicy(delay_cycles=40),
    )


# ----------------------------------------------------------------------
# the matrix: every kind x every faulted backend
# ----------------------------------------------------------------------
class TestFaultMatrix:
    @pytest.mark.parametrize("backend", FAULTED_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(FaultKind, key=lambda k: k.value))
    def test_faulted_run_completes_with_exact_event_accounting(
        self, backend, kind
    ):
        scenario = scenario_for(kind, _baseline_makespan(backend))
        request = _request(backend, faults=(scenario,))
        program = _CASE.build_program()

        injected = recovered = 0
        with open_session(request) as session:
            while True:
                chunk = session.advance(500)
                for event in chunk.events:
                    if isinstance(event, FaultInjected):
                        injected += 1
                    elif isinstance(event, FaultRecovered):
                        recovered += 1
                if chunk.finished:
                    break
            result = session.result()

        assert result.completed_all()
        order = sorted(
            result.timelines, key=lambda tid: (result.timelines[tid].started, tid)
        )
        assert ready_order_is_valid(program, order)
        # The streamed fault events match the counters one-for-one.
        assert injected == result.counters["faults_injected"]
        assert recovered == result.counters["faults_recovered"]
        assert injected == recovered  # every injection healed

    @pytest.mark.parametrize("backend", FAULTED_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(FaultKind, key=lambda k: k.value))
    def test_same_seed_same_plan_replays_identically(self, backend, kind):
        scenario = scenario_for(kind, _baseline_makespan(backend))
        request = _request(backend, faults=(scenario,))
        first = simulate_request(request)
        second = simulate_request(request)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    @pytest.mark.parametrize("backend", FAULTED_BACKENDS)
    def test_event_level_faults_actually_fire(self, backend):
        """The probability triggers are live, not vacuous: with three
        allowed fires over dozens of matching events at p=0.25 the
        scenario must inject at least once."""
        scenario = scenario_for(
            FaultKind.DROP_EVENT, _baseline_makespan(backend)
        )
        result = simulate_request(_request(backend, faults=(scenario,)))
        assert result.counters["faults_injected"] >= 1

    def test_perfect_backend_rejects_faults(self):
        from repro.sim.request import InvalidRequestError

        scenario = scenario_for(FaultKind.DROP_EVENT, 1000)
        request = SimulationRequest.for_program(
            _CASE.build_program(),
            backend="perfect",
            num_workers=_WORKERS,
            faults=(scenario,),
        )
        with pytest.raises(InvalidRequestError):
            simulate_request(request)


# ----------------------------------------------------------------------
# cycle neutrality: injection layer is zero-cost when off
# ----------------------------------------------------------------------
#: A couple of golden rows replayed with an explicit (empty) faults field:
#: the request-level plumbing must not move a digest.
_NEUTRALITY_ROWS = (
    ("case3", None, None, "hil-full", 4),
    ("case3", None, None, "nanos", 4),
)


class TestCycleNeutrality:
    @pytest.mark.parametrize(
        "workload,block_size,problem_size,backend,workers", _NEUTRALITY_ROWS
    )
    def test_empty_faults_field_matches_golden_digest(
        self, workload, block_size, problem_size, backend, workers
    ):
        expected_makespan, expected_digest = GOLDEN[
            (workload, block_size, problem_size, backend, workers)
        ]
        result = simulate_request(
            SimulationRequest.for_workload(
                workload,
                block_size=block_size,
                problem_size=problem_size,
                backend=backend,
                num_workers=workers,
                faults=(),
            )
        )
        assert result.makespan == expected_makespan
        assert result_digest(result) == expected_digest

    @pytest.mark.parametrize("backend", FAULTED_BACKENDS)
    def test_armed_but_never_firing_scenario_is_cycle_neutral(self, backend):
        """An armed plan intercepts every delivery of the one loop, so a
        scenario whose window lies beyond the end of the run must
        reproduce the unfaulted digest exactly -- with zero injections on
        the books."""
        unfaulted = simulate_request(_request(backend))
        faulted = simulate_request(_request(backend, faults=(DORMANT_FAULT,)))
        assert result_digest(faulted) == result_digest(unfaulted)
        assert faulted.makespan == unfaulted.makespan
        assert faulted.counters["faults_injected"] == 0
        assert faulted.counters["faults_recovered"] == 0

    @pytest.mark.parametrize("backend", FAULTED_BACKENDS)
    def test_firing_faults_change_the_cache_key_not_the_contract(self, backend):
        plain = _request(backend)
        faulted = _request(
            backend, faults=(scenario_for(FaultKind.DROP_EVENT, 2000),)
        )
        assert plain.cache_key() != faulted.cache_key()


# ----------------------------------------------------------------------
# scenario schema: spec strings, documents, validation
# ----------------------------------------------------------------------
class TestScenarioSchema:
    def test_spec_string_round_trips_through_documents(self):
        for spec in (
            "kill-worker@cycle=2000:worker=1",
            "drop-event@p=0.01:class=ready:seed=7:fires=all",
            "delay-event@window=100..900:class=complete:delay=30:jitter=5",
            "duplicate-event@p=0.5:seed=3",
            "freeze-bank@window=50..90:bank=2",
        ):
            scenario = parse_fault_spec(spec)
            assert FaultScenario.from_document(scenario.to_document()) == scenario

    def test_trigger_modes_are_exclusive(self):
        with pytest.raises(FaultConfigurationError):
            FaultTrigger(at_cycle=5, probability=0.5)
        with pytest.raises(FaultConfigurationError):
            FaultTrigger()

    def test_kill_worker_requires_cycle_and_worker(self):
        with pytest.raises(FaultConfigurationError):
            FaultScenario(FaultKind.KILL_WORKER, FaultTrigger(probability=0.5))
        with pytest.raises(FaultConfigurationError):
            FaultScenario(FaultKind.KILL_WORKER, FaultTrigger(at_cycle=10))

    def test_unknown_packet_class_rejected_at_arm_time(self):
        scenario = FaultScenario(
            FaultKind.DROP_EVENT,
            FaultTrigger(probability=0.5),
            FaultTarget(packet_class="no-such-class"),
        )
        with pytest.raises(FaultConfigurationError):
            simulate_request(_request("hil-hw", faults=(scenario,)))

    def test_out_of_range_worker_rejected_at_arm_time(self):
        scenario = FaultScenario(
            FaultKind.KILL_WORKER,
            FaultTrigger(at_cycle=100),
            FaultTarget(worker_id=99),
        )
        with pytest.raises(FaultConfigurationError):
            simulate_request(_request("nanos", faults=(scenario,)))

    def test_bad_spec_strings_raise_with_example(self):
        for spec in ("kill-worker", "nope@cycle=1", "drop-event@x=2"):
            with pytest.raises(FaultConfigurationError) as excinfo:
                parse_fault_spec(spec)
            assert "example" in str(excinfo.value)
