"""Tests for the simulator-backend protocol, registry and dispatch."""

from __future__ import annotations

import warnings

import pytest

from tests.helpers import SLOW_SCHEDULER, SlowNanosBackend, make_program

import repro
from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.nanos import ZERO_OVERHEAD, NanosRuntimeSimulator
from repro.sim.backend import (
    BUILTIN_BACKENDS,
    SimulatorBackend,
    UnknownBackendError,
    backend_names,
    describe_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.driver import simulate_request
from repro.sim.hil import HILBackend, HILMode, HILSimulator
from repro.sim.request import SimulationRequest
from repro.sim.session import lifecycle_events, open_session
from repro.sim.snapshot import SimulationSnapshot, capture, restore


def _simulate(program, backend, **fields):
    return simulate_request(SimulationRequest.for_program(program, backend=backend, **fields))


def _cholesky_request(backend):
    return SimulationRequest.for_workload(
        "cholesky", block_size=128, problem_size=512, backend=backend, num_workers=4
    )


@pytest.fixture
def diamond_program():
    """A small diamond-shaped dependence graph (1 producer, 2 mid, 1 join)."""
    return make_program(
        [
            [(0x100, "out")],
            [(0x100, "in"), (0x200, "out")],
            [(0x100, "in"), (0x300, "out")],
            [(0x200, "in"), (0x300, "in")],
        ],
        durations=[50, 40, 30, 20],
    )


class TestRegistry:
    def test_all_five_builtin_backends_registered(self):
        names = backend_names()
        for expected in BUILTIN_BACKENDS:
            assert expected in names
        assert set(BUILTIN_BACKENDS) == {
            "hil-full",
            "hil-hw",
            "hil-comm",
            "nanos",
            "perfect",
        }

    def test_backends_satisfy_protocol(self):
        for name in BUILTIN_BACKENDS:
            backend = get_backend(name)
            assert isinstance(backend, SimulatorBackend)
            assert backend.name == name
            assert backend.description

    def test_describe_backends_covers_builtins(self):
        described = describe_backends()
        for name in BUILTIN_BACKENDS:
            assert described[name]

    def test_unknown_backend_raises_with_available_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        assert "nanos" in message

    def test_duplicate_registration_rejected(self):
        backend = get_backend("nanos")
        with pytest.raises(ValueError):
            register_backend(backend)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"name": ""}, "name"),
            ({"name": 42}, "name"),
            ({"accepts": None}, "accepts"),
            ({"accepts": {"faults"}}, "accepts"),
            ({"accepts": frozenset({"seed"})}, "seed"),
            ({"simulator": None}, "simulator"),
        ],
        ids=[
            "no-name",
            "name-not-a-string",
            "no-accepts",
            "accepts-not-frozen",
            "accepts-seed",
            "no-simulator",
        ],
    )
    def test_register_refuses_misfit_backends(self, fields, message):
        misfit = SlowNanosBackend()
        for attribute, value in fields.items():
            setattr(misfit, attribute, value)
        with pytest.raises(ValueError, match=message):
            register_backend(misfit)
        assert misfit.name not in backend_names()

    def test_a_refused_replacement_keeps_the_registered_backend(self):
        original = get_backend("perfect")
        misfit = SlowNanosBackend()
        misfit.name = "perfect"
        misfit.accepts = frozenset({"seed"})
        with pytest.raises(ValueError, match="seed"):
            register_backend(misfit, replace=True)
        assert get_backend("perfect") is original


class TestDispatch:
    def test_default_backend_is_the_full_system_mode(self, diamond_program):
        request = SimulationRequest.for_program(diamond_program, num_workers=2)
        assert request.backend == HILMode.FULL_SYSTEM.backend_name == "hil-full"
        assert simulate_request(request).simulator == "picos-full-system"

    def test_mode_backend_name_round_trip(self):
        for mode in HILMode:
            assert get_backend(mode.backend_name).mode is mode
        for name in ("nanos", "perfect"):
            assert not isinstance(get_backend(name), HILBackend)

    def test_mode_keyword_still_selects_hil_backends(self, diamond_program):
        for mode in HILMode:
            backend = HILBackend(mode=mode)
            assert backend.name == mode.backend_name
            direct = backend.simulator(diamond_program, num_workers=2).run()
            via_name = _simulate(diamond_program, mode.backend_name, num_workers=2)
            assert direct.simulator == f"picos-{mode.value}"
            assert direct.makespan == via_name.makespan

    def test_each_builtin_backend_dispatches_by_name(self, diamond_program):
        for name in BUILTIN_BACKENDS:
            result = _simulate(diamond_program, name, num_workers=2)
            assert result.completed_all()
            assert result.num_tasks == diamond_program.num_tasks

    def test_hil_dispatch_matches_direct_simulator(self, diamond_program):
        for mode in HILMode:
            via_backend = _simulate(diamond_program, mode.backend_name, num_workers=3)
            direct = HILSimulator(
                diamond_program, mode=mode, num_workers=3
            ).run()
            assert via_backend.makespan == direct.makespan
            assert via_backend.simulator == direct.simulator
            assert via_backend.counters == direct.counters

    def test_nanos_dispatch_matches_direct_simulator(self, diamond_program):
        via_backend = _simulate(diamond_program, "nanos", num_workers=4)
        direct = NanosRuntimeSimulator(diamond_program, num_threads=4).run()
        assert via_backend.makespan == direct.makespan
        assert via_backend.simulator == "nanos-software"

    def test_perfect_dispatch_matches_direct_simulator(self, diamond_program):
        via_backend = _simulate(diamond_program, "perfect", num_workers=4)
        direct = NanosRuntimeSimulator(diamond_program, 4, ZERO_OVERHEAD).run()
        assert via_backend.makespan == direct.makespan
        assert via_backend.timelines == direct.timelines
        assert via_backend.simulator == "perfect"

    def test_dm_design_and_policy_reach_the_hil_backend(self, diamond_program):
        result = _simulate(
            diamond_program,
            "hil-hw",
            num_workers=2,
            dm_design=DMDesign.WAY16,
            policy=SchedulingPolicy.LIFO,
        )
        direct = HILSimulator(
            diamond_program,
            config=PicosConfig.paper_prototype(DMDesign.WAY16),
            mode=HILMode.HW_ONLY,
            num_workers=2,
            policy=SchedulingPolicy.LIFO,
        ).run()
        assert result.makespan == direct.makespan


class TestPluginBackend:
    """An engine-driven plug-in gets everything a built-in has."""

    def test_registers_and_dispatches_like_a_direct_run(self, diamond_program):
        repro.register_backend(SlowNanosBackend())
        try:
            assert "nanos-slow" in backend_names()
            result = _simulate(diamond_program, "nanos-slow", num_workers=3)
            direct = NanosRuntimeSimulator(diamond_program, 3, SLOW_SCHEDULER).run()
            assert result == direct
            assert result.makespan > _simulate(diamond_program, "nanos", num_workers=3).makespan
        finally:
            unregister_backend("nanos-slow")
        assert "nanos-slow" not in backend_names()

    def test_sessions_slice_it(self, plugin_backend):
        request = _cholesky_request(plugin_backend)
        batch = simulate_request(request)
        session = open_session(request)
        slices = []
        while not slices or not slices[-1].finished:
            slices.append(session.advance(20_000))
        assert len(slices) > 1
        assert [e for s in slices for e in s.events] == lifecycle_events(batch)
        assert session.result() == batch

    def test_it_checkpoints_mid_run_and_restores(self, plugin_backend):
        request = _cholesky_request(plugin_backend)
        batch = simulate_request(request)
        session = open_session(request)
        first = session.advance(20_000)
        assert not first.finished
        restored = restore(SimulationSnapshot.from_document(capture(session).document()))
        rest = []
        while True:
            step = restored.advance(20_000)
            rest.extend(step.events)
            if step.finished:
                break
        assert restored.result() == batch
        assert list(first.events) + rest == lifecycle_events(batch)

    def test_replace_allows_overriding(self, diamond_program):
        original = get_backend("perfect")
        shadow = SlowNanosBackend()
        shadow.name = "perfect"
        shadow.accepts = frozenset()
        register_backend(shadow, replace=True)
        try:
            result = _simulate(diamond_program, "perfect")
            assert result.simulator == "nanos-software"
        finally:
            register_backend(original, replace=True)
        assert get_backend("perfect") is original


class TestWarnings:
    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_typed_entry_points_do_not_warn(self, diamond_program, backend):
        request = SimulationRequest.for_program(diamond_program, backend=backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            batch = simulate_request(request)
            streamed = open_session(request).result()
        assert streamed == batch

    def test_backend_warnings_reach_the_caller(self, diamond_program):
        class NoisyBackend:
            name = "noisy-deprecated"
            description = "backend that warns while building its simulator"
            accepts = frozenset()

            def simulator(self, program, *, num_workers=12):
                warnings.warn(
                    "NoisyBackend.simulator is deprecated",
                    DeprecationWarning,
                    stacklevel=2,
                )
                return NanosRuntimeSimulator(program, num_workers, ZERO_OVERHEAD)

        register_backend(NoisyBackend())
        try:
            with pytest.warns(DeprecationWarning, match="NoisyBackend"):
                result = _simulate(diamond_program, "noisy-deprecated")
        finally:
            unregister_backend("noisy-deprecated")
        assert result.makespan == _simulate(diamond_program, "perfect").makespan
