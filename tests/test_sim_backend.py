"""Tests for the simulator-backend protocol, registry and dispatch."""

from __future__ import annotations

import warnings

import pytest

from tests.helpers import make_program

from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.perfect import PerfectScheduler
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
from repro.sim.results import SimulationResult
from repro.sim.session import open_session


def _simulate(program, backend, **fields):
    return simulate_request(SimulationRequest.for_program(program, backend=backend, **fields))


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

    def test_register_rejects_malformed_backends(self):
        class NoName:
            def simulate(self, program, **kwargs):
                return None

        class NoSimulate:
            name = "broken"
            description = "broken"

        with pytest.raises(ValueError):
            register_backend(NoName())
        with pytest.raises(ValueError):
            register_backend(NoSimulate())


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
            direct = backend.simulate(diamond_program, num_workers=2)
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
        direct = PerfectScheduler(diamond_program, num_workers=4).run()
        assert via_backend.makespan == direct.makespan
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


class TestCustomBackend:
    def test_custom_backend_registers_and_dispatches(self, diamond_program):
        class InstantBackend:
            """A degenerate runtime: every task executes at time zero."""

            name = "instant"
            description = "all tasks finish instantly (test backend)"

            def simulate(self, program, *, num_workers=12, **kwargs):
                return SimulationResult(
                    simulator=self.name,
                    program_name=program.name,
                    num_workers=num_workers,
                    makespan=1,
                    sequential_cycles=program.sequential_cycles,
                    num_tasks=program.num_tasks,
                )

        register_backend(InstantBackend())
        try:
            assert "instant" in backend_names()
            result = _simulate(diamond_program, "instant", num_workers=7)
            assert result.simulator == "instant"
            assert result.makespan == 1
            assert result.num_workers == 7
        finally:
            unregister_backend("instant")
        assert "instant" not in backend_names()

    def test_replace_allows_overriding(self, diamond_program):
        original = get_backend("perfect")

        class FakePerfect:
            name = "perfect"
            description = "shadowing the roofline"

            def simulate(self, program, *, num_workers=12, **kwargs):
                return SimulationResult(
                    simulator="fake-perfect",
                    program_name=program.name,
                    num_workers=num_workers,
                    makespan=123,
                    sequential_cycles=program.sequential_cycles,
                    num_tasks=program.num_tasks,
                )

        register_backend(FakePerfect(), replace=True)
        try:
            result = _simulate(diamond_program, "perfect")
            assert result.simulator == "fake-perfect"
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
            description = "backend that warns during simulate"
            accepts = frozenset()

            def simulate(self, program, *, num_workers=12, **kwargs):
                warnings.warn(
                    "NoisyBackend.simulate is deprecated",
                    DeprecationWarning,
                    stacklevel=2,
                )
                return SimulationResult(
                    simulator=self.name,
                    program_name=program.name,
                    num_workers=num_workers,
                    makespan=1,
                    sequential_cycles=program.sequential_cycles,
                    num_tasks=program.num_tasks,
                )

        register_backend(NoisyBackend())
        try:
            with pytest.warns(DeprecationWarning, match="NoisyBackend"):
                result = _simulate(diamond_program, "noisy-deprecated")
        finally:
            unregister_backend("noisy-deprecated")
        assert result.makespan == 1
