"""Tests for the public API surface and small supporting utilities."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.core.stats import PicosStats
from repro.core.config import DMDesign, PicosConfig
from repro.runtime.task import Dependence, Direction
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest

from tests.helpers import make_program


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert repro.__version__

    def test_lazy_runtime_exports(self):
        import repro.runtime as runtime

        assert runtime.NanosRuntimeSimulator.__name__ == "NanosRuntimeSimulator"
        for retired in ("PerfectScheduler", "DoesNotExist"):
            with pytest.raises(AttributeError):
                getattr(runtime, retired)

    def test_subpackage_exports_resolve(self):
        import repro.analysis as analysis
        import repro.apps as apps
        import repro.core as core
        import repro.hardware as hardware
        import repro.traces as traces

        for module in (analysis, apps, core, hardware, traces):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestStats:
    def test_as_dict(self):
        stats = PicosStats()
        stats.tasks_accepted = 3
        flattened = stats.as_dict()
        assert flattened["tasks_accepted"] == 3
        assert "dm_conflicts" in flattened
        assert list(flattened) == [field.name for field in dataclasses.fields(PicosStats)]


class TestDriverHelpers:
    def test_dm_design_shortcut_matches_explicit_config(self):
        program = make_program(
            [[(0x1000, Direction.OUT)], [(0x1000, Direction.IN)]], durations=[100, 100]
        )
        via_shortcut = simulate_request(
            SimulationRequest.for_program(
                program, num_workers=2, backend="hil-hw", dm_design=DMDesign.WAY16
            )
        )
        via_config = simulate_request(
            SimulationRequest.for_program(
                program,
                num_workers=2,
                backend="hil-hw",
                config=PicosConfig.paper_prototype(DMDesign.WAY16),
            )
        )
        assert via_shortcut.makespan == via_config.makespan

    def test_worker_sweep_and_curve(self):
        program = make_program([[] for _ in range(16)], durations=[1000] * 16)
        results = {
            workers: simulate_request(
                SimulationRequest.for_program(
                    program, backend="hil-hw", num_workers=workers
                )
            )
            for workers in (1, 2, 4)
        }
        assert set(results) == {1, 2, 4}
        curve = [results[w].speedup for w in sorted(results)]
        assert len(curve) == 3
        assert curve == sorted(curve)

    def test_explicit_config_overrides_design_shortcut(self):
        program = make_program([[]], durations=[10])
        result = simulate_request(
            SimulationRequest.for_program(
                program,
                num_workers=1,
                backend="hil-hw",
                config=PicosConfig(tm_entries=2),
                dm_design=DMDesign.WAY16,
            )
        )
        assert result.completed_all()


class TestConfigImmutability:
    def test_config_is_frozen(self):
        config = PicosConfig()
        with pytest.raises(Exception):
            config.tm_entries = 3  # type: ignore[misc]

    def test_dependences_are_frozen(self):
        dep = Dependence(0x10, Direction.IN)
        with pytest.raises(Exception):
            dep.address = 0x20  # type: ignore[misc]
