"""Tests for the typed SimulationRequest API (repro.sim.request)."""

from __future__ import annotations

import dataclasses

import pytest

from tests.helpers import make_program

from repro.core.config import DMDesign, PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.overhead import NanosOverheadModel
from repro.sim.backend import (
    BUILTIN_BACKENDS,
    REQUEST_PARAMETERS,
    backend_accepted_parameters,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.driver import simulate_request
from repro.sim.request import (
    InlineProgramRef,
    InvalidRequestError,
    SimulationRequest,
    WorkloadRef,
)
from repro.sim.results import SimulationResult


@pytest.fixture
def diamond_program():
    return make_program(
        [
            [(0x100, "out")],
            [(0x100, "in"), (0x200, "out")],
            [(0x100, "in"), (0x300, "out")],
            [(0x200, "in"), (0x300, "in")],
        ],
        durations=[50, 40, 30, 20],
    )


class TestProgramRefs:
    def test_workload_ref_builds_and_memoizes(self):
        ref = WorkloadRef("case1")
        program = ref.build()
        assert program.num_tasks > 0
        assert ref.build() is program  # memoized

    def test_workload_ref_digest_is_stable_and_content_sensitive(self):
        assert WorkloadRef("case1").trace_digest() == WorkloadRef("case1").trace_digest()
        assert WorkloadRef("case1").trace_digest() != WorkloadRef("case2").trace_digest()

    def test_inline_ref_wraps_program(self, diamond_program):
        ref = InlineProgramRef(diamond_program)
        assert ref.build() is diamond_program
        digest = ref.trace_digest()
        assert digest == ref.trace_digest()  # cached
        other = InlineProgramRef(make_program([[]], durations=[5]))
        assert digest != other.trace_digest()

    def test_request_rejects_bare_programs(self, diamond_program):
        with pytest.raises(TypeError):
            SimulationRequest(program=diamond_program)  # type: ignore[arg-type]


class TestConstruction:
    def test_for_program_and_for_workload(self, diamond_program):
        inline = SimulationRequest.for_program(diamond_program, backend="perfect")
        assert inline.build_program() is diamond_program
        declarative = SimulationRequest.for_workload("case1", backend="nanos")
        assert declarative.program == WorkloadRef("case1")

    def test_requests_are_hashable_and_frozen(self, diamond_program):
        a = SimulationRequest.for_workload("case1", backend="hil-hw", num_workers=4)
        b = SimulationRequest.for_workload("case1", backend="hil-hw", num_workers=4)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.num_workers = 8  # type: ignore[misc]

    def test_basic_field_validation(self, diamond_program):
        with pytest.raises(ValueError):
            SimulationRequest.for_program(diamond_program, num_workers=0)
        with pytest.raises(ValueError):
            SimulationRequest.for_program(diamond_program, backend="")


class TestValidation:
    def test_default_requests_validate_on_every_builtin(self, diamond_program):
        for name in BUILTIN_BACKENDS:
            request = SimulationRequest.for_program(diamond_program, backend=name)
            assert request.validate() is request
            assert request.rejected_parameters() == ()

    @pytest.mark.parametrize(
        "backend,field,value",
        [
            ("nanos", "config", PicosConfig()),
            ("nanos", "dm_design", DMDesign.WAY16),
            ("nanos", "policy", SchedulingPolicy.LIFO),
            ("perfect", "overhead", NanosOverheadModel()),
            ("perfect", "policy", SchedulingPolicy.LIFO),
            ("hil-full", "overhead", NanosOverheadModel()),
            ("hil-hw", "seed", 7),
        ],
    )
    def test_unaccepted_parameters_raise(self, diamond_program, backend, field, value):
        request = SimulationRequest.for_program(
            diamond_program, backend=backend, **{field: value}
        )
        assert field in request.rejected_parameters()
        with pytest.raises(InvalidRequestError) as excinfo:
            request.validate()
        assert backend in str(excinfo.value)
        assert field in str(excinfo.value)

    def test_rejection_message_says_how_to_fix_the_request(self, diamond_program):
        request = SimulationRequest.for_program(
            diamond_program, backend="perfect", policy=SchedulingPolicy.LIFO
        )
        with pytest.raises(InvalidRequestError) as excinfo:
            request.validate()
        assert str(excinfo.value) == (
            "backend 'perfect' does not accept parameter(s) 'policy'; "
            "remove them from the SimulationRequest"
        )

    def test_default_valued_parameters_are_never_rejected(self, diamond_program):
        # Every request carries a policy field; the FIFO default must not
        # count as "passing a policy" to a policy-blind backend.
        request = SimulationRequest.for_program(
            diamond_program, backend="perfect", policy=SchedulingPolicy.FIFO
        )
        assert request.rejected_parameters() == ()

    def test_without_resets_to_defaults(self, diamond_program):
        request = SimulationRequest.for_program(
            diamond_program, backend="nanos", config=PicosConfig(), seed=3
        )
        cleaned = request.without(("config", "seed"))
        assert cleaned.config is None and cleaned.seed is None
        cleaned.validate()

    def test_simulate_request_validates(self, diamond_program):
        with pytest.raises(InvalidRequestError):
            simulate_request(
                SimulationRequest.for_program(
                    diamond_program, backend="perfect", policy=SchedulingPolicy.LIFO
                )
            )


class TestNormalize:
    def test_dm_design_folds_into_config(self, diamond_program):
        request = SimulationRequest.for_program(
            diamond_program, backend="hil-hw", dm_design=DMDesign.WAY16
        )
        normalized = request.normalize()
        assert normalized.dm_design is None
        assert normalized.config == PicosConfig.paper_prototype(DMDesign.WAY16)
        # idempotent and equal to the explicitly-configured spelling
        assert normalized.normalize() == normalized
        explicit = SimulationRequest.for_program(
            diamond_program,
            backend="hil-hw",
            config=PicosConfig.paper_prototype(DMDesign.WAY16),
        )
        assert normalized == explicit.normalize()

    def test_explicit_config_wins_over_shortcut(self, diamond_program):
        config = PicosConfig(tm_entries=8)
        request = SimulationRequest.for_program(
            diamond_program, backend="hil-hw", config=config, dm_design=DMDesign.WAY16
        )
        assert request.normalize().config == config

    def test_resolved_config_defaults_to_none(self, diamond_program):
        request = SimulationRequest.for_program(diamond_program, backend="nanos")
        assert request.resolved_config() is None


class TestCacheKey:
    def test_key_is_deterministic(self, diamond_program):
        request = SimulationRequest.for_program(diamond_program, backend="hil-hw")
        assert request.cache_key() == request.cache_key()

    def test_key_separates_every_identity_axis(self, diamond_program):
        base = SimulationRequest.for_program(diamond_program, backend="hil-hw")
        variants = [
            dataclasses.replace(base, backend="hil-full"),
            dataclasses.replace(base, num_workers=3),
            dataclasses.replace(base, policy=SchedulingPolicy.LIFO),
            dataclasses.replace(base, config=PicosConfig(tm_entries=16)),
            dataclasses.replace(base, dm_design=DMDesign.WAY16),
            dataclasses.replace(base, backend="nanos", overhead=NanosOverheadModel(creation_base=1)),
            dataclasses.replace(base, seed=42),
            SimulationRequest.for_program(make_program([[]], durations=[1]), backend="hil-hw"),
        ]
        keys = {v.cache_key() for v in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_shortcut_and_explicit_config_share_a_key(self, diamond_program):
        shortcut = SimulationRequest.for_program(
            diamond_program, backend="hil-hw", dm_design=DMDesign.PEARSON8
        )
        explicit = SimulationRequest.for_program(
            diamond_program,
            backend="hil-hw",
            config=PicosConfig.paper_prototype(DMDesign.PEARSON8),
        )
        assert shortcut.cache_key() == explicit.cache_key()

    def test_prefix_and_suffix_salt_the_key(self, diamond_program):
        request = SimulationRequest.for_program(diamond_program, backend="hil-hw")
        assert request.cache_key(prefix=("v2",)) != request.cache_key()
        assert request.cache_key(suffix=(("x", 1),)) != request.cache_key()

    def test_explicit_trace_digest_short_circuits(self, diamond_program):
        request = SimulationRequest.for_program(diamond_program, backend="hil-hw")
        assert (
            request.cache_key(trace_digest=request.trace_digest())
            == request.cache_key()
        )
        assert request.cache_key(trace_digest="something-else") != request.cache_key()


class TestAcceptedParameters:
    def test_builtin_declarations(self):
        assert backend_accepted_parameters(get_backend("hil-full")) == {
            "config",
            "dm_design",
            "faults",
            "policy",
        }
        assert backend_accepted_parameters(get_backend("nanos")) == {
            "faults",
            "overhead",
        }
        assert backend_accepted_parameters(get_backend("perfect")) == frozenset()

    def test_legacy_backend_with_kwargs_accepts_everything(self):
        class Legacy:
            name = "legacy"
            description = "old-style catch-all"

            def simulate(self, program, *, num_workers=12, **kwargs):
                raise NotImplementedError

        assert backend_accepted_parameters(Legacy()) == REQUEST_PARAMETERS

    def test_legacy_backend_parameters_inferred_from_signature(self):
        class Named:
            name = "named"
            description = "declares via signature"

            def simulate(self, program, *, num_workers=12, policy=None):
                raise NotImplementedError

        assert backend_accepted_parameters(Named()) == {"policy"}

    def test_stochastic_plugin_accepts_seed(self, diamond_program):
        class Stochastic:
            name = "stochastic"
            description = "seed-driven test backend"
            accepts = frozenset({"seed"})

            def simulate(self, program, *, num_workers=12, seed=None):
                return SimulationResult(
                    simulator=self.name,
                    program_name=program.name,
                    num_workers=num_workers,
                    makespan=1 + (seed or 0),
                    sequential_cycles=program.sequential_cycles,
                    num_tasks=program.num_tasks,
                )

        register_backend(Stochastic())
        try:
            result = simulate_request(
                SimulationRequest.for_program(
                    diamond_program, backend="stochastic", seed=41
                )
            )
            assert result.makespan == 42
        finally:
            unregister_backend("stochastic")


class TestSimulateKwargs:
    def test_only_accepted_parameters_travel(self, diamond_program):
        hil = SimulationRequest.for_program(
            diamond_program, backend="hil-hw", num_workers=3
        )
        assert set(hil.simulate_kwargs()) == {
            "num_workers",
            "config",
            "dm_design",
            "faults",
            "policy",
        }
        nanos = SimulationRequest.for_program(diamond_program, backend="nanos")
        assert set(nanos.simulate_kwargs()) == {"num_workers", "overhead", "faults"}
        perfect = SimulationRequest.for_program(diamond_program, backend="perfect")
        assert set(perfect.simulate_kwargs()) == {"num_workers"}
