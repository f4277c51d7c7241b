"""Typed simulation requests: the complete description of one run.

A :class:`SimulationRequest` is the validated, hashable value object behind
every simulation in the package: which program (by workload reference or as
an in-memory :class:`~repro.runtime.task.TaskProgram`), which simulator
backend, how many workers, and the backend-specific knobs (Picos
configuration, Dependence Memory design shortcut, scheduling policy,
Nanos++ overhead model, fault scenarios).

Instead of every backend silently swallowing the parameters it does not
understand through ``**kwargs``, a request is checked against the
backend's declared parameter set (its ``accepts`` frozenset, see
:mod:`repro.sim.backend`) and rejects unknown ones with a clear
:class:`InvalidRequestError`.  Because the request is a frozen dataclass it
is also the natural unit for cache keys (:meth:`SimulationRequest.
cache_key`), sweep templates (:mod:`repro.experiments.runner`) and future
multi-tenant serving queues.

Typical use::

    request = SimulationRequest.for_workload(
        "cholesky", block_size=32, backend="hil-full", num_workers=8
    )
    result = simulate_request(request)          # repro.sim.driver
    session = open_session(request)             # repro.sim.session

Program references
------------------
``request.program`` is either a :class:`WorkloadRef` (a declarative
"build me benchmark X at block size Y" reference, resolved through the
application registry and memoized) or an :class:`InlineProgramRef`
(wrapping an already-built program).  Both expose ``build()`` and
``trace_digest()``, so cache keys can be derived without re-serialising
the trace on every lookup.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import DMDesign, PicosConfig
from repro.core.hashing import fingerprint_mapping, stable_digest
from repro.core.scheduler import SchedulingPolicy
from repro.faults.scenario import FaultScenario
from repro.runtime.overhead import NanosOverheadModel
from repro.runtime.task import TaskProgram
from repro.sim.backend import REQUEST_PARAMETERS, get_backend


class InvalidRequestError(ValueError):
    """A simulation request carries parameters its backend does not accept.

    Raised by :meth:`SimulationRequest.validate` (and therefore by the
    typed entry points :func:`repro.sim.driver.simulate_request` and
    :func:`repro.sim.session.open_session`).
    """

    def __init__(self, backend: str, parameters: Tuple[str, ...]) -> None:
        self.backend = backend
        self.parameters = parameters
        names = ", ".join(repr(p) for p in parameters)
        super().__init__(
            f"backend {backend!r} does not accept parameter(s) {names}; "
            "remove them from the SimulationRequest"
        )


# ----------------------------------------------------------------------
# program references
# ----------------------------------------------------------------------
#: Recently built programs; bounded because the finest-grained workloads
#: reach 140k tasks each -- retaining every one for the life of the process
#: would hold hundreds of MB that per-experiment loops released naturally.
_PROGRAM_MEMO: "OrderedDict[Tuple[str, Optional[int], Optional[int]], TaskProgram]" = (
    OrderedDict()
)
_PROGRAM_MEMO_LIMIT = 8
#: Trace digests are tiny strings, so this memo is unbounded.
_TRACE_DIGEST_MEMO: Dict[Tuple[str, Optional[int], Optional[int]], str] = {}


def build_workload(
    workload: str,
    block_size: Optional[int] = None,
    problem_size: Optional[int] = None,
) -> TaskProgram:
    """Build (and memoize) the task program of one workload reference.

    Synthetic cases (``case1`` ... ``case7``) take no block size; everything
    else goes through :func:`repro.apps.registry.build_benchmark`.  A small
    LRU keeps the programs of the sweep currently in flight alive without
    pinning every workload of a long session in memory.
    """
    memo_key = (workload, block_size, problem_size)
    program = _PROGRAM_MEMO.get(memo_key)
    if program is None:
        from repro.traces.synthetic import SYNTHETIC_CASES, synthetic_case

        if workload in SYNTHETIC_CASES:
            program = synthetic_case(workload)
        else:
            from repro.apps.registry import build_benchmark

            if block_size is None:
                raise ValueError(f"workload {workload!r} requires a block size")
            program = build_benchmark(workload, block_size, problem_size=problem_size)
        _PROGRAM_MEMO[memo_key] = program
        while len(_PROGRAM_MEMO) > _PROGRAM_MEMO_LIMIT:
            _PROGRAM_MEMO.popitem(last=False)
    else:
        _PROGRAM_MEMO.move_to_end(memo_key)
    return program


def workload_trace_digest(
    workload: str,
    block_size: Optional[int] = None,
    problem_size: Optional[int] = None,
) -> str:
    """Stable digest of the workload's trace content (memoized).

    The digest covers the full serialised trace (every task, dependence,
    duration and label), so any change to a generator invalidates exactly
    the cache entries it affects.
    """
    memo_key = (workload, block_size, problem_size)
    digest = _TRACE_DIGEST_MEMO.get(memo_key)
    if digest is None:
        digest = _program_digest(build_workload(workload, block_size, problem_size))
        _TRACE_DIGEST_MEMO[memo_key] = digest
    return digest


def _program_digest(program: TaskProgram) -> str:
    from repro.traces.trace import TaskTrace

    return stable_digest(TaskTrace(program).dumps())


@dataclass(frozen=True)
class WorkloadRef:
    """Declarative reference to a buildable workload.

    The reference is tiny, hashable and picklable, so it travels through
    cache keys and across process boundaries; the program itself is rebuilt
    (deterministically) and memoized wherever it is needed.
    """

    #: Benchmark name (``repro.apps.registry``) or synthetic case name.
    workload: str
    #: Block size (or H264dec granularity); ``None`` for synthetic cases.
    block_size: Optional[int] = None
    #: Problem-size override; ``None`` selects the paper's size.
    problem_size: Optional[int] = None

    def build(self) -> TaskProgram:
        """The referenced program (memoized across requests)."""
        return build_workload(self.workload, self.block_size, self.problem_size)

    def trace_digest(self) -> str:
        """Stable digest of the referenced trace (memoized)."""
        return workload_trace_digest(self.workload, self.block_size, self.problem_size)


@dataclass(frozen=True)
class InlineProgramRef:
    """Reference wrapping an already-built in-memory program.

    Used by call sites that construct programs directly (tests, examples,
    streaming sessions).  Identity follows the wrapped program object; the
    trace digest is computed from the serialised trace on first use and
    cached on the reference.
    """

    program: TaskProgram

    def build(self) -> TaskProgram:
        return self.program

    def trace_digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = _program_digest(self.program)
            object.__setattr__(self, "_digest", cached)
        return cached


#: Anything a request can carry as its program reference.
ProgramRef = Union[WorkloadRef, InlineProgramRef]


def config_fields(config: PicosConfig) -> Dict[str, object]:
    """A configuration's fields as JSON-safe scalars (enums -> values).

    Shared by :meth:`SimulationRequest.config_fingerprint` and the
    experiment runner's ``config_extra`` encoding: cache-key stability
    depends on both rendering a configuration identically.
    """
    return {
        f.name: getattr(config, f.name).value
        if isinstance(getattr(config, f.name), DMDesign)
        else getattr(config, f.name)
        for f in dataclasses.fields(config)
    }


# ----------------------------------------------------------------------
# the request itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamOptions:
    """Delivery preferences of a streamed/served simulation.

    These knobs shape *how* a run is delivered -- never *what* it computes
    -- so they are deliberately excluded from :meth:`SimulationRequest.
    cache_key` and from the backend parameter check: two requests differing
    only in stream options describe the same simulation.
    """

    #: Upper bound on one cooperative slice's cycle budget.  The server
    #: sizes each slice by the events the last one returned, within this
    #: bound (``None`` = the server's bound).  A bare ``advance()`` takes
    #: it as its budget (``None`` = the session default,
    #: :data:`repro.sim.session.DEFAULT_SLICE_CYCLES`).
    slice_cycles: Optional[int] = None
    #: Maximum lifecycle events per streamed protocol frame (``None`` = the
    #: server default).
    event_batch: Optional[int] = None
    #: Whether lifecycle events are streamed at all (``False`` delivers the
    #: final result only).
    events: bool = True

    def __post_init__(self) -> None:
        if self.slice_cycles is not None and self.slice_cycles < 1:
            raise ValueError("slice_cycles must be >= 1")
        if self.event_batch is not None and self.event_batch < 1:
            raise ValueError("event_batch must be >= 1")


#: Tenant name a request carries when none was specified.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class SimulationRequest:
    """The complete, validated, hashable description of one simulation.

    Attributes
    ----------
    program:
        What to simulate: a :class:`WorkloadRef` or :class:`InlineProgramRef`.
    backend:
        Name of the simulator backend in the registry of
        :mod:`repro.sim.backend`.
    num_workers:
        Worker cores (threads, for the software runtime); universal.
    config:
        Full Picos configuration (``hil-*`` backends).
    dm_design:
        Shortcut selecting a paper-prototype configuration by Dependence
        Memory design; folded into ``config`` by :meth:`normalize`.
    policy:
        Ready-queue policy of the Task Scheduler (``hil-*`` backends).
    overhead:
        Nanos++ overhead model override (``nanos`` backend).
    faults:
        Armed fault scenarios (:class:`repro.faults.FaultScenario`),
        injected deterministically by the engine-driven backends; the
        zero-overhead ``perfect`` backend rejects them.  Part of the cache
        key: a faulted run is a different simulation.
    tenant:
        Accounting identity for the serving layer (admission control and
        quotas, :mod:`repro.service`); has no effect on the simulation and
        is excluded from the cache key, so identical requests from
        different tenants share one cache entry.
    stream:
        Delivery preferences (:class:`StreamOptions`); ``None`` means
        server/session defaults.  Also cache-key-neutral.
    """

    program: ProgramRef
    backend: str = "hil-full"
    num_workers: int = 12
    config: Optional[PicosConfig] = None
    dm_design: Optional[DMDesign] = None
    policy: SchedulingPolicy = SchedulingPolicy.FIFO
    overhead: Optional[NanosOverheadModel] = None
    faults: Tuple[FaultScenario, ...] = ()
    tenant: str = DEFAULT_TENANT
    stream: Optional[StreamOptions] = None

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            # Accept any sequence of scenarios; canonicalize to a tuple so
            # the request stays hashable and order-stable.
            object.__setattr__(self, "faults", tuple(self.faults))
        for scenario in self.faults:
            if not isinstance(scenario, FaultScenario):
                raise TypeError(
                    "faults must be FaultScenario instances "
                    f"(got {type(scenario).__name__})"
                )
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("a request needs a non-empty backend name")
        if self.num_workers < 1:
            raise ValueError("at least one worker is required")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValueError("a request needs a non-empty tenant name")
        if not hasattr(self.program, "build") or not hasattr(
            self.program, "trace_digest"
        ):
            raise TypeError(
                "program must be a WorkloadRef or InlineProgramRef "
                "(wrap TaskProgram instances with SimulationRequest.for_program)"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_program(cls, program: TaskProgram, **fields: object) -> "SimulationRequest":
        """Build a request around an in-memory program."""
        return cls(program=InlineProgramRef(program), **fields)  # type: ignore[arg-type]

    @classmethod
    def for_workload(
        cls,
        workload: str,
        block_size: Optional[int] = None,
        problem_size: Optional[int] = None,
        **fields: object,
    ) -> "SimulationRequest":
        """Build a request around a declarative workload reference."""
        ref = WorkloadRef(workload, block_size, problem_size)
        return cls(program=ref, **fields)  # type: ignore[arg-type]

    @classmethod
    def streaming(cls, name: str = "", **fields: object) -> "SimulationRequest":
        """Build a request with an initially empty program.

        Used with :func:`repro.sim.session.open_session` when tasks arrive
        online through :meth:`SimulationSession.submit` instead of being
        known up front.
        """
        return cls.for_program(TaskProgram(name=name), **fields)

    # ------------------------------------------------------------------
    # validation and normalization
    # ------------------------------------------------------------------
    def accepted_parameters(self) -> FrozenSet[str]:
        """The backend's declared ``accepts`` set (resolved via the registry)."""
        return get_backend(self.backend).accepts

    def rejected_parameters(self) -> Tuple[str, ...]:
        """Names of non-default parameters the backend does not accept.

        Only *non-default* values count: every request carries a ``policy``
        field, but only an explicit non-FIFO policy is a parameter in the
        rejection sense.
        """
        accepts = self.accepted_parameters()
        rejected: List[str] = []
        for name in REQUEST_PARAMETERS:
            if name in accepts:
                continue
            value = getattr(self, name)
            default = _FIELD_DEFAULTS[name]
            if value != default:
                rejected.append(name)
        return tuple(rejected)

    def validate(self) -> "SimulationRequest":
        """Raise :class:`InvalidRequestError` on unaccepted parameters."""
        rejected = self.rejected_parameters()
        if rejected:
            raise InvalidRequestError(self.backend, rejected)
        return self

    def without(self, names: Iterable[str]) -> "SimulationRequest":
        """A copy with the named parameters reset to their defaults."""
        changes = {name: _FIELD_DEFAULTS[name] for name in names}
        return replace(self, **changes)

    def normalize(self) -> "SimulationRequest":
        """Validate and return the canonical form of the request.

        The ``dm_design`` shortcut is folded into a full paper-prototype
        ``config`` (when the backend takes a configuration and none was
        given explicitly), so two requests describing the same simulation
        normalize to the same value.
        """
        normalized = self.validate()
        if (
            normalized.dm_design is not None
            and "config" in normalized.accepted_parameters()
        ):
            config = normalized.config
            if config is None:
                config = PicosConfig.paper_prototype(normalized.dm_design)
            return replace(normalized, config=config, dm_design=None)
        return normalized

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    def build_program(self) -> TaskProgram:
        """The program to simulate (built/memoized through the reference)."""
        return self.program.build()

    def trace_digest(self) -> str:
        """Stable digest of the request's trace content."""
        return self.program.trace_digest()

    def resolved_config(self) -> Optional[PicosConfig]:
        """The effective Picos configuration (``dm_design`` folded in)."""
        if self.config is not None:
            return self.config
        if self.dm_design is not None:
            return PicosConfig.paper_prototype(self.dm_design)
        return None

    def config_fingerprint(self) -> str:
        """Stable fingerprint of the effective configuration.

        ``None`` fingerprints as the default :class:`PicosConfig`, so
        requests for configuration-blind backends still produce stable,
        comparable keys.
        """
        config = self.resolved_config() or PicosConfig()
        return fingerprint_mapping(config_fields(config))

    def cache_key(
        self,
        *,
        prefix: Sequence[object] = (),
        suffix: Sequence[object] = (),
        trace_digest: Optional[str] = None,
    ) -> str:
        """Stable content-addressed key of this request.

        The key combines the trace digest, the backend name, the effective
        configuration fingerprint, the worker count and the policy -- the
        exact inputs that determine a deterministic simulation's outcome --
        plus the overhead model and the fault scenarios when set.
        ``prefix``/``suffix`` let callers salt the key with versioning or
        sweep-specific parts (:func:`repro.experiments.runner.
        point_cache_key` does exactly that, byte-compatibly with the keys it
        minted before requests existed); ``trace_digest`` short-circuits
        digest computation when the caller already holds it.
        """
        parts: List[object] = list(prefix)
        parts.append(trace_digest if trace_digest is not None else self.trace_digest())
        parts.extend(
            [
                self.backend,
                self.config_fingerprint(),
                self.num_workers,
                self.policy.value,
            ]
        )
        if self.overhead is not None:
            parts.append(
                ("overhead", tuple(sorted(dataclasses.asdict(self.overhead).items())))
            )
        if self.faults:
            parts.append(
                ("faults", tuple(sc.cache_token() for sc in self.faults))
            )
        parts.extend(suffix)
        return stable_digest(*parts)

    def simulate_kwargs(self) -> Dict[str, object]:
        """The keyword arguments to pass to ``backend.simulator``.

        ``num_workers`` always travels; the checked parameters travel only
        when the backend declares them, so a backend never sees a knob it
        did not ask for.
        """
        accepts = self.accepted_parameters()
        kwargs: Dict[str, object] = {"num_workers": self.num_workers}
        for name in REQUEST_PARAMETERS:
            if name in accepts:
                kwargs[name] = getattr(self, name)
        return kwargs


#: Default value of every checked parameter (used by rejection/reset
#: logic), derived from the dataclass itself so it can never drift.
_FIELD_DEFAULTS: Dict[str, object] = {
    f.name: f.default
    for f in dataclasses.fields(SimulationRequest)
    if f.name in REQUEST_PARAMETERS
}
