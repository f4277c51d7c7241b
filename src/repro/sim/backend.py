"""Simulator-backend abstraction: one protocol, one registry, five backends.

The paper compares a single workload across several dependence-management
implementations: the Picos hardware prototype in its three HIL modes, the
Nanos++ software-only runtime and the Perfect simulator (its zero-overhead
schedule).  This module gives those implementations one common face, so
every experiment driver -- and every future runtime model -- talks to them
through a single string-keyed dispatch point instead of hard-coding
simulator classes.

A backend is any object satisfying :class:`SimulatorBackend`: it has a
``name``, a ``description``, a ``simulate(program, ...)`` method returning
a :class:`~repro.sim.results.SimulationResult`, and (optionally) an
``accepts`` set declaring which request parameters it understands.
Backends that predate the typed-request API work unchanged: their accepted
parameters are inferred from the ``simulate`` signature
(:func:`backend_accepted_parameters`).  Every backend streams through
:func:`repro.sim.session.open_session`, which wraps it in a
:class:`~repro.sim.session.SimulationSession`.  The built-in simulators
register themselves when their module is imported:

========== ==========================================================
``hil-full``  Picos HIL platform, Full-system mode (Table IV row 3)
``hil-comm``  Picos HIL platform, HW+communication mode (row 2)
``hil-hw``    Picos HIL platform, HW-only mode (row 1)
``nanos``     Nanos++ software-only runtime (the paper's baseline)
``perfect``   Perfect simulator (the zero-overhead Nanos++ schedule)
========== ==========================================================

New backends plug in with :func:`register_backend`::

    class MyRuntime:
        name = "my-runtime"
        description = "an experimental scheduler"
        accepts = frozenset({"policy"})          # declared parameter set
        def simulate(self, program, *, num_workers=12, policy=..., **kwargs):
            ...
    register_backend(MyRuntime())
    simulate_request(SimulationRequest.for_program(program, backend="my-runtime"))
"""

from __future__ import annotations

import inspect
from typing import Dict, FrozenSet, Optional, Protocol, Tuple, runtime_checkable

from repro.core.config import PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.task import TaskProgram
from repro.sim.results import SimulationResult

#: The request parameters a backend may declare in its ``accepts`` set
#: (``program`` and ``num_workers`` are universal and always passed).
REQUEST_PARAMETERS: FrozenSet[str] = frozenset(
    {"config", "dm_design", "policy", "overhead", "seed", "faults"}
)


@runtime_checkable
class SimulatorBackend(Protocol):
    """What every simulator backend must provide.

    ``simulate`` receives the program plus the keyword parameters the
    backend *declares* (via an ``accepts`` frozenset of names drawn from
    :data:`REQUEST_PARAMETERS`); the typed request layer validates every
    :class:`~repro.sim.request.SimulationRequest` against that set, so a
    backend is never handed a knob it did not ask for and callers get an
    :class:`~repro.sim.request.InvalidRequestError` instead of silent
    swallowing.  Legacy backends without ``accepts`` keep working: their
    parameter set is inferred from the ``simulate`` signature.
    """

    #: Registry key and display identifier of the backend.
    name: str
    #: One-line human description (shown by ``picos-experiment`` helpers).
    description: str

    def simulate(
        self,
        program: TaskProgram,
        *,
        num_workers: int = 12,
        config: Optional[PicosConfig] = None,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        **kwargs: object,
    ) -> SimulationResult:
        """Run ``program`` on ``num_workers`` workers and return the result."""
        ...


def backend_accepted_parameters(backend: SimulatorBackend) -> FrozenSet[str]:
    """The request parameters ``backend`` understands.

    A backend declares them explicitly through an ``accepts`` attribute
    (the built-ins all do).  For legacy backends the set is inferred from
    the ``simulate`` signature: named keyword parameters are accepted, and
    a bare ``**kwargs`` catch-all -- the historical protocol -- accepts
    everything, preserving old plug-in behaviour.
    """
    declared = getattr(backend, "accepts", None)
    if declared is not None:
        return frozenset(declared)
    try:
        parameters = inspect.signature(backend.simulate).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/C callables
        return REQUEST_PARAMETERS
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return REQUEST_PARAMETERS
    return frozenset(REQUEST_PARAMETERS & set(parameters))


class UnknownBackendError(KeyError):
    """Raised when a backend name is not present in the registry."""

    def __init__(self, name: str, available: Tuple[str, ...]) -> None:
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        names = ", ".join(self.available) or "<none>"
        return f"unknown simulator backend {self.name!r}; available: {names}"


#: Canonical names of the built-in backends (the five comparison points of
#: the paper), exported so callers never spell them by hand.
BACKEND_HIL_FULL = "hil-full"
BACKEND_HIL_HW = "hil-hw"
BACKEND_HIL_COMM = "hil-comm"
BACKEND_NANOS = "nanos"
BACKEND_PERFECT = "perfect"

BUILTIN_BACKENDS: Tuple[str, ...] = (
    BACKEND_HIL_FULL,
    BACKEND_HIL_HW,
    BACKEND_HIL_COMM,
    BACKEND_NANOS,
    BACKEND_PERFECT,
)

_REGISTRY: Dict[str, SimulatorBackend] = {}
_BUILTINS_LOADED = False


def _load_builtin_backends() -> None:
    """Import the simulator modules so they self-register.

    The simulators import this module (for :func:`register_backend`), so the
    registry must not import them at module level; they are pulled in lazily
    the first time a lookup happens.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.runtime.nanos  # noqa: F401  (registers "nanos" and "perfect")
    import repro.sim.hil  # noqa: F401  (registers the three HIL modes)


def register_backend(backend: SimulatorBackend, *, replace: bool = False) -> SimulatorBackend:
    """Add ``backend`` to the registry under ``backend.name``.

    Registering a name twice is an error unless ``replace=True``; this
    protects against two plug-ins silently shadowing each other.  The
    backend is returned so the call can be used as a decorator-like
    one-liner on an instance.
    """
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("a backend must expose a non-empty string 'name'")
    if not callable(getattr(backend, "simulate", None)):
        raise ValueError(f"backend {name!r} must expose a callable 'simulate'")
    if not replace and name in _REGISTRY:
        raise ValueError(f"a backend named {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> SimulatorBackend:
    """Look up a backend by name, loading the built-ins on first use."""
    _load_builtin_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted alphabetically."""
    _load_builtin_backends()
    return tuple(sorted(_REGISTRY))


def describe_backends() -> Dict[str, str]:
    """Mapping of backend name to its one-line description."""
    _load_builtin_backends()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}
