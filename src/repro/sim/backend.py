"""Simulator-backend abstraction: one protocol, one registry, five backends.

The paper compares a single workload across several dependence-management
implementations: the Picos hardware prototype in its three HIL modes, the
Nanos++ software-only runtime and the Perfect simulator (its zero-overhead
schedule).  This module gives those implementations one common face, so
every experiment driver -- and every future runtime model -- talks to them
through a single string-keyed dispatch point instead of hard-coding
simulator classes.

A backend is any object satisfying :class:`SimulatorBackend`: a ``name``,
a ``description``, an ``accepts`` frozenset naming the request parameters
it understands (drawn from :data:`REQUEST_PARAMETERS`), and one factory,
``simulator(program, num_workers=..., **params)``, that builds an
engine-driven simulator (:class:`EngineSimulator`).  The batch path runs
that simulator to completion; sessions slice it, and snapshots capture and
restore it.  :func:`register_backend` refuses a backend that does not fit.
The built-in simulators register themselves when their module is imported:

========== ==========================================================
``hil-full``  Picos HIL platform, Full-system mode (Table IV row 3)
``hil-comm``  Picos HIL platform, HW+communication mode (row 2)
``hil-hw``    Picos HIL platform, HW-only mode (row 1)
``nanos``     Nanos++ software-only runtime (the paper's baseline)
``perfect``   Perfect simulator (the zero-overhead Nanos++ schedule)
========== ==========================================================

New backends plug in with :func:`register_backend`::

    class SlowNanos:
        name = "nanos-slow"
        description = "Nanos++ with a slower scheduler"
        accepts = frozenset({"faults"})          # declared parameter set
        def simulator(self, program, *, num_workers=12, faults=()):
            return NanosRuntimeSimulator(program, num_workers, SLOW, faults)
    register_backend(SlowNanos())
    simulate_request(SimulationRequest.for_program(program, backend="nanos-slow"))
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Protocol, Tuple, runtime_checkable

from repro.runtime.task import TaskProgram
from repro.sim.engine import EventQueue
from repro.sim.results import SimulationResult

#: The request parameters a backend may declare in its ``accepts`` set, in
#: the order they are reported and forwarded (``program`` and
#: ``num_workers`` are universal and always passed).
REQUEST_PARAMETERS: Tuple[str, ...] = (
    "config",
    "dm_design",
    "policy",
    "overhead",
    "faults",
)


class EngineSimulator(Protocol):
    """What a backend's ``simulator`` factory builds: one resumable run.

    :class:`~repro.sim.hil.HILSimulator` and
    :class:`~repro.runtime.nanos.NanosRuntimeSimulator` are the two
    implementations; the snapshot codec reads and writes their state.
    """

    program: TaskProgram
    queue: EventQueue

    def enable_lifecycle_log(self) -> List[Tuple[int, int, int]]:
        """Start logging ``(cycle, order, task_id)``; before the first step."""
        ...

    def step(self, stop_at_cycle: int) -> None:
        """Dispatch every queued event up to ``stop_at_cycle``."""
        ...

    def run(self) -> SimulationResult:
        """Run to completion and return the result."""
        ...


@runtime_checkable
class SimulatorBackend(Protocol):
    """What every simulator backend must provide.

    ``simulator`` receives the program, the worker count and the keyword
    parameters the backend declares in ``accepts``; the typed request
    layer validates every :class:`~repro.sim.request.SimulationRequest`
    against that set, so a backend is never handed a knob it did not ask
    for and callers get an :class:`~repro.sim.request.InvalidRequestError`
    instead of silent swallowing.
    """

    #: Registry key and display identifier of the backend.
    name: str
    #: One-line human description (shown by ``picos-experiment backends``).
    description: str
    #: The request parameters this backend understands.
    accepts: FrozenSet[str]

    @property
    def simulator(self) -> Callable[..., EngineSimulator]:
        """The factory ``simulator(program, *, num_workers=12, **params)``.

        It builds a fresh simulator of ``program`` on ``num_workers``
        workers, taking as keywords the parameters named in ``accepts``.
        Each backend spells out its own keywords, so the protocol types the
        factory as a callable of any signature.
        """
        ...


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

    Refuses, with :class:`ValueError`, a backend without a non-empty
    string ``name``, without an ``accepts`` frozenset drawn from
    :data:`REQUEST_PARAMETERS` or without a callable ``simulator``.
    Registering a name twice is an error unless ``replace=True``; this
    protects against two plug-ins silently shadowing each other.  The
    backend is returned so the call can be used as a decorator-like
    one-liner on an instance.
    """
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("a backend must expose a non-empty string 'name'")
    accepts = getattr(backend, "accepts", None)
    if not isinstance(accepts, frozenset):
        raise ValueError(f"backend {name!r} must declare an 'accepts' frozenset")
    unknown = sorted(accepts.difference(REQUEST_PARAMETERS))
    if unknown:
        raise ValueError(
            f"backend {name!r} accepts unknown request parameter(s) {unknown}; "
            f"choose from {list(REQUEST_PARAMETERS)}"
        )
    if not callable(getattr(backend, "simulator", None)):
        raise ValueError(f"backend {name!r} must expose a callable 'simulator'")
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
