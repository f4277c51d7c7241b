"""The one-shot batch entry point.

The canonical surface is *request based*: build a typed, validated
:class:`~repro.sim.request.SimulationRequest` and hand it to
:func:`simulate_request` (one-shot batch) or
:func:`repro.sim.session.open_session` (incremental streaming).  The
request names the backend (``"hil-full"``, ``"hil-hw"``, ``"hil-comm"``,
``"nanos"``, ``"perfect"`` -- or any registered plug-in), and parameters a
backend does not declare raise
:class:`~repro.sim.request.InvalidRequestError`.
"""

from __future__ import annotations

from repro.sim.backend import get_backend
from repro.sim.request import SimulationRequest
from repro.sim.results import SimulationResult


def simulate_request(request: SimulationRequest) -> SimulationResult:
    """Run a validated request on its backend and return the result.

    This is the one batch entry point every other surface (the experiment
    runner, the session ``result()``) funnels through; the request is
    normalized -- validated against the backend's declared parameters,
    ``dm_design`` folded into a full configuration -- before the backend
    builds its simulator, which runs to completion.
    """
    normalized = request.normalize()
    backend = get_backend(normalized.backend)
    return backend.simulator(
        normalized.build_program(), **normalized.simulate_kwargs()
    ).run()
