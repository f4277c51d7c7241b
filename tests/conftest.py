"""Shared fixtures for the test suite.

Program-building helpers live in :mod:`tests.helpers` (a plain importable
module); this file only declares pytest fixtures.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator
from repro.sim.backend import get_backend, register_backend, unregister_backend


@pytest.fixture
def default_config() -> PicosConfig:
    """The paper's prototype configuration (Pearson + 8-way DM)."""
    return PicosConfig()


@pytest.fixture(params=list(DMDesign), ids=lambda d: d.value)
def any_design_config(request) -> PicosConfig:
    """One configuration per DM design (parametrised fixture)."""
    return PicosConfig.paper_prototype(request.param)


@pytest.fixture
def accelerator(default_config: PicosConfig) -> PicosAccelerator:
    """A fresh accelerator with the default configuration."""
    return PicosAccelerator(default_config)


class _BatchOnlyBackend:
    """A plug-in backend without ``make_stepper``: ``simulate`` only.

    Every built-in backend slices; this one runs the ``perfect`` schedule
    in one batch call, so the session's one-shot fallback and restore's
    no-stepper refusal stay covered.
    """

    name = "batch-only"
    description = "the perfect schedule, without a stepper"
    accepts = frozenset()

    def simulate(self, program, *, num_workers=12, **kwargs):
        return get_backend("perfect").simulate(program, num_workers=num_workers)


@pytest.fixture
def batch_only_backend() -> Iterator[str]:
    """The name of a registered plug-in backend that has no stepper."""
    backend = register_backend(_BatchOnlyBackend())
    yield backend.name
    unregister_backend(backend.name)
