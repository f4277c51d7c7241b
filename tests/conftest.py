"""Shared fixtures for the test suite.

Program-building helpers live in :mod:`tests.helpers` (a plain importable
module); this file only declares pytest fixtures.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from tests.helpers import SlowNanosBackend

import repro
from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator
from repro.sim.backend import unregister_backend


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


@pytest.fixture
def plugin_backend() -> Iterator[str]:
    """The name of the registered ``nanos-slow`` plug-in backend."""
    backend = repro.register_backend(SlowNanosBackend())
    yield backend.name
    unregister_backend(backend.name)
