"""Smoke runs of the example scripts at small sizes.

Each script runs in-process as ``__main__`` with the size arguments the CI
smoke step passes, and must reach its closing summary line.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script,args,summary",
    [
        pytest.param("quickstart.py", [], "All tasks retired", id="quickstart"),
        pytest.param(
            "custom_application.py",
            ["16", "4"],
            "Per-task management latency",
            id="custom_application",
        ),
        pytest.param(
            "dm_design_exploration.py",
            ["512", "64"],
            "Most balanced design",
            id="dm_design_exploration",
        ),
        pytest.param(
            "fine_grained_scaling.py",
            ["512", "4"],
            "At the finest granularity",
            id="fine_grained_scaling",
        ),
    ],
)
def test_example_runs_to_its_summary(script, args, summary, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert summary in capsys.readouterr().out
