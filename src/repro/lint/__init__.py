"""repro-lint: the AST-based invariant checker for this repository.

The simulators' structural invariants -- cycle determinism, the
``__slots__`` hot-path discipline, handler-table completeness, the
flat datapath's ``-1`` sentinels, async safety in the service layer
-- are enforced statically here, with
stdlib ``ast`` only.  See :mod:`repro.lint.framework` for the rule and
suppression model, :mod:`repro.lint.rules` for the built-in rules, and
``docs/static-analysis.md`` for the catalogue.

Run it as ``python -m repro.lint [paths]`` or ``picos-experiment lint``.
"""

from __future__ import annotations

from repro.lint.framework import (
    Finding,
    LintError,
    Project,
    Rule,
    SourceModule,
    Suppression,
    all_rules,
    load_project,
    parse_suppressions,
    register_rule,
    render_report,
    run_lint,
)

__all__ = [
    "Finding",
    "LintError",
    "Project",
    "Rule",
    "SourceModule",
    "Suppression",
    "all_rules",
    "load_project",
    "parse_suppressions",
    "register_rule",
    "render_report",
    "run_lint",
]
