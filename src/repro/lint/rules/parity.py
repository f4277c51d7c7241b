"""Flat datapath sentinel hygiene (PAR003).

The DM/VM/TM/TRS/DCT hot core stores its state in parallel flat lists and
names everything by integer handle (see ``docs/datapath.md``).  Handles are
non-negative ints with ``-1`` as the *none* value, so comparing a handle
against ``None``, defaulting a handle parameter to ``None`` or storing
``None`` into a handle array corrupts the C-speed scans (``list.index``
over tags relies on ``tag[h] != -1 ⟺ valid``).  **PAR003** flags each of
the three in the flat datapath modules.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional

from repro.lint.framework import Finding, Rule, SourceModule, register_rule

#: The flat datapath modules PAR003 watches.
FLAT_DATAPATH_MODULES = (
    "core/dct.py",
    "core/dependence_memory.py",
    "core/version_memory.py",
    "core/task_memory.py",
    "core/trs.py",
)


#: A name that denotes an integer handle (or a handle array) in the flat
#: datapath modules.
_HANDLE_NAME = re.compile(
    r"(?:^|_)(?:handle|way|slot|vm_index|tm_index|dep_index|predecessor|"
    r"latest|producer|consumer|next_version)s?$"
)


def _names_handle(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return _HANDLE_NAME.search(node.id) is not None
    if isinstance(node, ast.Attribute):
        return _HANDLE_NAME.search(node.attr) is not None
    if isinstance(node, ast.Subscript):
        return _names_handle(node.value)
    return False


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class SentinelHygieneRule(Rule):
    """PAR003: flat handles use -1, never None."""

    id = "PAR003"
    summary = "flat datapath handles use the -1 sentinel, never None"
    scope = FLAT_DATAPATH_MODULES

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(_is_none(operand) for operand in operands) and any(
                    _names_handle(operand) for operand in operands
                ):
                    yield module.finding(
                        self.id,
                        node,
                        "handle compared against None; the flat datapath's none "
                        "sentinel is -1 (docs/datapath.md)",
                    )
            elif isinstance(node, ast.Assign):
                if _is_none(node.value) and any(
                    isinstance(target, ast.Subscript) and _names_handle(target)
                    for target in node.targets
                ):
                    yield module.finding(
                        self.id,
                        node,
                        "None stored into a handle array; release paths must "
                        "write -1 so the C-speed tag scans stay valid",
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.args + args.kwonlyargs
                defaults = (
                    [None] * (len(args.args) - len(args.defaults))
                    + list(args.defaults)
                    + list(args.kw_defaults)
                )
                for arg, default in zip(positional, defaults):
                    if (
                        default is not None
                        and _is_none(default)
                        and _HANDLE_NAME.search(arg.arg) is not None
                    ):
                        yield module.finding(
                            self.id,
                            node,
                            f"parameter {arg.arg!r} defaults to None; flat "
                            "handles default to -1",
                        )


def _register() -> List[Rule]:
    return [register_rule(SentinelHygieneRule())]


_RULES = _register()
