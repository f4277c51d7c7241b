"""Flat/reference datapath parity rules (PAR0xx).

The DM/VM/TM/TRS/DCT hot core exists twice -- the flat integer-handle
implementation under ``core/`` and the object-based oracle under
``core/reference/`` (see ``docs/datapath.md``).  The differential suite
proves the two *behave* identically; these rules keep their *surfaces*
from drifting apart between fuzz runs:

* **PAR001** -- every method in the shared contract
  (:data:`SHARED_CONTRACT`) exists on both implementations, with the same
  positional parameter names where the surfaces are supposed to be
  call-compatible.
* **PAR002** -- a public method that is on neither the shared contract
  nor the declared one-side allowlists (:data:`FLAT_ONLY`,
  :data:`REFERENCE_ONLY`) is flagged: growing one surface without
  deciding what the other side does is exactly how the oracle rots.
* **PAR003** -- ``-1`` sentinel hygiene in the flat modules: handles are
  non-negative ints with ``-1`` as the *none* value, so comparing a
  handle against ``None``, defaulting a handle parameter to ``None`` or
  storing ``None`` into a handle array corrupts the C-speed scans
  (``list.index`` over tags relies on ``tag[h] != -1 ⟺ valid``).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.framework import Finding, Project, Rule, SourceModule, register_rule

#: Flat module key -> (reference module key, class name checked on both sides).
DATAPATH_PAIRS: Dict[str, Tuple[str, str]] = {
    "core/dct.py": ("core/reference/dct.py", "DependenceChainTracker"),
    "core/dependence_memory.py": (
        "core/reference/dependence_memory.py",
        "DependenceMemory",
    ),
    "core/version_memory.py": ("core/reference/version_memory.py", "VersionMemory"),
    "core/task_memory.py": ("core/reference/task_memory.py", "TaskMemory"),
    "core/trs.py": ("core/reference/trs.py", "TaskReservationStation"),
}

#: Shared contract per class: method -> positional parameter names that
#: must match on both sides, or ``None`` when the two sides are allowed
#: to take different shapes (flat handles vs reference packets) and only
#: the method's *existence* is required.
SHARED_CONTRACT: Dict[str, Dict[str, Optional[Tuple[str, ...]]]] = {
    "DependenceChainTracker": {
        "can_accept": ("address", "direction"),
        "process_batch": ("slots", "dependences", "start", "end"),
        "live_addresses": (),
        "live_versions": (),
        "is_idle": (),
    },
    "DependenceMemory": {
        "set_index": ("address",),
        "capacity": (),
        "occupied": (),
        "set_is_full": ("set_index",),
        "lookup": ("address",),
        "allocate": ("address", "input_only"),
        "release": ("address",),
        "live_addresses": (),
        "set_occupancy_histogram": (),
    },
    "VersionMemory": {
        "occupied": (),
        "full": (),
        "allocate": ("address",),
        "release": ("vm_index",),
        "live_versions_of": ("address",),
    },
    "TaskMemory": {
        "occupied": (),
        "full": (),
        "has_task": ("task_id",),
        "allocate": ("task_id", "num_deps"),
        "release": ("tm_index",),
        "add_dependence_slots": ("tm_index", "dependences", "start", "end"),
        "drop_dependence_slots": ("tm_index", "count"),
        "in_flight_task_ids": (),
    },
    "TaskReservationStation": {
        "has_free_slot": (),
        "in_flight": (),
        "record_dependences": ("tm_index", "dependences", "start", "end"),
        "drop_dependence_slots": ("tm_index", "count"),
        "apply_submission_outcomes": ("tm_index", "start", "outcomes"),
        # Flat retires by (task_id, tm_index) handle pair, the reference
        # by FinishedTaskPacket -- existence only.
        "handle_finished": None,
        "tm_index_of": ("task_id",),
        "holds_task": ("task_id",),
    },
}

#: Public methods only the flat implementation carries (handle twins).
FLAT_ONLY: Dict[str, Tuple[str, ...]] = {
    "DependenceChainTracker": ("process_finish_run",),
    "DependenceMemory": ("release_handle",),
    "VersionMemory": ("is_occupied",),
    "TaskMemory": ("check_occupied", "tm_index_for_task"),
    "TaskReservationStation": ("accept_task", "handle_ready_slot"),
}

#: Public methods only the reference oracle carries (the object surface
#: the adapter in ``core/reference/adapter.py`` wraps).
REFERENCE_ONLY: Dict[str, Tuple[str, ...]] = {
    "DependenceChainTracker": (
        "process_dependence",
        "process_finish",
        "process_finish_batch",
    ),
    "DependenceMemory": ("find_way", "release_way"),
    "VersionMemory": ("entry", "live_entries", "snapshot"),
    "TaskMemory": (
        "entry",
        "entry_for_task",
        "add_dependence_slot",
        "dependence_slot",
    ),
    "TaskReservationStation": (
        "accept_new_task",
        "record_dependence",
        "handle_dependent",
        "handle_ready",
    ),
}


def _public_methods(tree: ast.Module, class_name: str) -> Dict[str, Tuple[ast.FunctionDef, Tuple[str, ...]]]:
    """``name -> (node, positional params sans self)`` for one class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            methods: Dict[str, Tuple[ast.FunctionDef, Tuple[str, ...]]] = {}
            for statement in node.body:
                if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_"):
                    params = tuple(arg.arg for arg in statement.args.args[1:])
                    methods[statement.name] = (statement, params)
            return methods
    return {}


class SurfaceParityRule(Rule):
    """PAR001/PAR002: flat and reference class surfaces stay declared."""

    id = "PAR001"
    summary = "flat and reference datapath surfaces match the declared contract"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for flat_key, (reference_key, class_name) in sorted(DATAPATH_PAIRS.items()):
            flat = project.get(flat_key)
            reference = project.get(reference_key)
            if flat is None or reference is None:
                continue
            flat_methods = _public_methods(flat.tree, class_name)
            reference_methods = _public_methods(reference.tree, class_name)
            if not flat_methods:
                yield flat.finding(
                    self.id, 1, f"class {class_name} is missing from {flat_key}"
                )
                continue
            if not reference_methods:
                yield reference.finding(
                    self.id, 1, f"class {class_name} is missing from {reference_key}"
                )
                continue
            contract = SHARED_CONTRACT[class_name]
            for method, params in sorted(contract.items()):
                for side, module, methods in (
                    ("flat", flat, flat_methods),
                    ("reference", reference, reference_methods),
                ):
                    if method not in methods:
                        yield module.finding(
                            self.id,
                            1,
                            f"{class_name}.{method} is in the shared datapath "
                            f"contract but missing from the {side} implementation",
                        )
                if params is None or method not in flat_methods or method not in reference_methods:
                    continue
                flat_params = flat_methods[method][1]
                reference_params = reference_methods[method][1]
                if flat_params != reference_params:
                    yield flat.finding(
                        self.id,
                        flat_methods[method][0],
                        f"{class_name}.{method} parameter names diverge from the "
                        f"reference oracle: {flat_params!r} vs {reference_params!r}",
                    )


class SurfaceDriftRule(Rule):
    """PAR002: undeclared public methods on either datapath surface."""

    id = "PAR002"
    summary = "new public datapath methods must be declared in the parity contract"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for flat_key, (reference_key, class_name) in sorted(DATAPATH_PAIRS.items()):
            contract = frozenset(SHARED_CONTRACT[class_name])
            for key, allowlist in (
                (flat_key, FLAT_ONLY[class_name]),
                (reference_key, REFERENCE_ONLY[class_name]),
            ):
                module = project.get(key)
                if module is None:
                    continue
                declared = contract | frozenset(allowlist)
                for method, (node, _) in sorted(
                    _public_methods(module.tree, class_name).items()
                ):
                    if method not in declared:
                        yield module.finding(
                            self.id,
                            node,
                            f"undeclared public method {class_name}.{method}; add "
                            "it to the shared contract or the per-side allowlist "
                            "in repro/lint/rules/parity.py (and mirror or adapt it)",
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
    scope = tuple(DATAPATH_PAIRS)

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
    for rule in (SurfaceParityRule(), SurfaceDriftRule(), SentinelHygieneRule()):
        register_rule(rule)
    return []


_RULES = _register()
