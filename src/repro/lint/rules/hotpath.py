"""Hot-path discipline rules (HOT0xx).

The engine docstrings (``sim/engine.py``, ``docs/engine.md``,
``docs/datapath.md``) promise that the per-event and per-dependence value
classes are plain ``__slots__`` objects and that the fused inner loops
stay free of allocation-heavy constructs.  Those promises are contracts
the benchmarks rely on; these rules make them machine-checked:

* **HOT001** -- every class named in :data:`HOT_PATH_CLASSES` (the
  docstring-contract inventory) must declare ``__slots__`` in its body,
  and must actually exist where the contract says it does (so the
  inventory cannot rot).  Additionally, any class whose *own docstring*
  claims it is a ``__slots__`` class is held to that claim.
* **HOT002** -- the designated hot inner loops
  (:data:`HOT_LOOP_FUNCTIONS`) must not define closures, use ``yield``,
  or open ``try``/``except`` blocks: each of those costs a frame or a
  block-setup per activation on paths that run hundreds of thousands of
  times per simulation.  Deliberate exceptions (the C-speed
  ``list.index`` scan idiom) carry a reasoned suppression.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.lint.framework import Finding, Project, Rule, SourceModule, register_rule

#: The ``__slots__`` docstring-contract inventory: package-relative module
#: key -> classes that module promises are slotted value/hot classes.
#: Sources: ``sim/engine.py`` module docstring, ``core/packets.py`` module
#: docstring, the per-class contracts in ``core/gateway.py`` /
#: ``core/picos.py``, and ``docs/datapath.md``.
HOT_PATH_CLASSES: Dict[str, Tuple[str, ...]] = {
    "sim/engine.py": ("EventQueue",),
    "sim/worker.py": ("WorkerState", "WorkerPool"),
    "sim/results.py": ("TaskTimeline",),
    "core/packets.py": ("ExecuteTaskPacket",),
    "core/gateway.py": ("PendingSubmission", "GatewayResult"),
    "core/picos.py": ("ReadyTask", "SubmitResult", "FinishResult"),
}

#: Function names whose bodies are designated hot inner loops.
HOT_LOOP_FUNCTIONS: Tuple[str, ...] = (
    "dispatch",
    "_kick_master",
    "process_batch",
    "process_finish_run",
)

#: Modules the hot-loop rule watches (the loops above are only hot where
#: the contract docstrings say they are).
_HOT_LOOP_SCOPE = ("core/", "sim/", "runtime/")

#: A class docstring claiming the class itself is slotted.
_SLOTS_CLAIM = re.compile(r"``__slots__``\s+(?:value\s+)?class|plain\s+``__slots__``")


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _classes(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    return {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }


class SlotsContractRule(Rule):
    """HOT001: contract-listed (and self-claimed) classes declare __slots__."""

    id = "HOT001"
    summary = "hot-path contract classes must declare __slots__"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for key, class_names in sorted(HOT_PATH_CLASSES.items()):
            module = project.get(key)
            if module is None:
                # Partial runs (a single file, a fixture tree) simply do
                # not cover this contract entry.
                continue
            defined = _classes(module.tree)
            for class_name in class_names:
                node = defined.get(class_name)
                if node is None:
                    yield module.finding(
                        self.id,
                        1,
                        f"contract class {class_name} is missing from {key}; "
                        "update HOT_PATH_CLASSES if it moved",
                    )
                elif not _declares_slots(node):
                    yield module.finding(
                        self.id,
                        node,
                        f"hot-path class {class_name} must declare __slots__ "
                        "(docstring contract, see docs/static-analysis.md)",
                    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if not module.key.startswith(_HOT_LOOP_SCOPE):
            return
        contract = HOT_PATH_CLASSES.get(module.key, ())
        for name, node in _classes(module.tree).items():
            if name in contract:
                continue  # already policed by the project pass
            docstring = ast.get_docstring(node) or ""
            if _SLOTS_CLAIM.search(docstring) and not _declares_slots(node):
                yield module.finding(
                    self.id,
                    node,
                    f"class {name} documents itself as a __slots__ class but "
                    "declares none",
                )


def _hot_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in HOT_LOOP_FUNCTIONS:
            yield node


class HotLoopRule(Rule):
    """HOT002: no closures, generators or try/except in hot inner loops."""

    id = "HOT002"
    summary = "designated hot loops stay free of closures, yield and try/except"
    scope = _HOT_LOOP_SCOPE

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for function in _hot_functions(module.tree):
            for node in ast.walk(function):
                if node is function:
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = getattr(node, "name", "<lambda>")
                    yield module.finding(
                        self.id,
                        node,
                        f"closure {name!r} defined inside hot loop "
                        f"{function.name}(); hoist it to module or class level",
                    )
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    yield module.finding(
                        self.id,
                        node,
                        f"yield inside hot loop {function.name}() turns it into "
                        "a generator (a suspend/resume per event)",
                    )
                elif isinstance(node, ast.Try):
                    yield module.finding(
                        self.id,
                        node,
                        f"try/except inside hot loop {function.name}(); restructure "
                        "or carry a reasoned suppression for the deliberate cases",
                    )


def _register() -> List[Rule]:
    rules: Iterable[Rule] = (SlotsContractRule(), HotLoopRule())
    return [register_rule(rule) for rule in rules]


_RULES = _register()
