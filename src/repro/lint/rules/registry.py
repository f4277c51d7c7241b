"""Backend-registry completeness (REG001).

Simulator backends self-register via ``register_backend(SomeBackend())``
(see ``sim/backend.py``).  The registry validates at registration time
that the instance has a ``name``; the ``accepts`` frozenset the CLI uses
for config routing is only consulted later, when a request is routed to
the backend.

REG001 resolves, per module, every class whose instance (or class
object) is passed to ``register_backend`` and requires its class body to
declare ``accepts``.  Classes defined in another module are out of
syntactic reach and are skipped -- all real registrations in this repo
instantiate the class right in the registering module, and the fixture
tests pin that assumption.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional

from repro.lint.framework import Finding, Rule, SourceModule, register_rule


def _registered_class_name(call: ast.Call) -> Optional[str]:
    """The class name registered by a ``register_backend(...)`` call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    if name != "register_backend" or not call.args:
        return None
    argument = call.args[0]
    if isinstance(argument, ast.Call) and isinstance(argument.func, ast.Name):
        return argument.func.id
    if isinstance(argument, ast.Name):
        return argument.id
    return None


def _class_declares(node: ast.ClassDef, attribute: str) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == attribute
            for target in statement.targets
        ):
            return True
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == attribute
        ):
            return True
    return False


class BackendRegistrationRule(Rule):
    """REG001: registered backends declare their accepted parameters."""

    id = "REG001"
    summary = "registered backends declare accepts"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            class_name = _registered_class_name(node)
            if class_name is None:
                continue
            definition = classes.get(class_name)
            if definition is None:
                continue
            if not _class_declares(definition, "accepts"):
                yield module.finding(
                    self.id,
                    definition,
                    f"backend {class_name} is registered but declares no "
                    "'accepts'; the CLI cannot route configs to it",
                )


def _register() -> List[Rule]:
    rules: Iterable[Rule] = (BackendRegistrationRule(),)
    return [register_rule(rule) for rule in rules]


_RULES = _register()
