"""Snapshot purity (SNP001) -- a cross-module rule.

The checkpoint/restore codec (``sim/snapshot.py``) promises bit-exact
resume: every mutable field of the hot-path state classes must be encoded
into (and decoded out of) the snapshot document.  The classes in question
are plain ``__slots__`` records, which makes the contract mechanically
checkable: a field added to a ``__slots__`` tuple that the codec never
mentions is a field the snapshot silently drops -- the restored run would
start from a subtly wrong state and the differential net would only catch
it on an input that happens to exercise that field at the cut cycle.

The rule cross-checks, per inventoried class (:data:`SNAPSHOT_INVENTORY`):

* the class's ``__slots__`` names are extracted from its module's AST;
* the codec module's AST is scanned for every name it mentions --
  attribute accesses, keyword arguments, string literals (document keys);
* a slot is *covered* when the codec mentions it directly, **or** when the
  codec calls a method of the class (by name) whose body touches the slot
  via ``self.<slot>`` -- that is how the codec delegates the event queue's
  internals to ``snapshot_events``/``restore_events`` without reaching
  into them;
* an uncovered, non-exempt slot is a finding, as is an inventoried module
  or class that no longer exists (the inventory itself must track
  refactors).

Exemptions are per-slot and deliberate: a field may be skipped only when
it is construction-fixed identity or geometry the restore target rebuilds
on its own (e.g. ``WorkerState.worker_id``, minted in pool order by
``WorkerPool``'s constructor, or a memory's entry count), or a pure memo.
When the codec module itself is absent the rule is silent: partial-tree
lints (single-directory invocations) cannot judge coverage.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import Finding, Project, Rule, register_rule

#: Package-relative key of the snapshot codec module.
SNAPSHOT_CODEC_MODULE = "sim/snapshot.py"

#: ``(module key, class name, exempt slots)`` -- every ``__slots__`` field
#: of these classes must be covered by the codec.  Exemptions name
#: construction-fixed fields the restore path re-mints itself.
SNAPSHOT_INVENTORY: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("sim/engine.py", "EventQueue", frozenset()),
    # worker_id is positional identity: WorkerPool's constructor mints the
    # states in id order, and the codec stores them as an ordered list.
    ("sim/worker.py", "WorkerState", frozenset({"worker_id"})),
    ("sim/worker.py", "WorkerPool", frozenset()),
    ("core/gateway.py", "PendingSubmission", frozenset()),
    # The flat memories' columns.  Their geometry comes from the restore
    # target's config (the codec checks it against the document), and
    # _index_of is a memo of the set-index hash.
    (
        "core/dependence_memory.py",
        "DependenceMemory",
        frozenset({"design", "num_sets", "ways_per_set", "_index_of"}),
    ),
    ("core/version_memory.py", "VersionMemory", frozenset({"entries"})),
    ("core/task_memory.py", "TaskMemory", frozenset({"entries", "max_deps_per_task"})),
)


def _mentioned_names(tree: ast.Module) -> Set[str]:
    """Every name the codec module mentions, in any role.

    Attribute accesses (``dm._tag``), keyword arguments and string literals
    (document keys like ``"tag"``) all count: each is a way the codec can
    handle a field.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef) and statement.name == name:
            return statement
    return None


def _slots_of(class_def: ast.ClassDef) -> Tuple[List[str], Optional[int]]:
    """The class's ``__slots__`` string entries and the assignment line."""
    for statement in class_def.body:
        if not isinstance(statement, ast.Assign):
            continue
        targets = [
            t.id for t in statement.targets if isinstance(t, ast.Name)
        ]
        if "__slots__" not in targets:
            continue
        value = statement.value
        if isinstance(value, (ast.Tuple, ast.List)):
            slots = [
                element.value
                for element in value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
            return slots, statement.lineno
    return [], None


def _delegated_fields(class_def: ast.ClassDef, mentioned: Set[str]) -> Set[str]:
    """Slots covered through methods the codec calls by name.

    For every method of the class whose *name* the codec mentions (e.g.
    ``snapshot_events``), every ``self.<field>`` its body touches counts as
    covered: the codec reads/writes those fields through the delegate.
    """
    covered: Set[str] = set()
    for statement in class_def.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name not in mentioned:
            continue
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                covered.add(node.attr)
    return covered


class SnapshotPurityRule(Rule):
    """SNP001: every hot-path ``__slots__`` field is snapshot-covered."""

    id = "SNP001"
    summary = "every inventoried __slots__ field must appear in the snapshot codec"

    def check_project(self, project: Project) -> Iterator[Finding]:
        codec = project.get(SNAPSHOT_CODEC_MODULE)
        if codec is None:
            # Partial-tree lint without the codec: coverage is unjudgeable.
            return
        mentioned = _mentioned_names(codec.tree)
        for key, class_name, exempt in SNAPSHOT_INVENTORY:
            module = project.get(key)
            if module is None:
                continue
            class_def = _class_def(module.tree, class_name)
            if class_def is None:
                yield module.finding(
                    self.id,
                    1,
                    f"snapshot-inventoried class {class_name} no longer exists "
                    f"in {key}; update SNAPSHOT_INVENTORY to match the refactor",
                )
                continue
            slots, line = _slots_of(class_def)
            if line is None:
                yield module.finding(
                    self.id,
                    class_def,
                    f"snapshot-inventoried class {class_name} declares no "
                    "__slots__ tuple the rule can read",
                )
                continue
            delegated = _delegated_fields(class_def, mentioned)
            for slot in slots:
                if slot in exempt or slot in mentioned or slot in delegated:
                    continue
                yield module.finding(
                    self.id,
                    line,
                    f"{class_name}.{slot} is mutable simulator state the "
                    f"snapshot codec ({SNAPSHOT_CODEC_MODULE}) never mentions; "
                    "a restored run would silently drop it",
                )


def _register() -> List[Rule]:
    rules: Iterable[Rule] = (SnapshotPurityRule(),)
    return [register_rule(rule) for rule in rules]


_RULES = _register()
