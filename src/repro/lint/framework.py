"""The repro-lint framework: rules, findings, suppressions, driver.

The repository's correctness net is mostly dynamic (golden digests,
differential fuzz, soak tests), but the *invariants* those tests probe --
cycle determinism, the ``__slots__`` hot-path discipline, handler-table
completeness, the flat datapath's ``-1`` sentinels, async safety in the
service -- are structural properties of the source.  This module checks
them at CI time with plain ``ast`` analysis: no third-party dependency,
same stdlib-only policy as the rest of the package.

Architecture
------------

* A **rule** is an object with an ``id`` (``DET001``-style), a one-line
  ``summary``, and either a per-file ``check_module(module)`` hook or a
  whole-project ``check_project(project)`` hook (cross-module rules such
  as handler-table completeness need to see several files at once).
* Rules register themselves in a module-level registry via
  :func:`register_rule` when their module is imported -- the same
  self-registration idiom the simulator backends use
  (:mod:`repro.sim.backend`).
* The driver (:func:`run_lint`) parses every ``.py`` file under the given
  paths once into a :class:`SourceModule` (source, AST, suppression
  comments), hands the set to every rule, and filters the raw findings
  through the per-line suppressions.

Suppressions
------------

A finding is silenced by a comment on the same physical line::

    way = tag_scan(address, base, limit)  # repro-lint: disable=HOT002(C-speed list.index scan)

The parenthesised reason is **mandatory**: a suppression without one is
itself reported (``LNT001``), and a suppression that silences nothing is
reported as stale (``LNT002``) -- so the suppression inventory stays
explained and live.  Multiple rules are separated by commas::

    # repro-lint: disable=DET003(order-insensitive fold),HOT002(cold path)
"""

from __future__ import annotations

import ast
import re
import tokenize
from io import StringIO
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintError",
    "Project",
    "Rule",
    "SourceModule",
    "Suppression",
    "all_rules",
    "parse_suppressions",
    "register_rule",
    "run_lint",
]

#: The whole suppression directive (see the module docstring for its
#: shape); individual entries are split by :data:`_SUPPRESSION_ENTRY`.
_SUPPRESSION_COMMENT = re.compile(r"#\s*repro-lint:\s*disable=(?P<entries>.+)$")

#: One ``RULE(reason)`` entry; the reason group is absent when the
#: parentheses (or their content) are missing.
_SUPPRESSION_ENTRY = re.compile(
    r"\s*(?P<rule>[A-Z]{3}\d{3})\s*(?:\(\s*(?P<reason>[^)]*?)\s*\))?\s*"
)

#: Rule-ID shape every registered rule must follow.
_RULE_ID = re.compile(r"^[A-Z]{3}\d{3}$")


class LintError(RuntimeError):
    """A file could not be read or parsed (reported, never swallowed)."""


class Finding:
    """One rule violation, anchored to ``path:line``."""

    __slots__ = ("rule_id", "path", "line", "message")

    def __init__(self, rule_id: str, path: str, line: int, message: str) -> None:
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.message = message

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule_id)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def __repr__(self) -> str:
        return f"Finding({self.rule_id!r}, {self.path!r}, {self.line!r}, {self.message!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return (
            self.rule_id == other.rule_id
            and self.path == other.path
            and self.line == other.line
            and self.message == other.message
        )

    def __hash__(self) -> int:
        return hash((self.rule_id, self.path, self.line, self.message))


class Suppression:
    """One ``disable=RULE(reason)`` directive on one physical line."""

    __slots__ = ("rule_id", "line", "reason", "used")

    def __init__(self, rule_id: str, line: int, reason: str) -> None:
        self.rule_id = rule_id
        self.line = line
        self.reason = reason
        #: Set by the driver when the suppression silences a finding.
        self.used = False

    def __repr__(self) -> str:
        return f"Suppression({self.rule_id!r}, line={self.line!r}, reason={self.reason!r})"


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every suppression directive from ``source``.

    Comments are found with :mod:`tokenize` (never by substring scanning),
    so directive-looking text inside string literals is ignored.  Entries
    with a missing or empty reason are returned with ``reason == ""`` --
    the driver turns those into ``LNT001`` findings rather than dropping
    them, so a lazy suppression cannot silently take effect.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_COMMENT.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        for entry in match.group("entries").split(","):
            entry_match = _SUPPRESSION_ENTRY.fullmatch(entry)
            if entry_match is None:
                # Malformed entry: surface it as a reasonless suppression
                # of nothing so LNT001 points a human at the typo.
                suppressions.append(Suppression("LNT000", line, ""))
                continue
            reason = entry_match.group("reason") or ""
            suppressions.append(Suppression(entry_match.group("rule"), line, reason))
    return suppressions


class SourceModule:
    """One parsed source file handed to the rules."""

    __slots__ = ("path", "key", "source", "lines", "tree", "suppressions")

    def __init__(self, path: Path, key: str, source: str, tree: ast.Module) -> None:
        #: Absolute location on disk (for error reporting).
        self.path = path
        #: Package-relative key, ``/``-separated (``core/dct.py``) -- what
        #: rule scopes and cross-module lookups match against.
        self.key = key
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions = parse_suppressions(source)

    def finding(self, rule_id: str, node_or_line: object, message: str) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        line = node_or_line if isinstance(node_or_line, int) else getattr(node_or_line, "lineno", 1)
        return Finding(rule_id, self.key, int(line), message)


class Project:
    """The full set of modules one lint run covers."""

    __slots__ = ("modules",)

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: Dict[str, SourceModule] = {module.key: module for module in modules}

    def get(self, key: str) -> Optional[SourceModule]:
        return self.modules.get(key)

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` and ``summary`` and override exactly one of
    ``check_module`` (runs once per in-scope file) or ``check_project``
    (runs once per lint invocation, for cross-module invariants).  The
    optional ``scope`` restricts ``check_module`` to files whose
    package-relative key starts with one of the given prefixes.
    """

    #: ``ABC123``-style identifier, unique across the registry.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    #: Key prefixes ``check_module`` applies to; empty means every file.
    scope: Tuple[str, ...] = ()

    def applies_to(self, module: SourceModule) -> bool:
        if not self.scope:
            return True
        return module.key.startswith(self.scope)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Rule] = {}
_RULES_LOADED = False


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (used at rule-module import time)."""
    if not _RULE_ID.match(rule.id):
        raise ValueError(f"rule id {rule.id!r} must match AAA000")
    if rule.id in _REGISTRY:
        raise ValueError(f"a rule with id {rule.id!r} is already registered")
    if not rule.summary:
        raise ValueError(f"rule {rule.id} must carry a one-line summary")
    _REGISTRY[rule.id] = rule
    return rule


def _load_builtin_rules() -> None:
    global _RULES_LOADED
    if _RULES_LOADED:
        return
    _RULES_LOADED = True
    import repro.lint.rules  # noqa: F401  (registers the built-in rules)


def all_rules() -> Tuple[Rule, ...]:
    """Registered rules, sorted by id."""
    _load_builtin_rules()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


# ----------------------------------------------------------------------
# file collection and key derivation
# ----------------------------------------------------------------------
def _module_key(path: Path, root: Path) -> str:
    """Package-relative key of ``path``: ``core/dct.py``-style.

    Keys are what rule scopes and the cross-module rules address files
    by, so they must be stable however the linter is invoked -- with the
    ``src`` root, the ``src/repro`` root, or a single subpackage.  When
    the absolute path contains a ``repro`` package component, the key is
    everything after its *last* occurrence; otherwise (fixture trees in
    tests) the key is the path relative to the scan root.
    """
    resolved = path.resolve()
    parts = list(resolved.parts)
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        tail = parts[index + 1 :]
        if tail:
            return "/".join(tail)
    try:
        relative = resolved.relative_to(root.resolve())
    except ValueError:
        relative = Path(path.name)
    return "/".join(relative.parts)


def _collect_files(paths: Sequence[Path]) -> List[Tuple[Path, Path]]:
    """Resolve CLI path arguments to ``(file, scan_root)`` pairs."""
    collected: List[Tuple[Path, Path]] = []
    for path in paths:
        if path.is_dir():
            collected.extend((file, path) for file in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            collected.append((path, path.parent))
        else:
            raise LintError(f"{path}: not a Python file or directory")
    return collected


def load_project(paths: Sequence[Path]) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`."""
    modules: List[SourceModule] = []
    for file_path, root in _collect_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"{file_path}: {error}") from error
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as error:
            raise LintError(f"{file_path}: syntax error: {error}") from error
        modules.append(SourceModule(file_path, _module_key(file_path, root), source, tree))
    return Project(modules)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def _apply_suppressions(project: Project, findings: List[Finding]) -> List[Finding]:
    """Filter findings through suppression comments; police the comments.

    A finding is dropped when its file carries a suppression for its rule
    on the same line *with a reason*.  Reasonless suppressions never
    silence anything and are reported as ``LNT001``; suppressions that
    silenced nothing are reported as stale (``LNT002``).
    """
    by_key: Dict[str, Dict[Tuple[str, int], Suppression]] = {}
    for module in project:
        table = by_key.setdefault(module.key, {})
        for suppression in module.suppressions:
            table[(suppression.rule_id, suppression.line)] = suppression

    kept: List[Finding] = []
    for finding in findings:
        suppression = by_key.get(finding.path, {}).get((finding.rule_id, finding.line))
        if suppression is not None and suppression.reason:
            suppression.used = True
            continue
        kept.append(finding)

    for module in project:
        for suppression in module.suppressions:
            if not suppression.reason:
                kept.append(
                    Finding(
                        "LNT001",
                        module.key,
                        suppression.line,
                        f"suppression of {suppression.rule_id} carries no reason; "
                        "write '# repro-lint: disable=RULE(why this is deliberate)'",
                    )
                )
            elif not suppression.used:
                kept.append(
                    Finding(
                        "LNT002",
                        module.key,
                        suppression.line,
                        f"stale suppression: no {suppression.rule_id} finding on this "
                        "line; delete the comment",
                    )
                )
    return kept


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint ``paths`` and return the surviving findings, sorted.

    ``rules`` defaults to the full registry; passing an explicit sequence
    is how the test fixtures exercise one rule in isolation.
    """
    project = load_project(paths)
    active = tuple(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for rule in active:
        for module in project:
            if rule.applies_to(module):
                findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(project))
    return sorted(_apply_suppressions(project, findings), key=Finding.sort_key)


def render_report(
    findings: Sequence[Finding], *, write: Callable[[str], object] = print
) -> int:
    """Print findings (one per line) and return the process exit code."""
    for finding in findings:
        write(finding.render())
    if findings:
        write(f"{len(findings)} finding(s)")
        return 1
    write("repro-lint: clean")
    return 0
