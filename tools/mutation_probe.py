#!/usr/bin/env python3
"""Mutation probe: which small faults in a module does a test selection catch?

Usage (from the repository root)::

    python3 tools/mutation_probe.py src/repro/core/dct.py src/repro/core/trs.py \\
        -- tests/test_core_dct.py tests/test_core_trs.py --hypothesis-seed=0

Every module named before ``--`` is parsed with :mod:`ast`, and one mutant
is made per site of these operators:

* a comparison flipped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not`` and ``in``/``not in`` each become the other;
* ``+1`` on an int constant;
* ``True``/``False`` swapped;
* an augmented assignment (``+=``, ``-=``, ...) dropped;
* a ``not`` dropped;
* ``+``/``-`` and ``*``/``//`` swapped.

Annotations are not mutated.  The tree under ``--root``
(default: the current directory) is copied once into a temporary
directory, without ``.git`` and caches.  The test selection after ``--``
must pass there unmutated, or the probe stops; that run is timed.  Then
each mutant, one at a time, is written over its module in the copy and
the selection runs as ``python -m pytest -x -q -p no:cacheprovider
<selection>`` in a fresh process, with ``PYTHONPATH`` naming only the
copy's ``src`` and root, so nothing outside the copy is imported.  A run
that fails kills the mutant.  A run still going after ``TIMEOUT_FACTOR``
times the unmutated run is killed with its process group and counts as a
kill, reported as a timeout, so the verdicts do not depend on how fast
the machine is.  A run that passes leaves a survivor.

It prints one ``mutants:killed`` row per function (timeouts in
parentheses), the total, and every survivor with its module, line,
function, operator and source line, so the probes of two trees can be
compared site by site.  Progress goes to stderr.  Exit status: 0 after a
probe, 2 when the unmutated selection fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple

#: Comparison flips: each operator becomes its partner.
_FLIP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
#: Arithmetic swaps.
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.FloorDiv: "//",
}
#: A mutant's run may take this many times the unmutated run.  A slow
#: mutant that still fails on its own (the datapath's slowest took about
#: eight times the unmutated run) is then reported as a plain kill.
TIMEOUT_FACTOR = 10
#: Directories the copy leaves out.
_IGNORED = (
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-out", ".picos-cache",
)


class Site(NamedTuple):
    """One mutation site: where it is and what the mutant does there."""

    function: str
    line: int
    operator: str
    snippet: str


class Result(NamedTuple):
    """What one mutant's run did: ``killed``, ``survived`` or ``timeout``."""

    module: str
    site: Site
    outcome: str


class _Walker:
    """Visits mutation sites in a fixed order and can mutate the k-th one.

    The same order over a fresh parse of the same source finds the same
    site, so each mutant is made from its own tree.
    """

    def __init__(self, source: str, target: int = -1) -> None:
        self.target = target
        self.sites: List[Site] = []
        self._lines = source.splitlines()
        self._scope: List[str] = []

    def _site(self, node: ast.AST, operator: str) -> bool:
        """Record a site; ``True`` when it is the one to mutate."""
        line = node.lineno
        text = self._lines[line - 1].strip()[:72]
        self.sites.append(Site(".".join(self._scope) or "<module>", line, operator, text))
        return len(self.sites) - 1 == self.target

    def walk(self, node: ast.AST) -> ast.AST:
        """Walk ``node``; return it, or what replaces it in the mutant."""
        scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if scoped:
            self._scope.append(node.name)
        replacement = self._mutate(node)
        if replacement is node:
            for field, value in ast.iter_fields(node):
                if field in ("annotation", "returns"):
                    continue
                if isinstance(value, list):
                    for index, item in enumerate(value):
                        if isinstance(item, ast.AST):
                            value[index] = self.walk(item)
                elif isinstance(value, ast.AST):
                    setattr(node, field, self.walk(value))
        if scoped:
            self._scope.pop()
        return replacement

    def _mutate(self, node: ast.AST) -> ast.AST:
        if isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                flipped = _FLIP.get(type(op))
                if flipped is not None:
                    label = f"{_SYMBOL[type(op)]} -> {_SYMBOL[flipped]}"
                    if self._site(node, label):
                        node.ops[index] = flipped()
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            if self._site(node, f"{node.value} -> {not node.value}"):
                return ast.Constant(not node.value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, int):
            if self._site(node, f"{node.value} -> {node.value + 1}"):
                return ast.Constant(node.value + 1)
        elif isinstance(node, ast.AugAssign):
            if self._site(node, f"drop {_SYMBOL.get(type(node.op), '?')}="):
                return ast.Pass()
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            if self._site(node, "drop not"):
                return node.operand
        elif isinstance(node, ast.BinOp):
            swapped = _SWAP.get(type(node.op))
            if swapped is not None:
                label = f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swapped]}"
                if self._site(node, label):
                    node.op = swapped()
        return node


def sites(source: str) -> List[Site]:
    """Every mutation site of ``source``, in probe order."""
    walker = _Walker(source)
    walker.walk(ast.parse(source))
    return walker.sites


def mutant(source: str, index: int) -> str:
    """``source`` with site ``index`` mutated."""
    walker = _Walker(source, index)
    tree = walker.walk(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def run_selection(
    command: Sequence[str], cwd: Path, env: Dict[str, str], timeout: Optional[float]
) -> str:
    """Run ``command``: ``"passed"``, ``"failed"`` or ``"timeout"``.

    The command runs in its own process group, so a timeout also ends any
    process the tests started.
    """
    process = subprocess.Popen(
        list(command),
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def _copy_tree(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(*_IGNORED))


def _environment(tree: Path, bytecode: bool) -> Dict[str, str]:
    """The copy's own import path; mutant runs write no bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _drop_bytecode(module: Path) -> None:
    """Delete cached bytecode of ``module``: a same-size mutant written in
    the same second as its source would otherwise load the stale cache."""
    cache = module.parent / "__pycache__"
    if cache.is_dir():
        for stale in cache.glob(f"{module.stem}.*.pyc"):
            stale.unlink()


def probe(
    root: Path,
    modules: Sequence[str],
    selection: Sequence[str],
    log: Optional[TextIO] = None,
) -> List[Result]:
    """Run every mutant of ``modules`` against ``selection``; one result each.

    Raises :class:`RuntimeError` when the unmutated selection fails.
    """
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    results: List[Result] = []
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as workdir:
        tree = Path(workdir) / "tree"
        _copy_tree(root, tree)
        # The unmutated run caches bytecode for every module; each mutant
        # run then recompiles only the module it mutates.
        started = time.monotonic()
        if run_selection(command, tree, _environment(tree, True), None) != "passed":
            raise RuntimeError("the test selection fails on the unmutated tree")
        baseline = time.monotonic() - started
        timeout = TIMEOUT_FACTOR * baseline
        if log is not None:
            print(
                f"unmutated run {baseline:.1f} s; per-mutant timeout {timeout:.1f} s",
                file=log,
                flush=True,
            )
        env = _environment(tree, False)
        for module in modules:
            path = tree / module
            original = path.read_text(encoding="utf-8")
            for index, site in enumerate(sites(original)):
                path.write_text(mutant(original, index), encoding="utf-8")
                _drop_bytecode(path)
                try:
                    outcome = run_selection(command, tree, env, timeout)
                finally:
                    path.write_text(original, encoding="utf-8")
                outcome = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
                results.append(Result(module, site, outcome))
                if log is not None:
                    print(_result_line(results[-1]), file=log, flush=True)
    return results


def _result_line(result: Result) -> str:
    site = result.site
    return (
        f"{result.outcome} {result.module}:{site.line} {site.function}: "
        f"{site.operator} in `{site.snippet}`"
    )


def table(results: Sequence[Result]) -> str:
    """The ``mutants:killed`` rows per function, the total and the survivors."""
    rows: Dict[str, List[int]] = {}
    for result in results:
        counts = rows.setdefault(f"{result.module}::{result.site.function}", [0, 0, 0])
        counts[0] += 1
        counts[1] += result.outcome != "survived"
        counts[2] += result.outcome == "timeout"
    rows["total"] = [sum(counts[column] for counts in rows.values()) for column in range(3)]
    width = max(len(name) for name in rows)
    lines = []
    for name, (total, killed, timeouts) in rows.items():
        note = f" ({timeouts} by timeout)" if timeouts else ""
        lines.append(f"{name:{width}}  {total}:{killed}{note}")
    lines.extend(_result_line(r) for r in results if r.outcome == "survived")
    return "\n".join(lines)


def _split(argv: Sequence[str]) -> Tuple[List[str], List[str]]:
    if "--" not in argv:
        return list(argv), []
    cut = list(argv).index("--")
    return list(argv[:cut]), list(argv[cut + 1 :])


def main(argv: Optional[List[str]] = None) -> int:
    own, selection = _split(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [options] MODULE... -- PYTEST_SELECTION...",
    )
    parser.add_argument("modules", nargs="+", help="module paths, relative to --root")
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="tree to copy")
    args = parser.parse_args(own)
    if not selection:
        parser.error("give the pytest selection after --")
    try:
        results = probe(args.root.resolve(), args.modules, selection, log=sys.stderr)
    except RuntimeError as error:
        print(f"mutation_probe: {error}", file=sys.stderr)
        return 2
    print(table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
