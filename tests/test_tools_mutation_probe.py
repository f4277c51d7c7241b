"""Unit tests for ``tools/mutation_probe.py``, the stdlib-``ast`` mutation probe.

The probe runs on a toy tree under ``tmp_path``: one module, one test that
checks part of its behaviour, so some mutants are killed and some survive.
"""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "mutation_probe", REPO_ROOT / "tools" / "mutation_probe.py"
)
mutation_probe = importlib.util.module_from_spec(_SPEC)
assert _SPEC.loader is not None
_SPEC.loader.exec_module(mutation_probe)

TOY = textwrap.dedent(
    '''
    """A toy module."""

    LIMIT = 10


    def clamp(value):
        """Clamp ``value`` to at most LIMIT."""
        if value > LIMIT:
            return LIMIT
        return value


    def count_true(flags):
        total = 0
        for flag in flags:
            if not flag:
                continue
            total += 1
        return total
    '''
)

#: Checks ``clamp`` on both sides of the limit, ``count_true`` only on an
#: empty input.
TOY_TEST = textwrap.dedent(
    """
    from toy import clamp, count_true


    def test_clamp():
        assert clamp(3) == 3
        assert clamp(30) == 10


    def test_count_true_of_nothing():
        assert count_true([]) == 0
    """
)


def toy_tree(tmp_path: Path) -> Path:
    root = tmp_path / "toy-tree"
    root.mkdir()
    (root / "toy.py").write_text(TOY)
    (root / "test_toy.py").write_text(TOY_TEST)
    return root


def test_sites_cover_every_operator_and_skip_annotations():
    operators = [(s.function, s.operator) for s in mutation_probe.sites(TOY)]
    assert operators == [
        ("<module>", "10 -> 11"),
        ("clamp", "> -> >="),
        ("count_true", "0 -> 1"),
        ("count_true", "drop not"),
        ("count_true", "drop +="),
        ("count_true", "1 -> 2"),
    ]
    source = "def f(a: Tuple[1] = 1) -> Tuple[2]:\n    return a * 2 is not None and True\n"
    labels = [s.operator for s in mutation_probe.sites(source)]
    assert labels == ["1 -> 2", "is not -> is", "* -> //", "2 -> 3", "True -> False"]


def test_each_mutant_changes_one_site():
    assert "if value >= LIMIT:" in mutation_probe.mutant(TOY, 1)
    dropped = mutation_probe.mutant(TOY, 4)
    assert "total += 1" not in dropped and "pass" in dropped
    assert "return a - 2" in mutation_probe.mutant("def f(a):\n    return a + 2\n", 0)


def test_probe_reports_kills_and_survivors(tmp_path, capsys):
    root = toy_tree(tmp_path)
    assert mutation_probe.main(["toy.py", "--root", str(root), "--", "test_toy.py"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "toy.py::<module>    1:1",
        "toy.py::clamp       1:0",
        "toy.py::count_true  4:1",
        "total               6:2",
        "survived toy.py:9 clamp: > -> >= in `if value > LIMIT:`",
        "survived toy.py:17 count_true: drop not in `if not flag:`",
        "survived toy.py:19 count_true: drop += in `total += 1`",
        "survived toy.py:19 count_true: 1 -> 2 in `total += 1`",
    ]
    assert "killed toy.py:4 <module>: 10 -> 11 in `LIMIT = 10`" in err.splitlines()
    # The copy was probed, not the tree itself.
    assert (root / "toy.py").read_text() == TOY


def test_a_failing_selection_stops_the_probe(tmp_path, capsys):
    root = toy_tree(tmp_path)
    (root / "test_toy.py").write_text("def test_fails():\n    assert False\n")
    assert mutation_probe.main(["toy.py", "--root", str(root), "--", "test_toy.py"]) == 2
    assert "fails on the unmutated tree" in capsys.readouterr().err


def test_a_mutant_that_hangs_is_a_kill_by_timeout(tmp_path, capsys, monkeypatch):
    """Dropping ``n -= 1`` spins forever; the other three mutants fail at once."""
    root = tmp_path / "spin-tree"
    root.mkdir()
    (root / "spin.py").write_text(
        "def countdown(n):\n    while n > 0:\n        n -= 1\n    return n\n"
    )
    (root / "test_spin.py").write_text(
        "from spin import countdown\n\n\ndef test_countdown():\n"
        "    assert countdown(3) == 0\n"
    )
    # A smaller multiple than the default keeps the hanging run short.
    monkeypatch.setattr(mutation_probe, "TIMEOUT_FACTOR", 5)
    assert mutation_probe.main(["spin.py", "--root", str(root), "--", "test_spin.py"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "spin.py::countdown  4:4 (1 by timeout)",
        "total               4:4 (1 by timeout)",
    ]
    assert "timeout spin.py:3 countdown: drop -= in `n -= 1`" in err.splitlines()
