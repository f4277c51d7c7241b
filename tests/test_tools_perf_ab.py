"""Unit tests for ``tools/perf_ab.py``, the interleaved A/B verdict.

The rule is a table with one case per branch; the bound cases read each
end-to-end metric's ``better`` and ``bound`` from the real
``BENCHMARK.json``.  The plumbing (worktree, pair order, seeds, the verdict
file, exit codes) runs against a throwaway git repository whose
``perfbench/run.py`` is a stub printing a canned result, so no real
benchmark runs here.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perf_ab", REPO_ROOT / "tools" / "perf_ab.py"
)
perf_ab = importlib.util.module_from_spec(_SPEC)
assert _SPEC.loader is not None
_SPEC.loader.exec_module(perf_ab)

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = BENCHMARK["end_to_end"]

#: A parent whose quartiles fall on samples: Q1 90, median 100, Q3 110.
WIDE_20 = [90, 90, 90, 90, 100, 100, 110, 110, 110, 110]
#: A parent spread far wider than any bound: IQR 80 around a median of 100.
WIDE_80 = [60, 60, 60, 60, 100, 100, 140, 140, 140, 140]


def worse(value: float, fraction: float, better: str) -> float:
    """``value`` made worse by ``fraction`` of itself, in ``better``'s sense."""
    return value * (1 + fraction) if better == "lower" else value * (1 - fraction)


class TestRule:
    @pytest.mark.parametrize(
        "parent, change, better, status",
        [
            ([100] * 10, [90] * 9 + [110], "lower", "improved"),
            ([100] * 10, [90] * 8 + [110] * 2, "lower", "unchanged"),
            ([100] * 10, [90] * 8 + [100] * 2, "lower", "unchanged"),
            ([100] * 10, [90] * 9 + [100], "lower", "improved"),
            (WIDE_20, [80] * 10, "lower", "unchanged"),
            (WIDE_20, [79] * 10, "lower", "improved"),
            ([100] * 10, [110] * 9 + [90], "higher", "improved"),
            ([100] * 10, [70] * 10, "higher", "regressed"),
            (WIDE_80, WIDE_80, "lower", "unresolved"),
            (WIDE_80, [50] * 10, "lower", "unchanged"),
        ],
        ids=[
            "nine-wins",
            "eight-wins",
            "ties-count-for-neither",
            "nine-wins-one-tie",
            "gap-equal-to-iqr",
            "gap-past-iqr",
            "higher-is-better-wins",
            "higher-is-better-regressed",
            "unresolved",
            "fully-separated-is-resolved",
        ],
    )
    def test_status(self, parent, change, better, status):
        row = perf_ab.classify(parent, change, better, 0.24)
        assert row["status"] == status

    def test_row_reports_wins_ties_and_parent_iqr(self):
        row = perf_ab.classify(WIDE_20, [80] * 8 + [90, 110], "lower", 0.24)
        assert (row["wins"], row["ties"], row["pairs"]) == (9, 1, 10)
        assert row["parent_median"] == 100 and row["parent_iqr"] == 20
        assert row["change_median"] == 80 and row["ratio"] == pytest.approx(0.8)

    @pytest.mark.parametrize("entry", END_TO_END, ids=lambda e: e["name"])
    @pytest.mark.parametrize("past, status", [(-0.01, "unchanged"), (0.01, "regressed")])
    def test_each_metric_against_its_own_bound(self, entry, past, status):
        change = [worse(100.0, entry["bound"] + past, entry["better"])] * 10
        row = perf_ab.classify([100.0] * 10, change, entry["better"], entry["bound"])
        assert row["status"] == status


def result(value: float = 1.0, correct: bool = True, failed: int = 0, names=None) -> dict:
    """A canned ``perfbench/run.py`` result with every metric at ``value``."""
    names = [e["name"] for e in END_TO_END] if names is None else names
    return {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name in names},
    }


def pairs_of(parent: dict, change: dict, workload: str = "w") -> dict:
    return {
        workload: [
            {"seed": seed, "first": "parent", "parent": parent, "change": change}
            for seed in range(1, 11)
        ]
    }


class TestVerdict:
    def test_equal_runs_are_accepted(self):
        verdict = perf_ab.judge(BENCHMARK, pairs_of(result(), result()))
        assert verdict["accepted"] and verdict["reasons"] == []
        statuses = {row["status"] for row in verdict["workloads"]["w"]["metrics"].values()}
        assert statuses == {"unchanged"}

    def test_failed_operations_in_the_change_reject_through_correct(self):
        # perfbench reports a run with failed operations as not correct.
        change = result(correct=False, failed=1)
        verdict = perf_ab.judge(BENCHMARK, pairs_of(result(), change))
        assert not verdict["accepted"]
        assert "w: change run seed 1 is not correct" in verdict["reasons"]
        assert len(verdict["reasons"]) == perf_ab.PAIRS

    def test_an_incorrect_parent_is_noted_but_does_not_reject(self):
        # A change that mends a check failing at its parent must be able to pass.
        verdict = perf_ab.judge(BENCHMARK, pairs_of(result(correct=False), result()))
        assert verdict["accepted"] and verdict["reasons"] == []
        assert "w: parent run seed 1 is not correct" in verdict["notes"]
        assert "note: w: parent run seed 1 is not correct" in perf_ab.render(verdict)

    def test_a_metric_missing_from_a_run_rejects(self):
        names = [e["name"] for e in END_TO_END]
        verdict = perf_ab.judge(BENCHMARK, pairs_of(result(), result(names=names[1:])))
        assert not verdict["accepted"]
        assert verdict["workloads"]["w"]["metrics"][names[0]] == {"status": "missing"}
        assert verdict["reasons"] == [f"w: {names[0]} is missing from a run"]

    def test_rendered_table_names_every_metric_and_the_verdict(self):
        verdict = perf_ab.judge(BENCHMARK, pairs_of(result(), result(names=["setup_s"])))
        table = perf_ab.render(verdict)
        for entry in END_TO_END:
            assert entry["name"] in table
        assert table.splitlines()[-1] == "verdict: reject"


class TestGateContracts:
    """What the retired wall-time gate promised, now kept by ``perf_ab``."""

    def test_a_comparison_that_matches_nothing_fails(self):
        verdict = perf_ab.judge(
            BENCHMARK, pairs_of(result(names=["other"]), result(names=["other"]))
        )
        assert not verdict["accepted"]
        statuses = {row["status"] for row in verdict["workloads"]["w"]["metrics"].values()}
        assert statuses == {"missing"}

    def test_a_slowdown_past_the_bound_fails(self):
        verdict = self._slowed(0.01)
        assert not verdict["accepted"]
        statuses = {row["status"] for row in verdict["workloads"]["w"]["metrics"].values()}
        assert statuses == {"regressed"}

    def test_a_slowdown_under_the_bound_passes(self):
        assert self._slowed(-0.01)["accepted"]

    @staticmethod
    def _slowed(past: float) -> dict:
        change = result()
        for entry in END_TO_END:
            change["metrics"][entry["name"]]["value"] = worse(
                1.0, entry["bound"] + past, entry["better"]
            )
        return perf_ab.judge(BENCHMARK, pairs_of(result(), change))


class TestReadResult:
    def test_human_readable_lines_before_the_json_are_skipped(self):
        stdout = "# batch: 2 iterations\nrun_cpu_s  1.0 s\n" + json.dumps(result()) + "\n"
        assert perf_ab.read_result(stdout) == result()

    @pytest.mark.parametrize("stdout", ["", "no json here\n", '{"correct": true}\n', "[1]\n"])
    def test_a_run_without_a_json_result_is_unreadable(self, stdout):
        with pytest.raises(perf_ab.RunError):
            perf_ab.read_result(stdout)


# ----------------------------------------------------------------------
# plumbing, against a throwaway repository
# ----------------------------------------------------------------------
STUB = '''\
import json, sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
with open({log!r}, "a") as log:
    log.write(json.dumps({{"tree": str(root), "argv": sys.argv[1:],
                           "marker": (root / "marker.txt").read_text(),
                           "files": sorted(p.name for p in root.iterdir()
                                           if p.is_file())}}) + "\\n")
print("# a human-readable line")
print("run_cpu_s   1.0 s")
print((root / "result.json").read_text().strip())
'''


def git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.fixture()
def repo(tmp_path):
    """A repository at ``v2`` whose ``v1`` tag is the parent to compare with."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    benchmark = dict(BENCHMARK, run_seconds=7,
                     command=[sys.executable, "perfbench/run.py"],
                     workloads=[{"name": "alpha"}, {"name": "beta"}])
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
    (root / "perfbench" / "run.py").write_text(STUB.format(log=str(tmp_path / "runs.log")))
    (root / "result.json").write_text(json.dumps(result()))
    (root / "marker.txt").write_text("v1")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "v1")
    git(root, "tag", "v1")
    (root / "marker.txt").write_text("v2")
    git(root, "commit", "-q", "-am", "v2")
    return root


def runs(repo: Path) -> list:
    log = repo.parent / "runs.log"
    return [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []


def trees_of(log: list) -> tuple:
    """The parent's and the change's tree, as the stub saw them."""
    (parent,) = {run["tree"] for run in log if Path(run["tree"]).name == "parent"}
    (change,) = {run["tree"] for run in log if Path(run["tree"]).name == "change"}
    return parent, change


def worktrees(repo: Path) -> list:
    return [
        line for line in git(repo, "worktree", "list", "--porcelain").splitlines()
        if line.startswith("worktree ")
    ]


class TestPlumbing:
    def test_accepts_an_equal_tree_and_keeps_its_promises(self, repo, capsys):
        assert perf_ab.main(["v1"], root=repo) == 0
        log = runs(repo)
        assert len(log) == 2 * 2 * perf_ab.PAIRS
        parent_tree, change_tree = trees_of(log)
        # The parent is REV checked out elsewhere; the change is a copy of
        # this tree beside it, at a path of the same length.
        assert {run["marker"] for run in log if run["tree"] == parent_tree} == {"v1"}
        assert {run["marker"] for run in log if run["tree"] == change_tree} == {"v2"}
        assert len(parent_tree) == len(change_tree)
        # ... and both are gone again.
        assert not Path(parent_tree).parent.exists()
        assert worktrees(repo) == [f"worktree {repo}"]
        for workload in ("alpha", "beta"):
            mine = [run for run in log if run["argv"][1] == workload]
            for side in (parent_tree, change_tree):
                seeds = [int(run["argv"][3]) for run in mine if run["tree"] == side]
                assert seeds == list(range(1, 11))
            for seed in range(1, 11):
                first = next(run for run in mine if run["argv"][3] == str(seed))
                assert (first["tree"] == parent_tree) == (seed % 2 == 1)
        assert log[0]["argv"] == [
            "--workload", "alpha", "--seed", "1", "--seconds", "7", "--trace", "0",
        ]
        verdict = json.loads((repo / ".perfbench-out" / "ab-verdict.json").read_text())
        assert verdict["accepted"] and verdict["rev"] == "v1"
        assert verdict["parent"] == git(repo, "rev-parse", "v1")
        assert len(verdict["workloads"]["alpha"]["runs"]) == perf_ab.PAIRS
        assert verdict["workloads"]["beta"]["runs"][0]["change"] == result()
        printed = capsys.readouterr().out
        assert "verdict: accept" in printed

    def test_seconds_option_and_uncommitted_edits_reach_the_runs(self, repo):
        (repo / "marker.txt").write_text("edited")
        (repo / "untracked.txt").write_text("new file")
        (repo / ".gitignore").write_text("ignored.txt\n")
        (repo / "ignored.txt").write_text("cache")
        assert perf_ab.main(["v1", "--seconds", "0.5"], root=repo) == 0
        log = runs(repo)
        assert {run["argv"][5] for run in log} == {"0.5"}
        _, change_tree = trees_of(log)
        changed = [run for run in log if run["tree"] == change_tree]
        assert {run["marker"] for run in changed} == {"edited"}
        assert {tuple(run["files"]) for run in changed} == {
            (".gitignore", "BENCHMARK.json", "marker.txt", "result.json", "untracked.txt")
        }

    def test_a_slowdown_past_the_bound_exits_1(self, repo, capsys):
        (repo / "result.json").write_text(json.dumps(result(value=2.0)))
        assert perf_ab.main(["v1"], root=repo) == 1
        assert "verdict: reject" in capsys.readouterr().out
        assert worktrees(repo) == [f"worktree {repo}"]
        verdict = json.loads((repo / ".perfbench-out" / "ab-verdict.json").read_text())
        assert not verdict["accepted"]

    def test_an_unreadable_run_exits_2_and_removes_the_worktree(self, repo, capsys):
        (repo / "result.json").write_text("Traceback: the run crashed")
        assert perf_ab.main(["v1"], root=repo) == 2
        assert "not a JSON result" in capsys.readouterr().err
        log = runs(repo)
        # Pair 1 runs the parent first, then stops at the change's run.
        assert [Path(run["tree"]).name for run in log] == ["parent", "change"]
        assert not Path(log[0]["tree"]).parent.exists()
        assert worktrees(repo) == [f"worktree {repo}"]
        assert not (repo / ".perfbench-out").exists()

    def test_a_bad_rev_exits_2_without_running(self, repo, capsys):
        assert perf_ab.main(["no-such-rev"], root=repo) == 2
        assert "error:" in capsys.readouterr().err
        assert runs(repo) == []
        assert worktrees(repo) == [f"worktree {repo}"]
