#!/usr/bin/env python3
"""Interleaved A/B verdict of the working tree against a git revision.

Usage (from the repository root)::

    python3 tools/perf_ab.py main
    python3 tools/perf_ab.py HEAD~1 --seconds 10

``REV`` is checked out into a temporary ``git worktree`` and is the
*parent*; the current working tree, uncommitted edits included, is the
*change*, copied beside it so that both run from paths of one shape.  For
pairs ``i`` = 1..10 and every workload in ``BENCHMARK.json``, both trees
run the benchmark's ``command`` with ``--workload W --seed i --seconds S
--trace 0`` in a fresh process each; the parent goes first in odd pairs
and second in even pairs.  Each run's last line of standard output is its
JSON result.

Every (workload, end-to-end metric) is then classified by the rule in
``docs/benchmarks.md``, with ``better`` and ``bound`` read from
``BENCHMARK.json``:

``improved``
    the change is better in at least 9 of 10 pairs (ties count for
    neither), and the medians differ by more than the parent's
    interquartile range;
``regressed``
    the change's median is worse than the parent's by more than
    ``bound`` times the parent's median;
``unresolved``
    not regressed, but the parent's interquartile range over its median
    is wider than ``bound``, and not every change run is better than
    every parent run;
``unchanged``
    everything else;
``missing``
    some run did not report the metric.

Exit status: 1 (reject) if a metric regressed or is missing, or a run of
the change reads ``"correct": false`` (which a run with failed operations
does); 2 on a bad ``REV`` or an unreadable run; 0 (accept) otherwise.  An
incorrect run of the parent is noted but rejects nothing, so a change that
mends a failing check can pass.  One table is printed, and every run of
both sides with each metric's status is written to
``.perfbench-out/ab-verdict.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
VERDICT_FILE = Path(".perfbench-out") / "ab-verdict.json"


class RunError(Exception):
    """A bad revision or a run whose result cannot be read (exit 2)."""


def classify(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """One metric's status from paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        """How much better ``new`` reads than ``old`` (negative: worse)."""
        return sign * (old - new)

    q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    iqr = q3 - q1
    wins = sum(1 for old, new in zip(parent, change) if gain(old, new) > 0)
    ties = sum(1 for old, new in zip(parent, change) if old == new)
    median_gain = gain(parent_median, change_median)
    if parent_median:
        spread = iqr / abs(parent_median)
    else:
        spread = 0.0 if iqr == 0 else math.inf
    separated = all(gain(old, new) > 0 for old in parent for new in change)
    if 10 * wins >= 9 * len(parent) and median_gain > iqr:
        status = "improved"
    elif -median_gain > bound * abs(parent_median):
        status = "regressed"
    elif spread > bound and not separated:
        status = "unresolved"
    else:
        status = "unchanged"
    return {
        "status": status,
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else None,
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "parent_iqr": iqr,
    }


def judge(benchmark: dict, pairs: Dict[str, List[dict]]) -> dict:
    """The verdict over every workload's pairs (see the module docstring).

    ``pairs[workload]`` lists one ``{"seed", "first", "parent", "change"}``
    record per pair, each side the run's JSON result.
    """
    reasons: List[str] = []
    notes: List[str] = []
    workloads = {}
    for name, records in pairs.items():
        sides = {side: [r[side] for r in records] for side in ("parent", "change")}
        for record in records:
            seed = record["seed"]
            if record["change"].get("correct") is not True:
                reasons.append(f"{name}: change run seed {seed} is not correct")
            if record["parent"].get("correct") is not True:
                notes.append(f"{name}: parent run seed {seed} is not correct")
        metrics = {}
        for entry in benchmark["end_to_end"]:
            metric = entry["name"]
            values = {
                side: [run.get("metrics", {}).get(metric, {}).get("value") for run in runs]
                for side, runs in sides.items()
            }
            if any(v is None for side in values.values() for v in side):
                metrics[metric] = {"status": "missing"}
                reasons.append(f"{name}: {metric} is missing from a run")
                continue
            metrics[metric] = classify(
                values["parent"], values["change"], entry["better"], entry["bound"]
            )
            metrics[metric]["bound"] = entry["bound"]
            if metrics[metric]["status"] == "regressed":
                reasons.append(f"{name}: {metric} regressed")
        workloads[name] = {"metrics": metrics, "runs": records}
    return {"accepted": not reasons, "reasons": reasons, "notes": notes, "workloads": workloads}


def render(verdict: dict) -> str:
    lines = [
        f"{'workload':<20} {'metric':<16} {'parent':>10} {'change':>10} "
        f"{'ratio':>6} {'wins':>5} {'ties':>4} {'parent IQR':>10}  status"
    ]
    for name, workload in verdict["workloads"].items():
        for metric, row in workload["metrics"].items():
            if row["status"] == "missing":
                lines.append(f"{name:<20} {metric:<16} {'':>50}  missing")
                continue
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            lines.append(
                f"{name:<20} {metric:<16} {row['parent_median']:>10.4g} "
                f"{row['change_median']:>10.4g} {ratio:>6} "
                f"{row['wins']:>2}/{row['pairs']:<2} {row['ties']:>4} "
                f"{row['parent_iqr']:>10.3g}  {row['status']}"
            )
    lines += [f"note: {note}" for note in verdict["notes"]]
    lines += [f"REJECT: {reason}" for reason in verdict["reasons"]]
    lines.append("verdict: " + ("accept" if verdict["accepted"] else "reject"))
    return "\n".join(lines)


def read_result(stdout: str) -> dict:
    """The JSON result on a run's last line; earlier lines are for people."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise RunError("the last line of standard output is not a JSON result")
    return result


def run_once(tree: Path, command: List[str], workload: str, seed: int, seconds: float) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return read_result(done.stdout)
    except RunError as error:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise RunError(f"{workload} seed {seed} in {tree}: {error}\n{tail}") from None


def git(root: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=False
    )
    if done.returncode:
        raise RunError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy the working tree's files, uncommitted and untracked ones included.

    Ignored files (caches, build output) stay behind, as they do in the
    parent's fresh worktree.
    """
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():  # a tracked file deleted in the tree is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_pairs(trees: Dict[str, Path], benchmark: dict, seconds: float) -> Dict[str, List[dict]]:
    pairs: Dict[str, List[dict]] = {w["name"]: [] for w in benchmark["workloads"]}
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in pairs:
            record: dict = {"seed": seed, "first": order[0]}
            for side in order:
                started = time.perf_counter()
                record[side] = run_once(
                    trees[side], benchmark["command"], workload, seed, seconds
                )
                record[side + "_wall_s"] = round(time.perf_counter() - started, 1)
            pairs[workload].append(record)
            print(
                f"pair {seed:>2}/{PAIRS} {workload:<20} {order[0]} first, "
                f"{record['parent_wall_s']} s + {record['change_wall_s']} s",
                flush=True,
            )
    return pairs


def main(argv: Optional[List[str]] = None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV", help="the parent: a commit, branch or tag")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length of every run (default: BENCHMARK.json's run_seconds)",
    )
    args = parser.parse_args(argv)
    root = Path(root)
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    # Both sides run from paths of one shape: peak RSS moves with the
    # checkout path (see docs/benchmarks.md).
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    try:
        commit = git(root, "rev-parse", "--verify", f"{args.rev}^{{commit}}")
        git(root, "worktree", "add", "--detach", str(trees["parent"]), commit)
        copy_working_tree(root, trees["change"])
        print(f"parent {args.rev} ({commit[:12]}) in {trees['parent']}; "
              f"change {root} copied to {trees['change']}")
        print(f"{PAIRS} pairs x {len(benchmark['workloads'])} workloads at {seconds:g} s")
        pairs = run_pairs(trees, benchmark, seconds)
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # Pruning after the directory is gone drops the worktree's record.
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(
            ["git", "-C", str(root), "worktree", "prune"], capture_output=True, check=False
        )
    verdict = judge(benchmark, pairs)
    verdict.update(rev=args.rev, parent=commit, seconds=seconds)
    path = root / VERDICT_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(verdict, indent=1) + "\n", encoding="utf-8")
    print()
    print(render(verdict))
    print(f"wrote {path}")
    return 0 if verdict["accepted"] else 1


if __name__ == "__main__":
    sys.exit(main())
