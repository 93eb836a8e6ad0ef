"""Compare the CSV outputs of two revisions of nfmimo, CSV by CSV.

Run from anywhere inside the repository:

    python3 tools/compare_revisions.py HEAD~1          # HEAD~1 against the working tree
    python3 tools/compare_revisions.py HEAD~1 HEAD     # two commits

Each revision is checked out with `git worktree` under a temporary directory
(the working tree is used in place) and removed afterwards. Every experiment
kind of the CLI runs once per revision on the built-in default scenario at
seed 0, each in a fresh interpreter. For each CSV the script prints whether
the bytes are equal and the largest relative difference of its numbers,
|a - b| / max(|a|, |b|); text cells must match exactly. It exits 1 when a
run fails or a CSV is missing on one side, otherwise 0. It needs git and
nothing beyond the standard library.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# One invocation per experiment kind; Monte Carlo kinds use few fields so that
# a comparison takes seconds, not minutes.
INVOCATIONS = (
    ("rayleigh-table",),
    ("complexity-sweep",),
    ("error-vs-subarray",),
    ("error-vs-array",),
    ("spatial-ccf", "--realizations", "4", "--max-offset", "8"),
    ("temporal-acf", "--realizations", "4", "--points", "21"),
    ("frequency-cf", "--realizations", "4", "--points", "21"),
    ("capacity-sweep", "--realizations", "4"),
)
WORKING_TREE = "."


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: Path, b: Path) -> tuple[bool, float | None]:
    """(bytes equal, largest relative difference of the numeric cells) of two CSV files.

    The difference is None when the files differ in shape or in a text cell,
    where no number can say how far apart they are.
    """
    if a.read_bytes() == b.read_bytes():
        return True, 0.0
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False, None
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y:
                    return False, None
            elif u != v and not (math.isnan(u) and math.isnan(v)):
                rel = abs(u - v) / max(abs(u), abs(v))  # NaN against a number, or infinities apart: inf
                worst = max(worst, math.inf if math.isnan(rel) else rel)
    return False, worst


def compare_dirs(a: Path, b: Path) -> list[tuple[str, str, float | None]]:
    """Per CSV under a or b (relative path, status, largest relative difference), sorted by path.

    status is "equal", "differs", or "only in A" / "only in B".
    """
    names_a = {p.relative_to(a).as_posix() for p in a.rglob("*.csv")}
    names_b = {p.relative_to(b).as_posix() for p in b.rglob("*.csv")}
    report = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            report.append((name, "only in A", None))
        elif name not in names_a:
            report.append((name, "only in B", None))
        else:
            equal, rel = compare_csv(a / name, b / name)
            report.append((name, "equal" if equal else "differs", rel))
    return report


def run_invocations(tree: Path, out: Path) -> list[str]:
    """Run every invocation against tree's src/ in fresh processes; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    failures = []
    for args in INVOCATIONS:
        dest = out / args[0]
        cmd = [sys.executable, "-m", "nfmimo.cli", *args, "--seed", "0", "--out", str(dest)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()}")
    return failures


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision A")
    parser.add_argument("change", nargs="?", default=WORKING_TREE, help="git revision B (default: the working tree)")
    args = parser.parse_args(argv)
    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    with tempfile.TemporaryDirectory(prefix="compare-revisions-") as tmp:
        tmp = Path(tmp)
        added = []
        try:
            trees = []
            for side, rev in (("A", args.base), ("B", args.change)):
                if rev == WORKING_TREE:
                    trees.append(root)
                    continue
                path = tmp / f"tree-{side}"
                _git(root, "worktree", "add", "--detach", str(path), rev)
                added.append(path)
                trees.append(path)
            failures = []
            for side, tree in zip("AB", trees):
                failures += [f"{side} {line}" for line in run_invocations(tree, tmp / f"out-{side}")]
        finally:
            for path in added:
                _git(root, "worktree", "remove", "--force", str(path))
        report = compare_dirs(tmp / "out-A", tmp / "out-B")
    print(f"A = {args.base}, B = {'working tree' if args.change == WORKING_TREE else args.change}")
    for name, status, rel in report:
        print(f"{name:60s} {status:10s} {'-' if rel is None else f'{rel:.3g}'}")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    missing = any(status.startswith("only") for _, status, _ in report)
    return 1 if failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
