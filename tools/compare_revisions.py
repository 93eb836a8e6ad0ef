"""Compare the CSV outputs and manifests of two revisions of nfmimo, file by file.

Run from anywhere inside the repository:

    python3 tools/compare_revisions.py HEAD~1          # HEAD~1 against the working tree
    python3 tools/compare_revisions.py HEAD~1 HEAD     # two commits

Each revision is checked out with `git worktree` under a temporary directory
(the working tree is used in place) and removed afterwards. Every experiment
kind of the CLI runs once per revision on the built-in default scenario at
seed 0; then every kind runs on a small off-axis scenario with every sweep
flag set away from its default, under the spherical, planar, subarray:2x2
and subarray:4x4 models. Each run is a fresh interpreter. For each CSV the
script prints whether the bytes are equal and the largest relative
difference of its numbers, |a - b| / max(|a|, |b|); text cells must match
exactly. For each manifest.json it prints whether every field but
wall_clock_s is equal. It exits 1 when a run fails or an output is missing
on one side, otherwise 0. It needs git and nothing beyond the standard
library.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# One invocation per experiment kind on the default scenario; Monte Carlo kinds
# use few fields so that a comparison takes seconds, not minutes.
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
# A small scenario off broadside: a rotated transmit array, a tilted receiver,
# cluster means away from the axis and a shorter range.
OFF_AXIS_CONFIG = {
    "P_h": 8, "P_v": 8, "Q": 2, "L_clusters": 2, "N_rays": 5,
    "D_0": 30.0, "psi_T": 1.2, "theta_R": 0.7, "mu_alpha": 0.4, "mu_beta": 0.1,
}
MODELS = ("spherical", "planar", "subarray:2x2", "subarray:4x4")
WORKING_TREE = "."


def off_axis_invocations() -> list[tuple[str, tuple[str, ...]]]:
    """(output name, arguments) of the runs on OFF_AXIS_CONFIG: every sweep flag away from its default."""
    runs = [
        ("off-axis/rayleigh-table", ("rayleigh-table", "--seed", "5", "--realizations", "3")),
        ("off-axis/complexity-sweep", ("complexity-sweep", "--p-max-list", "1,2,8")),
        ("off-axis/error-vs-subarray", ("error-vs-subarray", "--p-max-list", "1,2,4,8", "--t", "0.01")),
    ]
    for model in MODELS:
        common = ("--model", model, "--t", "0.01", "--seed", "4")
        monte_carlo = (*common, "--realizations", "3")
        kinds = [
            ("spatial-ccf", *monte_carlo, "--max-offset", "5", "--dq", "1", "--dt", "0.002"),
            ("temporal-acf", *monte_carlo, "--dt-max", "0.02", "--points", "6"),
            ("frequency-cf", *monte_carlo, "--df-max", "5e6", "--points", "6"),
            ("capacity-sweep", *monte_carlo, "--snr-db", "0,12.5", "--normalize-each", "--phase-draws", "3"),
        ]
        if model != "spherical":  # spherical is the error reference itself
            kinds.append(("error-vs-array", *common, "--sides", "2,4,8"))
        runs += [(f"off-axis/{args[0]}__{model.replace(':', '_')}", args) for args in kinds]
    return runs


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


def compare_manifests(a: Path, b: Path) -> bool:
    """Whether two manifest.json files agree in every field but wall_clock_s."""
    docs = [json.loads(path.read_text()) for path in (a, b)]
    for doc in docs:
        doc.pop("wall_clock_s", None)
    return docs[0] == docs[1]


def compare_dirs(a: Path, b: Path) -> list[tuple[str, str, float | None]]:
    """Per CSV and manifest.json under a or b (relative path, status, largest relative difference), sorted by path.

    status is "equal", "differs", or "only in A" / "only in B". A manifest has
    no relative difference (None); it is equal when all but wall_clock_s is.
    """
    def names(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for pattern in ("*.csv", "manifest.json") for p in root.rglob(pattern)}

    names_a, names_b = names(a), names(b)
    report = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            report.append((name, "only in A", None))
        elif name not in names_a:
            report.append((name, "only in B", None))
        elif name.endswith(".json"):
            report.append((name, "equal" if compare_manifests(a / name, b / name) else "differs", None))
        else:
            equal, rel = compare_csv(a / name, b / name)
            report.append((name, "equal" if equal else "differs", rel))
    return report


def run_invocations(tree: Path, out: Path) -> list[str]:
    """Run every invocation against tree's src/ in fresh processes, each into out/<name>; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out.mkdir(parents=True, exist_ok=True)
    config = out / "off-axis.json"
    config.write_text(json.dumps(OFF_AXIS_CONFIG))
    runs = [(args[0], args) for args in INVOCATIONS]
    runs += [(name, (*args, "--config", str(config))) for name, args in off_axis_invocations()]
    failures = []
    for name, (kind, *args) in runs:
        # seed 0 unless the invocation sets its own, which argparse reads last
        cmd = [sys.executable, "-m", "nfmimo.cli", kind, "--seed", "0", *args, "--out", str(out / name)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"{kind} {' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()}")
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
    width = max((len(name) for name, _, _ in report), default=0)
    for name, status, rel in report:
        print(f"{name:{width}s} {status:10s} {'-' if rel is None else f'{rel:.3g}'}")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    missing = any(status.startswith("only") for _, status, _ in report)
    return 1 if failures or missing else 0


if __name__ == "__main__":
    sys.exit(main())
