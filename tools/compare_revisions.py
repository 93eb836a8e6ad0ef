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
wall_clock_s is equal.

A fresh interpreter per revision also saves the outputs of
channel.matrix_parts (every array and number in its result), of
channel.combine_parts (the field's own phases and a stack of three draws)
and of channel.point_phases (the direct phases and the scattered phases of
the field at one fixed batch of points that mix elements, receive elements
and times) for each of ARRAY_MODELS at each of ARRAY_SIDES, default
scenario, seed 0, t = 0; each array is then compared with np.array_equal
(NaN equal to NaN, dtypes equal). The script exits 1 when a run fails or an
output or array is missing on one side, otherwise 0. It needs git and numpy.
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

import numpy as np

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
# Tilings and square array sides of the default scenario whose matrix arrays are compared.
ARRAY_MODELS = ("spherical", "subarray:2x2", "subarray:4x4", "subarray:8x8", "planar")
ARRAY_SIDES = (64, 128)
# Run as `python -c ARRAY_SCRIPT OUT SIDES MODELS` against one revision's src/: one .npz per side and model,
# keys matrix_parts.<index path> for the arrays and numbers of its (nested) result, combine_parts.<draws>,
# and point_phases.direct and point_phases.scattered.
ARRAY_SCRIPT = """
import sys
from pathlib import Path
import numpy as np
from nfmimo.channel import WavefrontModel, combine_parts, matrix_parts, point_phases
from nfmimo.geometry import ScenarioConfig
from nfmimo.scattering import field_for_realization

def flat(value, name, out):
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            flat(item, f"{name}.{i}", out)
    elif isinstance(value, (np.ndarray, float, int, complex)):
        out[name] = np.asarray(value)

out_dir = Path(sys.argv[1])
out_dir.mkdir(parents=True, exist_ok=True)
for side in map(int, sys.argv[2].split(",")):
    cfg = ScenarioConfig(P_h=side, P_v=side)
    field = field_for_realization(cfg, 0, 0)
    draws = np.random.default_rng(1).uniform(0.0, 2 * np.pi, (3, field.n_rays))
    # Corner, middle and repeated elements (one as a linear index), every receive element, three times.
    mid = side // 2 + 1
    points = [
        ((1, 1), 1, 0.0), ((side, side), 4, 0.01), ((mid, 1), 2, 0.0), ((1, side), 3, 0.02),
        ((mid, mid), 1, 0.01), ((1, 1), 4, 0.02), (side * side, 2, 0.01), ((mid, 1), 3, 0.0),
    ]
    for label in sys.argv[3].split(","):
        arrays, model = {}, WavefrontModel.parse(label)
        parts = matrix_parts(0.0, cfg, model, field)
        flat(parts, "matrix_parts", arrays)
        arrays["combine_parts.1"] = combine_parts(parts, field.phases(), cfg.K)
        arrays["combine_parts.3"] = combine_parts(parts, draws, cfg.K)
        direct, scattered = point_phases(points, cfg, model)
        arrays["point_phases.direct"], arrays["point_phases.scattered"] = direct, scattered(field)
        np.savez(out_dir / f"{side}_{label.replace(':', '_')}.npz", **arrays)
"""


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


def compare_arrays(a: Path, b: Path) -> list[tuple[str, str]]:
    """Per array in the .npz files under a or b ("<file>:<key>", status), sorted; status as in compare_dirs.

    Arrays are equal when their dtypes match and np.array_equal holds, NaN equal to NaN.
    """
    def arrays(root: Path) -> dict[str, np.ndarray]:
        found = {}
        for path in sorted(root.rglob("*.npz")):
            with np.load(path) as data:
                found.update({f"{path.relative_to(root).as_posix()}:{key}": data[key] for key in data.files})
        return found

    arrays_a, arrays_b = arrays(a), arrays(b)
    report = []
    for name in sorted(arrays_a.keys() | arrays_b.keys()):
        if name not in arrays_b:
            report.append((name, "only in A"))
        elif name not in arrays_a:
            report.append((name, "only in B"))
        else:
            x, y = arrays_a[name], arrays_b[name]
            same = x.dtype == y.dtype and np.array_equal(x, y, equal_nan=x.dtype.kind in "fc")
            report.append((name, "equal" if same else "differs"))
    return report


def run_arrays(tree: Path, out: Path, sides=ARRAY_SIDES, models=ARRAY_MODELS) -> list[str]:
    """Save the matrix arrays of tree's src/ into out in one fresh process; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-c", ARRAY_SCRIPT, str(out), ",".join(map(str, sides)), ",".join(models)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    return [] if proc.returncode == 0 else [f"arrays: exit {proc.returncode}: {proc.stderr.strip()}"]


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
                failures += [f"{side} {line}" for line in run_arrays(tree, tmp / f"arrays-{side}")]
        finally:
            for path in added:
                _git(root, "worktree", "remove", "--force", str(path))
        report = compare_dirs(tmp / "out-A", tmp / "out-B")
        report += [(name, status, None) for name, status in compare_arrays(tmp / "arrays-A", tmp / "arrays-B")]
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
