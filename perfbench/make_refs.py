"""Regenerate refs.json: every output CSV of one full-size pass per workload at the pinned seed.

    python3 perfbench/make_refs.py

Only for a change that is meant to alter the outputs; the benchmark then
compares later runs at the pinned seed against these rows with the
tolerances in checks.py. A pass whose outputs fail an invariant is refused.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, invocations

PINNED_SEED = 0


def format_references(references: dict) -> str:
    """refs.json text with one CSV row per line, so that diffs show changed rows."""
    blocks = []
    for workload, csvs in references.items():
        files = []
        for key, rows in csvs.items():
            body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
            files.append(f"   {json.dumps(key)}: [\n{body}\n   ]")
        blocks.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join(files) + "\n  }")
    return f'{{\n "seed": {PINNED_SEED},\n "csv": {{\n' + ",\n".join(blocks) + "\n }\n}\n"


def main() -> int:
    references: dict[str, dict[str, list[list[str]]]] = {}
    work = run.STATE / "work" / "make-refs"
    for workload in WORKLOADS:
        invs = invocations(workload, PINNED_SEED)
        result = run.run_pass(work, invs, PINNED_SEED)
        problems = run.check_pass(result, invs, None, {})
        if any(problems):
            print(f"{workload}: outputs fail their checks, refs not written: {problems}", file=sys.stderr)
            return 1
        out_root = Path(result["work_dir"]) / "out"
        references[workload] = {
            f"{i}/{path.name}": checks.read_rows(path)
            for i in range(len(invs))
            for path in sorted((out_root / str(i)).glob("*.csv"))
        }
    shutil.rmtree(work, ignore_errors=True)
    run.REFS.write_text(format_references(references), encoding="utf-8")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
