"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload in quick mode, untraced and traced, and checks that the
last stdout line names every metric of BENCHMARK.json with its unit; then
shows that a corrupted CSV, a changed CSV and a reference mismatch each
count as failures.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_line(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_corrupted_csv_raises_failed_frac(monkeypatch, capsys):
    real_run_pass = run.run_pass

    def corrupting_run_pass(*args, **kwargs):
        result = real_run_pass(*args, **kwargs)
        for csv_path in (Path(result["work_dir"]) / "out").glob("*/capacity_sweep__*.csv"):
            rows = checks.read_rows(csv_path)
            rows[1][1] = "1e9"  # capacity at the lowest SNR now exceeds the others
            csv_path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        return result

    monkeypatch.setattr(run, "run_pass", corrupting_run_pass)
    assert run.main(["--workload", "capacity", "--seed", "1", "--seconds", "1", "--quick"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_changed_digest_between_passes_is_a_failure():
    invs = invocations("correlation", 2, quick=True)
    digests: dict[str, str] = {}
    work = run.STATE / "work" / "self-test"
    first = run.run_pass(work / "a", invs, 2)
    assert not any(run.check_pass(first, invs, None, digests))
    second = run.run_pass(work / "b", invs, 2)
    csv_path = next((Path(second["work_dir"]) / "out" / "0").glob("*.csv"))
    csv_path.write_text(csv_path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    problems = run.check_pass(second, invs, None, digests)
    assert any("sha256" in p for p in problems[0])
    assert not any(problems[1:])
    shutil.rmtree(work)


def test_reference_mismatch_beyond_tolerance_is_reported():
    rows = [["dt_s", "re", "im", "magnitude", "n_realizations", "seed"], ["0.0", "1.0", "0.0", "1.0", "5", "0"]]
    drift = [rows[0], ["0.0", repr(1.0 + 1e-13), "0.0", "1.0", "5", "0"]]
    off = [rows[0], ["0.0", repr(1.0 + 1e-6), "0.0", "1.0", "5", "0"]]
    assert checks.compare_reference(drift, rows) == []
    assert checks.compare_reference(off, rows) != []


@pytest.mark.parametrize(
    "kind, rows",
    [
        ("temporal_acf", [["dt_s", "re", "im", "magnitude"], ["0.0", "0.99", "0.0", "0.99"]]),
        ("spatial_ccf", [["spacing_wavelengths", "re", "im", "magnitude"], ["0.0", "1.0", "0.0", "1.0"], ["0.5", "1.2", "0.0", "1.2"]]),
        ("error_vs_subarray", [["p_max", "re", "im", "magnitude"], ["1.0", "-12.5", "0.0", "12.5"]]),
        ("error_vs_array", [["array_side", "re", "im", "magnitude"], ["16.0", "nan", "0.0", "nan"]]),
        ("complexity_sweep", [["p_max", "re", "im", "magnitude"], ["1.0", "400.0", "0.0", "400.0"], ["2.0", "200.0", "0.0", "200.0"]]),
        ("rayleigh_table", [["frequency_hz", "width_m", "height_m", "rayleigh_m"], ["5e9", "configured", "configured", "245.6"]]),
    ],
)
def test_invariant_violations_are_reported(kind, rows):
    assert checks.check_invariants(kind, rows)
