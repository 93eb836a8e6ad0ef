"""Benchmark of the nfmimo sweep pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload capacity --seed 3 --seconds 30 --trace 0

Workloads (see workloads.py): capacity, correlation, model-error.

Load model: a closed loop with one client. Each pass of a workload is one
fresh interpreter that imports `nfmimo.cli` from this checkout's `src/` and
calls `nfmimo.cli.main` for the workload's invocations one after another,
as a CLI user pays import and partition set-up on every run. Passes use
NFMIMO_THREADS unset (one worker) and OpenBLAS, OpenMP and MKL pinned to one
thread. Passes repeat for --seconds (no pass starts that would end later, except
the first); each metric is the median over passes.

--trace 0 reports the end-to-end metrics of untraced passes:
  wall_s              all invocations of a pass, set-up excluded
  setup_s             from process start until nfmimo.cli is imported
  peak_rss_mb         ru_maxrss of the pass process
  realizations_per_s  scatterer-field realizations requested / their wall time
and prints the per-kind wall times (capacity_sweep_s, temporal_acf_s, ...)
and failed_frac as report lines.

--trace 1 repeats rounds of three passes (untraced, traced, untraced with
NFMIMO_THREADS=2) and reports the per-layer metrics of the traced passes,
the tracing overhead and the two-thread speed-up.

Every output is checked: the paper's invariants on each CSV at any seed,
stored references (refs.json) at the pinned seed, the manifest's digests
against the files, and sha256 agreement of every CSV across passes and
across runs of the same source, seed and workload. An invocation that exits
nonzero or fails a check counts in `failed`. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Run records,
with the environment, go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WHY, WORKLOADS, Invocation, invocations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "nfmimo"
STATE = ROOT / ".perfbench"
REFS = BENCH / "refs.json"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# A run ends within this many seconds even if a pass hangs.
RUN_LIMIT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PassError(RuntimeError):
    """A pass process failed as a whole (crash, timeout, no result)."""


def worker_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NFMIMO_THREADS", None)
    if threads is not None:
        env["NFMIMO_THREADS"] = str(threads)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def run_pass(
    work_dir: Path, invs: list[Invocation], seed: int, *, trace=False, threads=None, environment=False, timeout=RUN_LIMIT_S
) -> dict:
    """Run one pass in a fresh interpreter; its outputs land under work_dir/out."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    spec = {
        "package": str(PACKAGE),
        "invocations": [list(inv.args) for inv in invs],
        "out": str(work_dir / "out"),
        "result": str(work_dir / "result.json"),
        "seed": seed,
        "trace": trace,
        "environment": environment,
    }
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT,
            env=worker_env(threads),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not finish within {timeout:.0f} s") from None
    result_path = work_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise PassError(f"pass process exited with status {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    result["work_dir"] = str(work_dir)
    return result


def check_pass(result: dict, invs: list[Invocation], references: dict | None, digests: dict) -> list[list[str]]:
    """Problems per invocation of a finished pass.

    digests maps "<invocation>/<csv>" to the sha256 first seen for this
    program source and invocation list; new entries are added,
    disagreements are problems.
    """
    out_root = Path(result["work_dir"]) / "out"
    problems = []
    for i, (inv, record) in enumerate(zip(invs, result["invocations"])):
        found = []
        if record["status"] != 0:
            found.append(f"exit status {record['status']} {record['error'].strip()[-500:]}".strip())
        else:
            found += _check_outputs(i, inv, out_root / str(i), references, digests)
        problems.append(found)
    return problems


def _check_outputs(i: int, inv: Invocation, out_dir: Path, references: dict | None, digests: dict) -> list[str]:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    found = []
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    if not csvs or sorted(manifest.get("outputs", {})) != csvs:
        found.append(f"manifest lists {sorted(manifest.get('outputs', {}))}, directory holds {csvs}")
    for name in csvs:
        path = out_dir / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if manifest.get("outputs", {}).get(name) not in (None, digest):
            found.append(f"{name}: manifest digest disagrees with the file")
        key = f"{i}/{name}"
        first = digests.setdefault(key, digest)
        if first != digest:
            found.append(f"{name}: sha256 {digest[:12]} differs from {first[:12]} of an earlier pass")
        rows = checks.read_rows(path)
        found += [f"{name}: {p}" for p in checks.check_invariants(inv.kind, rows)]
        if references is not None:
            if key not in references:
                found.append(f"{name}: no stored reference")
            else:
                found += [f"{name}: {p}" for p in checks.compare_reference(rows, references[key])[:5]]
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def load_references(workload: str, seed: int, quick: bool) -> tuple[int, dict | None]:
    """(pinned seed, stored rows per "<invocation>/<csv>", or None when references do not apply)."""
    data = json.loads(REFS.read_text(encoding="utf-8"))
    if seed != data["seed"] or quick:
        return data["seed"], None
    return data["seed"], data["csv"].get(workload, {})


class Digests:
    """sha256 of every CSV, per program source and invocation list, kept across runs."""

    def __init__(self, key: str) -> None:
        self.path = STATE / "digests.json"
        try:
            self.all = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.all = {}
        self.current = self.all.setdefault(key, {})

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def kind_seconds(result: dict, invs: list[Invocation]) -> dict[str, float]:
    out: dict[str, float] = {}
    for inv, record in zip(invs, result["invocations"]):
        out[f"{inv.kind}_s"] = out.get(f"{inv.kind}_s", 0.0) + record["seconds"]
    return out


def pass_metrics(result: dict, invs: list[Invocation]) -> dict[str, float]:
    records = result["invocations"]
    mc_seconds = sum(r["seconds"] for inv, r in zip(invs, records) if inv.realizations)
    return {
        "wall_s": sum(r["seconds"] for r in records),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "realizations_per_s": sum(inv.realizations for inv in invs) / mc_seconds if mc_seconds else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    launched = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"nfmimo source not found at {PACKAGE}", file=sys.stderr)
        return 2

    invs = invocations(args.workload, args.seed, args.quick)
    pinned, references = load_references(args.workload, args.seed, args.quick)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = STATE / "work" / run_id
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    source = source_digest()
    # The invocations' arguments carry the workload, its sizes and the seed.
    calls = hashlib.sha256(json.dumps([inv.args for inv in invs]).encode()).hexdigest()
    digests = Digests(f"{source}/{calls}")

    # Warm-up pass: compiles bytecode into __pycache__ (a CLI user pays that
    # once, not per run), fails fast when the package does not import, and
    # reports the environment.
    try:
        warm = run_pass(work / "warmup", [], args.seed, environment=True)
    except PassError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 1

    modes = [{}] if args.trace == 0 else [{}, {"trace": True}, {"threads": 2}]
    runs: dict[int, list[dict]] = {k: [] for k in range(len(modes))}
    attempted = failed = 0
    failures: list[str] = []
    start = time.monotonic()
    rounds: list[float] = []
    n_pass = 0
    stop = False
    # Start another round only if a round of the usual length still ends
    # within --seconds, so that a run lasts --seconds and not a round more.
    while not stop and (not rounds or time.monotonic() - start + median(rounds) <= args.seconds):
        round_start = time.monotonic()
        for k, mode in enumerate(modes):
            attempted += len(invs)
            try:
                remaining = RUN_LIMIT_S - (time.monotonic() - launched)
                result = run_pass(work / f"pass{n_pass}", invs, args.seed, timeout=remaining, **mode)
            except PassError as exc:
                # A pass that fails as a whole would fail again: stop here.
                failed += len(invs)
                failures.append(f"pass {n_pass}: {exc}")
                stop = True
                break
            problems = check_pass(result, invs, references, digests.current)
            for inv, found in zip(invs, problems):
                if found:
                    failed += 1
                    failures += [f"pass {n_pass} {' '.join(inv.args)}: {p}" for p in found]
            runs[k].append(result)
            if mode.get("trace"):
                shutil.copy(Path(result["work_dir"]) / "out" / "spans.jsonl", results_dir / f"{run_id}.spans.jsonl")
            shutil.rmtree(result["work_dir"])
            n_pass += 1
        rounds.append(time.monotonic() - round_start)
    shutil.rmtree(work, ignore_errors=True)
    digests.save()

    base = runs[0]
    per_pass = [pass_metrics(r, invs) for r in base]
    values = {name: [m[name] for m in per_pass] for name in END_TO_END}
    kinds = [kind_seconds(r, invs) for r in base]
    kind_values = {name: [k[name] for k in kinds] for name in (kinds[0] if kinds else {})}
    if args.trace == 0:
        measured, declared = {name: median(v) for name, v in values.items()}, END_TO_END
    else:
        measured, declared = trace_metrics(runs, per_pass), PER_LAYER
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items() if name in measured}

    environment = {
        "git_sha": git_sha(),
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        **warm.get("environment", {}),
        "NFMIMO_THREADS": "unset",
        **{var: "1" for var in BLAS_THREAD_VARS},
    }
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "pinned_seed": pinned,
        "references_checked": references is not None,
        "quick": args.quick,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment,
        "invocations": [list(inv.args) for inv in invs],
        "passes": {"end_to_end": values, "kinds": kind_values},
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    results_path = results_dir / f"{run_id}-{stamp}.json"
    results_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    report(args, environment, references is not None, per_pass, values, kind_values, metrics, attempted, failed, failures)
    print(f"record: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(runs: dict[int, list[dict]], per_pass: list[dict]) -> dict[str, float]:
    """Per-layer values: medians over the traced passes, plus overhead and two-thread speed-up."""
    traced = runs[1]
    out = {name: median([r["layers"][name] for r in traced]) for name in (traced[0]["layers"] if traced else {})}
    untraced_wall = median([m["wall_s"] for m in per_pass])
    traced_wall = median([sum(i["seconds"] for i in r["invocations"]) for r in traced])
    two_thread_wall = median([sum(i["seconds"] for i in r["invocations"]) for r in runs[2]])
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    out["stats.speedup_2_threads"] = untraced_wall / two_thread_wall if two_thread_wall else 0.0
    return out


def report(args, environment, refs_checked, per_pass, values, kind_values, metrics, attempted, failed, failures) -> None:
    print(f"nfmimo benchmark: workload={args.workload} seed={args.seed} trace={args.trace} passes={len(per_pass)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"references checked: {'yes' if refs_checked else 'no (only at the pinned seed, full sizes)'}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    frac = failed / attempted if attempted else 0.0
    print(f"failed_frac {frac:.4f} ({failed} of {attempted} invocations)")
    for name, v in {**values, **kind_values}.items():
        if v:
            unit = END_TO_END.get(name, "s")
            print(f"{name:<22} {median(v):12.6f} {unit:<4} median of {len(v)}, min {min(v):.6f}, max {max(v):.6f}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:16.6f} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
