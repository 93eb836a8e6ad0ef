"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py as `python3 perfbench/worker.py SPEC.json`. Set-up ends
once `nfmimo.cli` is imported: the worker reports that moment on the
system-wide monotonic clock, and run.py subtracts the moment it started the
process. The worker then calls `nfmimo.cli.main` for each invocation in the
spec, one after another, times each call, and writes a JSON result file.
With "trace" set it records spans around every call (see tracing.py) and
afterwards times `matrix_parts` per tiling on the default scenario.
"""

import sys
import time

import nfmimo.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import nfmimo.geometry  # noqa: E402
import nfmimo.stats  # noqa: E402

# Tilings priced by ro_complexity, with the metric label of each.
PROBE_MODELS = (
    ("spherical", "spherical"),
    ("subarray_2x2", "subarray:2x2"),
    ("subarray_4x4", "subarray:4x4"),
    ("subarray_8x8", "subarray:8x8"),
    ("planar", "planar"),
)
PROBE_REPEATS = 5


def environment() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nfmimo": nfmimo.__version__,
    }


def run_invocation(args: list[str]) -> tuple[int, float, str]:
    """(exit status, seconds, error text) of one CLI call; -1 for an uncaught exception."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = nfmimo.cli.main(args)
        error = ""
    except Exception:  # noqa: BLE001 - one failing invocation must not end the pass
        status, error = -1, traceback.format_exc()
    return status, time.perf_counter() - start, error


def probe_matrix_parts(seed: int) -> dict:
    """Median milliseconds of one matrix_parts call per tiling, default scenario."""
    from nfmimo.channel import WavefrontModel, matrix_parts
    from nfmimo.geometry import ScenarioConfig
    from nfmimo.scattering import field_for_realization
    from nfmimo.stats import ro_complexity

    cfg = ScenarioConfig()
    field = field_for_realization(cfg, seed, 0)
    models = {label: WavefrontModel.parse(text) for label, text in PROBE_MODELS}
    ops = {label: ro_complexity(model, cfg).ro_total for label, model in models.items()}
    times: dict[str, list[float]] = {label: [] for label in models}
    # Round-robin over the tilings, so that a slow spell of the machine
    # affects every tiling alike and the time ratios stay comparable.
    for _ in range(PROBE_REPEATS):
        for label, model in models.items():
            start = time.perf_counter()
            matrix_parts(0.0, cfg, model, field)
            times[label].append(time.perf_counter() - start)
    out = {f"channel.matrix_parts_ms.{label}": 1e3 * statistics.median(t) for label, t in times.items()}
    for label, _ in PROBE_MODELS[1:]:
        out[f"channel.time_ratio.{label}"] = out[f"channel.matrix_parts_ms.{label}"] / out[
            "channel.matrix_parts_ms.spherical"
        ]
        out[f"stats.ro_ratio.{label}"] = ops[label] / ops["spherical"]
    return out


def layer_metrics(tracer, invocations: list[dict], cache_before, cache_after) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import WORK_MODULES

    st = tracer.self_times()
    counters = tracer.counters

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    wall = sum(inv["seconds"] for inv in invocations)
    work = sum(s for name, (_, s) in st.items() if name.split(".")[0] in WORK_MODULES)
    attempts = (counters["scattering.von_mises_draws"] - counters["scattering.cluster_draws"]) / 2
    out = {
        "cli.self_s": self_s("cli.main"),
        "harness.self_s": self_s("harness.run_experiment"),
        "harness.write_s": self_s("harness.write"),
        "harness.bytes_written": sum(inv["bytes"] for inv in invocations),
        "stats.self_s": sum(s for name, (_, s) in st.items() if name.startswith("stats.")),
        "stats.realizations": counters["stats.realizations"],
        "stats.workers": nfmimo.stats.worker_count(),
        "channel.matrix_parts.phasors": counters["channel.matrix_parts.phasors"],
        "channel.matrix_parts.table_bytes": counters["channel.matrix_parts.table_bytes"],
        "scattering.rays": counters["scattering.rays"],
        "scattering.accept_ratio": counters["scattering.rays"] / attempts if attempts else 0.0,
        "geometry.make_partition.hits": cache_after.hits - cache_before.hits,
        "geometry.make_partition.misses": cache_after.misses - cache_before.misses,
        "geometry.make_partition.self_s": self_s("geometry.make_partition"),
        "trace.coverage_frac": (work + self_s("harness.write")) / wall if wall else 0.0,
    }
    for name in (
        "channel.matrix_parts",
        "channel.combine_parts",
        "channel.nlos_ray_phases",
        "channel.los_phase",
        "channel.nlos_delays",
        "scattering.positions",
        "scattering.field",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    package = Path(nfmimo.cli.__file__).resolve().parent
    if package != Path(spec["package"]).resolve():
        print(f"imported nfmimo from {package}, expected {spec['package']}", file=sys.stderr)
        return 2
    result = {"ready": READY}
    if spec.get("environment"):
        result["environment"] = environment()
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        cache_before = nfmimo.geometry.make_partition.cache_info()
        tracer.install()
    invocations = []
    out_root = Path(spec["out"])
    for i, args in enumerate(spec["invocations"]):
        out_dir = out_root / str(i)
        if tracer is not None:
            tracer.invocation = i
        status, seconds, error = run_invocation([*args, "--out", str(out_dir)])
        written = sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0
        invocations.append({"status": status, "seconds": seconds, "bytes": written, "error": error})
    result["invocations"] = invocations
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        cache_after = nfmimo.geometry.make_partition.cache_info()
        tracer.dump(out_root / "spans.jsonl")
        result["layers"] = layer_metrics(tracer, invocations, cache_before, cache_after)
        result["layers"].update(probe_matrix_parts(spec["seed"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
