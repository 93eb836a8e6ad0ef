"""The benchmark's workloads: the CLI invocations each one runs, made from a seed.

Every workload runs on the built-in default scenario (64x64 transmit array,
Q = 4). Realization counts are scaled so one pass of a workload takes a few
seconds on a single core; the quick sizes exist for the benchmark's own
self-test and are never timed against each other.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `nfmimo` CLI call: its experiment kind, arguments and realization count."""

    kind: str
    args: tuple[str, ...]
    # Scatterer-field realizations the call asks for: --realizations for the
    # Monte Carlo kinds, one field per error sweep (per side for
    # error-vs-array), none for the analytic kinds.
    realizations: int


# Why each workload exists: the layer it stresses and the layer it bypasses.
WHY = {
    "capacity": "spherical capacity-sweep: matrix_parts dominates and fields are rebuilt per SNR point; "
    "never touches the scalar per-pair path",
    "correlation": "temporal/spatial/frequency correlation: scalar per-pair phases and field generation; "
    "builds no matrix",
    "model-error": "error-vs-subarray/array over many tilings: matrix_parts per tiling and partition cache; "
    "one field per call, no Monte Carlo",
}

WORKLOADS = tuple(WHY)


def _inv(kind: str, realizations: int, *args: object) -> Invocation:
    return Invocation(kind=kind, args=(kind.replace("_", "-"), *map(str, args)), realizations=realizations)


def invocations(workload: str, seed: int, quick: bool = False) -> list[Invocation]:
    """The invocations of one pass of `workload` at seed `seed`."""
    s = seed
    if workload == "capacity":
        if quick:
            return [_inv("capacity_sweep", 1, "--realizations", 1, "--snr-db", "0,10,20", "--seed", s)]
        return [_inv("capacity_sweep", 4, "--realizations", 4, "--seed", s)]
    if workload == "correlation":
        n_acf, n_ccf, n_cf = (2, 2, 4) if quick else (34, 67, 200)
        extra_acf = ("--points", 5) if quick else ()
        extra_ccf = ("--max-offset", 4) if quick else ()
        return [
            _inv("temporal_acf", n_acf, "--realizations", n_acf, *extra_acf, "--seed", s),
            _inv("spatial_ccf", n_ccf, "--realizations", n_ccf, *extra_ccf, "--seed", s),
            _inv("frequency_cf", n_cf, "--realizations", n_cf, *extra_acf, "--seed", s),
        ]
    if workload == "model-error":
        if quick:
            subarray = [_inv("error_vs_subarray", 1, "--p-max-list", "1,2,64", "--seed", s)]
            sides = "8,16"
        else:
            subarray = [_inv("error_vs_subarray", 1, "--seed", s + i) for i in range(3)]
            sides = "16,32,64,128"
        n_sides = len(sides.split(","))
        return [
            *subarray,
            _inv("error_vs_array", n_sides, "--sides", sides, "--model", "planar", "--seed", s),
            _inv("error_vs_array", n_sides, "--sides", sides, "--model", "subarray:4x4", "--seed", s),
            _inv("complexity_sweep", 0, "--seed", s),
            _inv("rayleigh_table", 0, "--seed", s),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
