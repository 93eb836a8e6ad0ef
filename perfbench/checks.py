"""Output checks for the benchmark: the paper's invariants on every CSV, at any seed,
and a comparison against stored reference values at the pinned seed.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Tolerance for identities that hold exactly in exact arithmetic
# (zero-lag correlation = 1, |rho| <= 1).
IDENTITY_TOL = 1e-12
# Reference comparison: relative tolerance with an absolute floor for
# entries near zero. A reordering of floating-point operations drifts the
# outputs by about 1e-13, far inside this.
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-12
# Near/far boundary of the default 64x64 half-wavelength array at 5 GHz,
# 2 D^2 / lambda with D the aperture diagonal.
DEFAULT_RAYLEIGH_M = 238.0
RAYLEIGH_TOL_M = 0.5

_CORRELATION_KINDS = ("temporal_acf", "spatial_ccf", "frequency_cf")


def read_rows(path: Path) -> list[list[str]]:
    """All rows of a CSV file, header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _series(rows: list[list[str]]) -> list[tuple[float, float, float, float]]:
    """(axis, re, im, magnitude) per data row of a statistic CSV."""
    return [(float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]


def check_invariants(kind: str, rows: list[list[str]]) -> list[str]:
    """Problems with one output CSV of an invocation of experiment `kind`."""
    if len(rows) < 2:
        return ["no data rows"]
    try:
        if kind == "rayleigh_table":
            return _check_rayleigh(rows)
        series = _series(rows)
    except (ValueError, IndexError) as exc:
        return [f"unparsable row: {exc}"]
    problems = []
    if any(math.isnan(x) for row in series for x in row):
        problems.append("NaN in output")
    if kind == "capacity_sweep":
        problems += _check_capacity(series)
    elif kind in _CORRELATION_KINDS:
        problems += _check_correlation(series)
    elif kind == "error_vs_subarray":
        for p_max, re, _, _ in series:
            if p_max == 1 and re != -math.inf:
                problems.append(f"p_max=1 error is {re}, expected -inf (1x1 tiling is exact)")
            if p_max != 1 and not math.isfinite(re):
                problems.append(f"p_max={p_max:g} error is {re}, expected finite")
    elif kind == "error_vs_array":
        problems += [f"side {side:g} error is {re}, expected finite" for side, re, _, _ in series if not math.isfinite(re)]
    elif kind == "complexity_sweep":
        ops = {p_max: re for p_max, re, _, _ in series}
        if 1 in ops and 2 in ops and not math.isclose(ops[2], 0.25 * ops[1], rel_tol=IDENTITY_TOL):
            problems.append(f"2x2 count {ops[2]} is not 0.25 x the 1x1 count {ops[1]}")
    else:
        problems.append(f"no invariant check for experiment kind {kind!r}")
    return problems


def _check_capacity(series) -> list[str]:
    problems = []
    for snr, re, im, _ in series:
        if not (math.isfinite(re) and re >= 0.0 and im == 0.0):
            problems.append(f"capacity at {snr:g} dB is {re}{im:+}j, expected finite, real and >= 0")
    ordered = sorted(series)
    for (snr_a, cap_a, _, _), (snr_b, cap_b, _, _) in zip(ordered, ordered[1:]):
        if cap_b < cap_a:
            problems.append(f"capacity falls from {cap_a} at {snr_a:g} dB to {cap_b} at {snr_b:g} dB")
    return problems


def _check_correlation(series) -> list[str]:
    problems = []
    zero = [(re, im) for axis, re, im, _ in series if axis == 0.0]
    if not zero:
        problems.append("no zero-lag row")
    for re, im in zero:
        if abs(re - 1.0) > IDENTITY_TOL or abs(im) > IDENTITY_TOL:
            problems.append(f"zero-lag correlation is {re}{im:+}j, expected 1")
    for axis, re, im, mag in series:
        if not (math.isfinite(mag) and mag <= 1.0 + IDENTITY_TOL):
            problems.append(f"|rho| = {mag} at {axis:g}, expected <= 1")
    return problems


def _check_rayleigh(rows: list[list[str]]) -> list[str]:
    problems = []
    configured = [r for r in rows[1:] if r[1] == "configured"]
    if len(configured) != 1:
        return [f"expected one configured row, found {len(configured)}"]
    for row in rows[1:]:
        distance = float(row[3])
        if not (math.isfinite(distance) and distance > 0):
            problems.append(f"Rayleigh distance {row[3]} is not a positive number")
    distance = float(configured[0][3])
    if abs(distance - DEFAULT_RAYLEIGH_M) > RAYLEIGH_TOL_M:
        problems.append(f"configured Rayleigh distance {distance} m, expected about {DEFAULT_RAYLEIGH_M} m")
    return problems


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return a == b or math.isclose(a, b, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)


def compare_reference(rows: list[list[str]], reference: list[list[str]]) -> list[str]:
    """Problems where `rows` differ from the stored `reference` beyond the tolerances."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if len(row) != len(ref) or not all(_cells_match(g, w) for g, w in zip(row, ref)):
            problems.append(f"row {i} is {row}, reference {ref}")
    return problems
