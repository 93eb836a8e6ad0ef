"""Experiment orchestration: sweeps, CSV emission, manifests, config loading.

Each experiment kind produces one plot-ready sweep: it runs
the relevant statistic over an axis, writes one CSV per curve plus a JSON
manifest (config snapshot, seed, wall clock, sha256 digest per output), and
is deterministic for a fixed seed and config.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import WavefrontModel
from .fileio import atomic_open
from .geometry import (
    ScenarioConfig,
    _finite_number,
    _integral,
    config_from_dict,
    rayleigh_distance,
    rayleigh_distance_aperture,
)
from .scattering import field_for_realization
from .stats import (
    CorrelationSeries,
    frequency_cf_series,
    mean_capacity,
    model_error_delta,
    ro_complexity,
    spatial_ccf_series,
    temporal_acf_series,
)

EXPERIMENT_KINDS = (
    "error_vs_array",
    "error_vs_subarray",
    "complexity_sweep",
    "spatial_ccf",
    "temporal_acf",
    "frequency_cf",
    "capacity_sweep",
    "rayleigh_table",
)


@dataclass(frozen=True)
class Experiment:
    """One sweep request: what to run, its axis, the seed, and where to write."""

    kind: str
    sweep: dict = field(default_factory=dict)
    seed: int = 0
    output: Path = Path(".")

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "output", Path(self.output))


@dataclass(frozen=True)
class RunManifest:
    """Record of one run: inputs, code version, timing, output digests."""

    experiment: str
    config: dict
    sweep: dict
    code_version: str
    seed: int
    wall_clock_s: float
    outputs: dict[str, str]

    def to_json(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate_config(raw: str) -> ScenarioConfig:
    """Parse a JSON config text into a ScenarioConfig.

    Empty or whitespace-only text yields the full default profile. Unknown
    keys, malformed JSON, and invariant violations raise ValueError naming
    the offending field.
    """
    text = raw.strip()
    if not text:
        return ScenarioConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if data is None:
        return ScenarioConfig()
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    return config_from_dict(data)


def load_config(path: str | Path | None) -> ScenarioConfig:
    """validate_config over a file path; None means the default profile."""
    if path is None:
        return ScenarioConfig()
    return validate_config(Path(path).read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _model_from_sweep(sweep: dict, default: str = "spherical") -> WavefrontModel:
    return WavefrontModel.parse(str(sweep.get("model", default)))


def _int_list(sweep: dict, key: str, default: list[int]) -> list[int]:
    values = sweep.get(key, default)
    if not (isinstance(values, (list, tuple)) and all(map(_integral, values))):
        raise ValueError(f"sweep key {key!r} must be a list of integers, got {values!r}")
    if not values:
        raise ValueError(f"sweep key {key!r} must be a nonempty list")
    return [int(v) for v in values]


def _float_list(sweep: dict, key: str, default: list[float]) -> list[float]:
    values = sweep.get(key, default)
    if not (isinstance(values, (list, tuple)) and all(map(_finite_number, values))):
        raise ValueError(f"sweep key {key!r} must be a list of finite numbers, got {values!r}")
    if not values:
        raise ValueError(f"sweep key {key!r} must be a nonempty list")
    return [float(v) for v in values]


def _check_p_max(p_max_list: list[int], cfg: ScenarioConfig) -> None:
    """Square tile sizes must lie within [1, min(P_h, P_v)]."""
    limit = min(cfg.P_h, cfg.P_v)
    for p_max in p_max_list:
        if not 1 <= p_max <= limit:
            raise ValueError(
                f"p_max = {p_max} outside [1, {limit}]; tile sizes cannot exceed the array side"
            )


def _finite(sweep: dict, key: str, default: float) -> float:
    """A finite number from the sweep (an int or a float, not a bool); else a ValueError naming key."""
    value = sweep.get(key, default)
    if not _finite_number(value):
        raise ValueError(f"sweep key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _int(sweep: dict, key: str, default: int) -> int:
    """An integer from the sweep (an int or an integral float, not a bool); else a ValueError naming key."""
    value = sweep.get(key, default)
    if not _integral(value):
        raise ValueError(f"sweep key {key!r} must be an integer, got {value!r}")
    return int(value)


def _write_series(
    exp: Experiment, outputs: dict, axis_name: str, axis, values, *, n_realizations: int, t: float = 0.0, model=None
) -> None:
    """Write one curve as <kind>.csv, or as <kind>__<model label>.csv for a model's curve, and record its digest.

    model is the WavefrontModel of the curve, or None for the kinds without
    one, which sweep square tilings and so carry the label "subarray".
    """
    series = CorrelationSeries(
        axis_name=axis_name,
        lag_axis=np.asarray(axis, dtype=float),
        values=np.asarray(values, dtype=complex),
        t=t,
        model_label="subarray" if model is None else model.label,
        n_realizations=n_realizations,
        seed=exp.seed,
    )
    stem = exp.kind if model is None else f"{exp.kind}__{model.label.replace(':', '_')}"
    path = exp.output / f"{stem}.csv"
    series.to_csv(path)
    outputs[path.name] = _sha256(path)


def _run_rayleigh_table(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    """Near/far boundary for the standard frequency x aperture grid.

    Also appends the configured scenario's own array as a final row so the
    table always reports the active geometry.
    """
    frequencies = _float_list(exp.sweep, "frequencies_hz", [2.4e9, 5e9])
    if min(frequencies) <= 0:
        raise ValueError(f"sweep key 'frequencies_hz' must hold frequencies > 0, got {frequencies!r}")
    apertures = exp.sweep.get("apertures_m", [[1.0, 0.1], [1.0, 2.0], [2.0, 2.0]])
    if not (
        isinstance(apertures, (list, tuple))
        and apertures
        and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in apertures)
        and all(_finite_number(v) and v > 0 for pair in apertures for v in pair)
    ):
        raise ValueError(
            f"sweep key 'apertures_m' must be a nonempty list of [width, height] pairs of positive finite numbers, "
            f"got {apertures!r}"
        )
    rows = []
    for f_c in frequencies:
        for w, h in apertures:
            w, h = float(w), float(h)
            boundary = rayleigh_distance_aperture(math.hypot(w, h), cfg.c / f_c)
            if not (math.isfinite(boundary) and boundary > 0):
                raise ValueError(
                    f"sweep keys 'frequencies_hz' and 'apertures_m': a {w!r} m x {h!r} m aperture at {f_c!r} Hz "
                    f"has a near-field boundary of {boundary!r} m, not a finite distance above 0"
                )
            rows.append(f"{f_c!r},{w!r},{h!r},{boundary!r}\n")
    rows.append(f"{cfg.f_c!r},configured,configured,{rayleigh_distance(cfg)!r}\n")
    path = exp.output / "rayleigh_table.csv"
    with atomic_open(path, newline="") as fh:
        fh.write("frequency_hz,width_m,height_m,rayleigh_m\n")
        fh.writelines(rows)
    outputs[path.name] = _sha256(path)


def _run_error_vs_array(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    """Model error against the per-element reference as the array side grows.

    Subarray tile sizes are clamped to the current side so one sweep can
    cross sides smaller than the requested tile.
    """
    sides = _int_list(exp.sweep, "sides", [8, 16, 32, 64])
    model = _model_from_sweep(exp.sweep, default="planar")
    if model.variant == "spherical":
        raise ValueError("error sweeps compare against the spherical reference; pick another model")
    t = _finite(exp.sweep, "t", 0.0)
    deltas = []
    for side in sides:
        if side < 1:
            raise ValueError(f"array sides must be >= 1, got {side}")
        cfg_side = replace(cfg, P_h=side, P_v=side)
        if model.variant == "subarray":
            side_model = WavefrontModel.subarray(
                min(model.p_max_h, side), min(model.p_max_v, side)
            )
        else:
            side_model = model
        fld = field_for_realization(cfg_side, exp.seed, 0)
        deltas.append(model_error_delta(side_model, t, cfg_side, fld))
    _write_series(exp, outputs, "array_side", sides, deltas, n_realizations=1, t=t, model=model)


def _run_error_vs_subarray(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    """Model error of square tilings as the tile size grows, one fixed field."""
    p_max_list = _int_list(exp.sweep, "p_max_list", [1, 2, 4, 8, 16, 30, 32, 64])
    t = _finite(exp.sweep, "t", 0.0)
    _check_p_max(p_max_list, cfg)
    fld = field_for_realization(cfg, exp.seed, 0)
    deltas = model_error_delta([WavefrontModel.subarray(p, p) for p in p_max_list], t, cfg, fld)
    _write_series(exp, outputs, "p_max", p_max_list, deltas, n_realizations=1, t=t)


def _run_complexity_sweep(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    """Operation counts of square tilings over tile size."""
    p_max_list = _int_list(exp.sweep, "p_max_list", [1, 2, 4, 8, 16, 30])
    _check_p_max(p_max_list, cfg)
    totals = [
        ro_complexity(WavefrontModel.subarray(p, p), cfg).ro_total for p in p_max_list
    ]
    _write_series(exp, outputs, "p_max", p_max_list, totals, n_realizations=0)


def _run_spatial_ccf(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    model = _model_from_sweep(exp.sweep)
    max_offset = _int(exp.sweep, "max_offset", min(32, cfg.P_h - 1))
    if not 0 <= max_offset <= cfg.P_h - 1:
        raise ValueError(f"max_offset must be within [0, {cfg.P_h - 1}], got {max_offset}")
    offsets = [(dh, 0) for dh in range(max_offset + 1)]
    dq, dt, t = _int(exp.sweep, "dq", 0), _finite(exp.sweep, "dt", 0.0), _finite(exp.sweep, "t", 0.0)
    n_realizations = _int(exp.sweep, "n_realizations", 500)
    series = spatial_ccf_series(offsets, dq, dt, t, cfg, model, n_realizations, seed=exp.seed)
    _write_series(
        exp, outputs, series.axis_name, series.lag_axis, series.values, n_realizations=n_realizations, t=t, model=model
    )


def _run_temporal_acf(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    model = _model_from_sweep(exp.sweep)
    dt_max = _finite(exp.sweep, "dt_max", 0.05)
    points = _int(exp.sweep, "points", 101)
    if dt_max < 0 or points < 1:
        raise ValueError("dt_max must be >= 0 and points >= 1")
    dts = list(np.linspace(0.0, dt_max, points))
    t, n_realizations = _finite(exp.sweep, "t", 0.0), _int(exp.sweep, "n_realizations", 500)
    series = temporal_acf_series(dts, t, cfg, model, n_realizations, seed=exp.seed)
    _write_series(
        exp, outputs, series.axis_name, series.lag_axis, series.values, n_realizations=n_realizations, t=t, model=model
    )


def _run_frequency_cf(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    model = _model_from_sweep(exp.sweep)
    df_max = _finite(exp.sweep, "df_max", 1e7)
    points = _int(exp.sweep, "points", 101)
    if df_max < 0 or points < 1:
        raise ValueError("df_max must be >= 0 and points >= 1")
    dfs = list(np.linspace(0.0, df_max, points))
    t, n_realizations = _finite(exp.sweep, "t", 0.0), _int(exp.sweep, "n_realizations", 500)
    series = frequency_cf_series(dfs, t, cfg, model, n_realizations, seed=exp.seed)
    _write_series(
        exp, outputs, series.axis_name, series.lag_axis, series.values, n_realizations=n_realizations, t=t, model=model
    )


def _run_capacity_sweep(exp: Experiment, cfg: ScenarioConfig, outputs: dict) -> None:
    model = _model_from_sweep(exp.sweep)
    snr_db = _float_list(exp.sweep, "snr_db_list", [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    n_realizations = _int(exp.sweep, "n_realizations", 500)
    normalize_each = exp.sweep.get("normalize_each", False)
    if not isinstance(normalize_each, bool):
        raise ValueError(f"sweep key 'normalize_each' must be a bool, got {normalize_each!r}")
    phase_draws = _int(exp.sweep, "phase_draws", 1)
    t = _finite(exp.sweep, "t", 0.0)
    rho_snrs = []
    for db in snr_db:
        try:
            rho = 10.0 ** (db / 10.0)
        except OverflowError:
            rho = math.inf
        if not math.isfinite(rho):
            raise ValueError(f"sweep key 'snr_db_list' holds {db!r} dB, whose linear SNR is not finite")
        rho_snrs.append(rho)
    values = mean_capacity(
        cfg,
        model,
        rho_snrs,
        n_realizations,
        seed=exp.seed,
        t=t,
        normalize_each=normalize_each,
        phase_draws=phase_draws,
    )
    _write_series(exp, outputs, "snr_db", snr_db, values, n_realizations=n_realizations, t=t, model=model)


_RUNNERS = {
    "rayleigh_table": _run_rayleigh_table,
    "error_vs_array": _run_error_vs_array,
    "error_vs_subarray": _run_error_vs_subarray,
    "complexity_sweep": _run_complexity_sweep,
    "spatial_ccf": _run_spatial_ccf,
    "temporal_acf": _run_temporal_acf,
    "frequency_cf": _run_frequency_cf,
    "capacity_sweep": _run_capacity_sweep,
}


def run_experiment(exp: Experiment, cfg: ScenarioConfig) -> RunManifest:
    """Execute one experiment: write its CSV curve(s) and a manifest.

    Deterministic for fixed (seed, config, sweep): output CSV bytes are
    identical across runs; only the manifest's wall-clock field varies.
    """
    exp.output.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    _RUNNERS[exp.kind](exp, cfg, outputs)
    elapsed = time.perf_counter() - start
    manifest = RunManifest(
        experiment=exp.kind,
        config=asdict(cfg),
        sweep={k: v for k, v in sorted(exp.sweep.items())},
        code_version=__version__,
        seed=exp.seed,
        wall_clock_s=elapsed,
        outputs=outputs,
    )
    manifest.to_json(exp.output / "manifest.json")
    return manifest
