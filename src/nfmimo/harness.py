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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .channel import MATRIX_BUDGET_BYTES, WavefrontModel
from .fileio import atomic_open
from .geometry import (
    ScenarioConfig,
    _index,
    _json_index,
    _real,
    config_from_dict,
    rayleigh_distance,
    rayleigh_distance_aperture,
)
from .scattering import field_for_realization
from .stats import (
    CorrelationSeries,
    _check_lag,
    frequency_cf_series,
    mean_capacity,
    model_error_delta,
    ro_complexity,
    spatial_ccf_series,
    temporal_acf_series,
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
        if not isinstance(self.sweep, dict):
            raise ValueError(f"sweep must be a dict of sweep keys, got {self.sweep!r}")
        object.__setattr__(self, "seed", _index("seed", self.seed, 0))
        object.__setattr__(self, "output", Path(self.output))


@dataclass(frozen=True)
class RunManifest:
    """Record of one run: inputs, code version, timing, output digests.

    sweep is the sweep as given; resolved_sweep holds every sweep key's value as the run read it,
    defaults included, with wavefront models written as their labels.
    """

    experiment: str
    config: dict
    sweep: dict
    resolved_sweep: dict
    code_version: str
    seed: int
    wall_clock_s: float
    outputs: dict[str, str]

    def to_json(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True, default=np.generic.item)  # numpy scalars by value
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


# Sweep readers: each turns the value given for key into the value its runner uses, or raises a
# ValueError naming key. Integers follow geometry._json_index's rule and numbers geometry._real's, each
# within the reader's bounds; a list is a nonempty list or tuple, read item by item. A runner reads a key
# again with the bound its config sets (a tile side, max_offset, dq).


def _model(key: str, value) -> WavefrontModel:
    if not isinstance(value, str):  # the manifest records the sweep as given, so a model is text
        raise ValueError(f"sweep key {key!r} must be a model name such as 'planar', got {value!r}")
    return WavefrontModel.parse(value)


def _int(key: str, value, lo: int = 1, hi: int | None = None) -> int:
    return _json_index(f"sweep key {key!r}", value, lo, hi)


def _finite(key: str, value, lo: float = -math.inf, above: bool = False) -> float:
    return float(_real(f"sweep key {key!r}", value, lo, above))


def _bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"sweep key {key!r} must be a bool, got {value!r}")
    return value


def _aperture(key: str, pair) -> tuple[float, float]:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"sweep key {key!r} must hold [width, height] pairs of positive numbers, got {pair!r}")
    return _finite(key, pair[0], 0, above=True), _finite(key, pair[1], 0, above=True)


def _each(read, key: str, values, **bounds) -> list:
    """read(key, v, **bounds) for every v of a nonempty list or tuple."""
    if not (isinstance(values, (list, tuple)) and values):
        raise ValueError(f"sweep key {key!r} must be a nonempty list, got {values!r}")
    return [read(key, v, **bounds) for v in values]


_NONNEG, _INT0 = partial(_finite, lo=0), partial(_int, lo=0)
_int_list, _float_list = partial(_each, _int), partial(_each, _finite)


def _read_sweep(kind: str, sweep: dict, cfg: ScenarioConfig) -> dict:
    """Every sweep key of kind read from sweep, or from its default; an unknown key is refused by name."""
    table = SWEEP_KEYS[kind]
    for key in sweep:
        if key not in table:
            raise ValueError(f"unknown sweep key {key!r} for {kind}; expected one of {', '.join(table)}")
    values = {}
    for key, (read, default) in table.items():
        value = sweep[key] if key in sweep else default(cfg) if callable(default) else default
        values[key] = read(key, value)
    return values


# The allowance per correlation axis point that _check_axis holds to MATRIX_BUDGET_BYTES (1,048,576 points).
_AXIS_POINT_BYTES = 1024


def _check_axis(key: str, count: int) -> None:
    """Refuse an axis of count points whose cost at _AXIS_POINT_BYTES per point exceeds the budget.

    The statistics form a field's phases in runs of axis points, so a
    field's peak does not grow with the axis, the ray count or the
    realization count. The axis itself costs about 110 (frequency-cf),
    290 (temporal-acf) and 550 to 600 (spatial-ccf) bytes per point,
    measured with tracemalloc at one realization; the allowance is 1.7
    times the largest of them.
    """
    if (need := count * _AXIS_POINT_BYTES) > MATRIX_BUDGET_BYTES:
        raise ValueError(
            f"sweep key {key!r} gives {count} axis points, which need {need / 2**30:.2f} GiB at {_AXIS_POINT_BYTES} "
            f"bytes per point, over the {MATRIX_BUDGET_BYTES / 2**30:g} GiB budget (channel.MATRIX_BUDGET_BYTES)"
        )


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


def _run_rayleigh_table(exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, frequencies_hz, apertures_m) -> None:
    """Near/far boundary for the standard frequency x aperture grid.

    Also appends the configured scenario's own array as a final row so the
    table always reports the active geometry.
    """
    rows = []
    for f_c in frequencies_hz:
        for w, h in apertures_m:
            try:  # the diagonal, the wavelength and the boundary may each leave the float range
                boundary = rayleigh_distance_aperture(math.hypot(w, h), cfg.c / f_c)
            except ValueError as exc:
                raise ValueError(
                    f"sweep keys 'frequencies_hz' and 'apertures_m': a {w!r} m x {h!r} m aperture at {f_c!r} Hz: {exc}"
                ) from None
            rows.append(f"{f_c!r},{w!r},{h!r},{boundary!r}\n")
    rows.append(f"{cfg.f_c!r},configured,configured,{rayleigh_distance(cfg)!r}\n")
    path = exp.output / "rayleigh_table.csv"
    with atomic_open(path, newline="") as fh:
        fh.write("frequency_hz,width_m,height_m,rayleigh_m\n")
        fh.writelines(rows)
    outputs[path.name] = _sha256(path)


def _run_error_vs_array(exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, sides, model, t) -> None:
    """Model error against the per-element reference as the array side grows.

    Subarray tile sizes are clamped to the current side so one sweep can
    cross sides smaller than the requested tile.
    """
    deltas = []
    for side in sides:
        cfg_side = replace(cfg, P_h=side, P_v=side)
        if model.variant == "subarray":
            side_model = WavefrontModel.subarray(min(model.p_max_h, side), min(model.p_max_v, side))
        else:
            side_model = model
        fld = field_for_realization(cfg_side, exp.seed, 0)
        deltas.append(model_error_delta(side_model, t, cfg_side, fld))
    _write_series(exp, outputs, "array_side", sides, deltas, n_realizations=1, t=t, model=model)


def _run_error_vs_subarray(exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, p_max_list, t) -> None:
    """Model error of square tilings as the tile size grows, one fixed field."""
    _int_list("p_max_list", p_max_list, hi=min(cfg.P_h, cfg.P_v))
    fld = field_for_realization(cfg, exp.seed, 0)
    deltas = model_error_delta([WavefrontModel.subarray(p, p) for p in p_max_list], t, cfg, fld)
    _write_series(exp, outputs, "p_max", p_max_list, deltas, n_realizations=1, t=t)


def _run_complexity_sweep(exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, p_max_list) -> None:
    """Operation counts of square tilings over tile size."""
    _int_list("p_max_list", p_max_list, hi=min(cfg.P_h, cfg.P_v))
    totals = [ro_complexity(WavefrontModel.subarray(p, p), cfg).ro_total for p in p_max_list]
    _write_series(exp, outputs, "p_max", p_max_list, totals, n_realizations=0)


def _run_spatial_ccf(
    exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, model, t, n_realizations, max_offset, dq, dt
) -> None:
    _int("max_offset", max_offset, 0, cfg.P_h - 1)
    _int("dq", dq, 0, cfg.Q - 1)  # from receive element 1, spatial_ccf_series's base_q
    _check_axis("max_offset", max_offset + 1)
    offsets = [(dh, 0) for dh in range(max_offset + 1)]
    series = spatial_ccf_series(offsets, dq, dt, t, cfg, model, n_realizations, seed=exp.seed)
    _write_series(
        exp, outputs, series.axis_name, series.lag_axis, series.values, n_realizations=n_realizations, t=t, model=model
    )


def _run_lag_axis(
    exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, model, t, n_realizations, points, **lag
) -> None:
    """The temporal ACF (lag key dt_max) or frequency CF (df_max) at points lags from 0 to the lag key's value."""
    ((key, lag_max),) = lag.items()
    _check_axis("points", points)
    lags = np.linspace(0.0, lag_max, points).tolist()
    if key == "dt_max":
        _check_lag(key, lags, t, cfg)
    # Read from this module at call time, where perfbench's tracer rebinds both.
    series_of = temporal_acf_series if key == "dt_max" else frequency_cf_series
    series = series_of(lags, t, cfg, model, n_realizations, seed=exp.seed)
    _write_series(
        exp, outputs, series.axis_name, series.lag_axis, series.values, n_realizations=n_realizations, t=t, model=model
    )


def _run_capacity_sweep(
    exp: Experiment, cfg: ScenarioConfig, outputs: dict, *, model, t, n_realizations, snr_db_list, normalize_each,
    phase_draws,
) -> None:
    rho_snrs = []
    for db in snr_db_list:
        try:  # a finite float power is finite or raises
            rho_snrs.append(10.0 ** (db / 10.0))
        except OverflowError:
            raise ValueError(f"sweep key 'snr_db_list' holds {db!r} dB, whose linear SNR is not finite") from None
    values = mean_capacity(
        cfg, model, rho_snrs, n_realizations, seed=exp.seed, t=t, normalize_each=normalize_each, phase_draws=phase_draws
    )
    _write_series(exp, outputs, "snr_db", snr_db_list, values, n_realizations=n_realizations, t=t, model=model)


_TIME = {"t": (_NONNEG, 0.0)}
_MONTE_CARLO = {"model": (_model, "spherical"), **_TIME, "n_realizations": (_int, 500)}
_LAG_AXIS = {**_MONTE_CARLO, "points": (_int, 101)}

# Every experiment kind, in the CLI's order: kind -> (runner, one-line help, sweep schema of key -> (reader,
# default)), where a callable default is computed from the config. run_experiment refuses any sweep key
# outside the kind's schema and passes the runner each key's read value; the CLI makes one subcommand per kind.
KINDS = {
    "error_vs_array": (_run_error_vs_array, "model error vs array side length", {
        "sides": (_int_list, (8, 16, 32, 64)), "model": (_model, "planar"), **_TIME,
    }),
    "error_vs_subarray": (_run_error_vs_subarray, "model error vs square tile size", {
        "p_max_list": (_int_list, (1, 2, 4, 8, 16, 30, 32, 64)), **_TIME,
    }),
    "complexity_sweep": (_run_complexity_sweep, "operation counts vs square tile size", {
        "p_max_list": (_int_list, (1, 2, 4, 8, 16, 30)),
    }),
    "spatial_ccf": (_run_spatial_ccf, "spatial cross-correlation vs antenna offset", {
        **_MONTE_CARLO, "max_offset": (_INT0, lambda cfg: min(32, cfg.P_h - 1)), "dq": (_INT0, 0), "dt": (_finite, 0.0),
    }),
    "temporal_acf": (_run_lag_axis, "temporal autocorrelation vs time lag", {**_LAG_AXIS, "dt_max": (_NONNEG, 0.05)}),
    "frequency_cf": (_run_lag_axis, "frequency correlation vs frequency offset", {**_LAG_AXIS, "df_max": (_NONNEG, 1e7)}),
    "capacity_sweep": (_run_capacity_sweep, "ensemble capacity vs SNR", {
        **_MONTE_CARLO,
        "snr_db_list": (_float_list, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
        "normalize_each": (_bool, False),
        "phase_draws": (_int, 1),
    }),
    "rayleigh_table": (_run_rayleigh_table, "near/far boundary for standard apertures", {
        "frequencies_hz": (partial(_float_list, lo=0, above=True), (2.4e9, 5e9)),
        "apertures_m": (partial(_each, _aperture), ((1.0, 0.1), (1.0, 2.0), (2.0, 2.0))),
    }),
}
SWEEP_KEYS = {kind: keys for kind, (_, _, keys) in KINDS.items()}
EXPERIMENT_KINDS = tuple(KINDS)


def run_experiment(exp: Experiment, cfg: ScenarioConfig) -> RunManifest:
    """Execute one experiment: write its CSV curve(s) and a manifest.

    Deterministic for fixed (seed, config, sweep): output CSV bytes are
    identical across runs; only the manifest's wall-clock field varies.
    The manifest records the sweep as given and the sweep that ran.
    """
    values = _read_sweep(exp.kind, exp.sweep, cfg)
    exp.output.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    KINDS[exp.kind][0](exp, cfg, outputs, **values)
    elapsed = time.perf_counter() - start
    manifest = RunManifest(
        experiment=exp.kind,
        config=asdict(cfg),
        sweep={k: v for k, v in sorted(exp.sweep.items())},
        resolved_sweep={k: v.label if isinstance(v, WavefrontModel) else v for k, v in values.items()},
        code_version=__version__,
        seed=exp.seed,
        wall_clock_s=elapsed,
        outputs=outputs,
    )
    manifest.to_json(exp.output / "manifest.json")
    return manifest
