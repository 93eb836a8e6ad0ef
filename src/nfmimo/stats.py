"""Correlation statistics, capacity, model error, and operation-count model.

Correlation estimators take the expectation over the i.i.d. uniform ray
phases analytically: in the conjugate product of two coefficients every
cross-ray term has a surviving uniform phase and vanishes in expectation,
while same-ray terms cancel their random phase exactly. What remains is the
per-field normalized sum of deterministic per-ray phasor products, averaged
by Monte Carlo over scatterer fields only. This keeps the zero-lag value
exactly 1 and |rho| <= 1 for every sample count.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import (
    ChannelRealization,
    WavefrontModel,
    _CIS_CHUNK,
    _bulk,
    _cis,
    _matrix_groups,
    _receivers,
    channel_matrix,
    combine_parts,
    los_phase,  # noqa: F401 - one-point views of point_phases; perfbench's tracer wraps them here
    matrix_parts,
    nlos_delays,
    nlos_ray_phases,  # noqa: F401
    point_phases,
    rician_weights,
    tau_los,
)
from .fileio import atomic_open
from .geometry import ScenarioConfig, _index, _real
from .scattering import ScattererField, field_for_realization

# Seeds feed numpy SeedSequence entry lists; the stream tag separates phase
# redraws from the field-generation stream keyed on (seed, index).
_PHASE_STREAM = 1

# Operation tally for evaluating one angle set (one tile midpoint toward one
# receive element). Direct path: 6 additions, 2 divisions, 2 squarings,
# 1 square root, 32 arctangent table steps, 4 assignments. Scattered path:
# 10 additions, 4 divisions, 4 squarings, 2 square roots, 64 arctangent
# table steps, 4 assignments.
RO_LOS_PER_ANGLE_SET = 6 + 2 + 2 + 1 + 32 + 4
RO_NLOS_PER_ANGLE_SET = 10 + 4 + 4 + 2 + 64 + 4
RO_PER_ANGLE_SET = RO_LOS_PER_ANGLE_SET + RO_NLOS_PER_ANGLE_SET


def worker_count() -> int:
    """Threads a realization mean runs on: always 1, as realizations are summed serially in index order."""
    return 1


def _realization_mean(fn, n_realizations: int):
    """Mean of fn(0..n_realizations-1), summed in index order; no result is kept once it is added.

    Each realization derives its own RNG stream from (seed, index).
    """
    n = _index("n_realizations", n_realizations)
    return sum(map(fn, range(n))) / n


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """A labeled statistic series: one complex value per axis point.

    Used for every emitted statistic (correlations, capacity, model error,
    operation counts); purely real statistics carry a zero imaginary part.
    """

    axis_name: str
    lag_axis: np.ndarray
    values: np.ndarray
    t: float
    model_label: str
    n_realizations: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.lag_axis) != len(self.values):
            raise ValueError("lag_axis and values must have equal length")
        if len(self.lag_axis) == 0:
            raise ValueError("a series needs at least one axis point")

    def to_csv(self, path: str | Path) -> None:
        """One row per axis point: axis value, Re, Im, magnitude, count, seed; floats as repr."""
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([self.axis_name, "re", "im", "magnitude", "n_realizations", "seed"])
            for lag, value in zip(self.lag_axis, self.values):
                v = complex(value)
                writer.writerow(
                    [repr(float(lag)), repr(v.real), repr(v.imag), repr(abs(v)), self.n_realizations, self.seed]
                )


@dataclass(frozen=True)
class ComplexityReport:
    """Operation-count summary for one wavefront model."""

    ro_total: int
    ro_los_per_pair: int
    ro_nlos_per_pair: int
    model: WavefrontModel


def ro_complexity(model: WavefrontModel, cfg: ScenarioConfig) -> ComplexityReport:
    """Angle-set operation count for synthesizing one full matrix.

    Each (tile, receive element) pair evaluates one direct and one
    scattered angle set; a tiling with one element per tile prices the
    per-element evaluation and the single full-array tile prices the
    far-field baseline.
    """
    partition = model.partition_for(cfg)
    n_sets = partition.counts_h * partition.counts_v * cfg.Q
    return ComplexityReport(
        ro_total=n_sets * RO_PER_ANGLE_SET,
        ro_los_per_pair=RO_LOS_PER_ANGLE_SET,
        ro_nlos_per_pair=RO_NLOS_PER_ANGLE_SET,
        model=model,
    )


def _validate_pair(base_p, dp, base_q, dq, cfg: ScenarioConfig):
    """The base antenna base_p, the offset antenna base_p + dp and the offset receive element base_q + dq."""
    p1 = tuple(_index("base_p", p, 1, n) for p, n in zip(base_p, (cfg.P_h, cfg.P_v), strict=True))
    p2 = tuple(p + _index("dp", d, 1 - p, n - p) for p, d, n in zip(p1, dp, (cfg.P_h, cfg.P_v), strict=True))
    base_q = _index("base_q", base_q, 1, cfg.Q)
    return p1, p2, base_q + _index("dq", dq, 1 - base_q, cfg.Q - base_q)


def _axis_runs(n_points: int, cfg: ScenarioConfig) -> list[slice]:
    """Runs of axis points whose (points, rays) phasors fit one _cis chunk, or one point when a point's do not."""
    step = max(1, _CIS_CHUNK // (cfg.L_clusters * cfg.N_rays))
    return [slice(lo, lo + step) for lo in range(0, n_points, step)]


def _ray_mean(field_rows, cfg: ScenarioConfig, n_realizations: int, seed: int) -> np.ndarray:
    """Mean over fields 0..n-1 of each axis point's ray mean of exp(j * phase); field_rows(field) yields a run at a time."""
    return _realization_mean(
        lambda i: np.concatenate([_cis(rows).mean(axis=1) for rows in field_rows(field_for_realization(cfg, seed, i))]),
        n_realizations,
    )


def _lag_axis(name: str, lags) -> np.ndarray:
    """The lags as a float array: at least one, each finite and >= 0."""
    if not lags:
        raise ValueError(f"{name} must hold at least one lag")
    return np.array([_real(name, v, 0) for v in lags], dtype=float)


def _check_lag(name: str, lags, t: float, cfg: ScenarioConfig, q: int = 1) -> None:
    """Refuse, naming name, lags that take receive element q from t to before 0 or out of range.

    t, then f_c by its delay phase at t, are refused by name first, as the statistic refuses them. name
    stands for the largest lag, which alone is checked against the direct path, as the path's length is
    convex in time; the receive rows of q are formed at every lag, as the statistic forms them.
    """
    _bulk(cfg.f_c, tau_los(t, cfg))
    lag = max(_real(name, v, 0.0 - float(t)) for v in lags)  # a float bound, 0.0 and not -0.0 at t = 0
    try:
        tau_los(t + lag, cfg)
        _receivers([(q, t + v) for v in lags], cfg)
    except ValueError as exc:
        raise ValueError(
            f"{name} = {lag!r} s takes the receiver from t = {t!r} s beyond a finite direct path or receive phase: "
            f"{exc}"
        ) from None


def _ccf_parts(base, others, cfg: ScenarioConfig, model: WavefrontModel, n_realizations: int, seed: int):
    """Unweighted direct and scattered correlation of point base with each of others.

    Points are (p, q, t). The direct part is the deterministic conjugate
    phasor product; the scattered part averages, over n_realizations
    independent fields, the per-field mean of deterministic per-ray
    conjugate phasors (random phases cancel ray-by-ray; cross-ray terms
    average to zero and are dropped analytically). One point_phases call
    per run of others evaluates the field-independent geometry of its points.
    """
    los, scattered = zip(*(point_phases([base, *others[run]], cfg, model) for run in _axis_runs(len(others), cfg)))
    rho_los = np.concatenate([_cis(direct[0] - direct[1:]) for direct in los])
    return rho_los, _ray_mean(
        lambda fld: (phases[0] - phases[1:] for phases in (run(fld) for run in scattered)), cfg, n_realizations, seed
    )


def _rician_mix(cfg: ScenarioConfig, rho_los, rho_nlos):
    """K/(K+1) times the direct part plus 1/(K+1) times the scattered part."""
    w_los, w_nlos = rician_weights(cfg.K)
    return (w_los * w_los) * rho_los + (w_nlos * w_nlos) * rho_nlos


def _mixed_series(
    axis_name: str, lag_axis, parts, t: float, cfg: ScenarioConfig, model: WavefrontModel, n_realizations: int, seed: int
) -> CorrelationSeries:
    """The Rician mix of the (direct, scattered) parts over lag_axis as one series."""
    return CorrelationSeries(
        axis_name=axis_name,
        lag_axis=lag_axis,
        values=_rician_mix(cfg, *parts),
        t=t,
        model_label=model.label,
        n_realizations=n_realizations,
        seed=seed,
    )


def st_ccf_parts(
    dp: tuple[int, int],
    dq: int,
    dt: float,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
    base_p: tuple[int, int] = (1, 1),
    base_q: int = 1,
) -> tuple[complex, complex, int]:
    """Direct and scattered correlation parts, unweighted, plus a constant 0.

    The one-offset view of spatial_ccf_series before Rician weighting. The
    third value is always 0, kept for this function's 3-tuple signature.
    """
    p1, p2, q2 = _validate_pair(base_p, dp, base_q, dq, cfg)
    _check_lag("dt", [dt], t, cfg, q2)
    rho_los, rho_nlos = _ccf_parts((p1, base_q, t), [(p2, q2, t + dt)], cfg, model, n_realizations, seed)
    return complex(rho_los[0]), complex(rho_nlos[0]), 0


def st_ccf(
    dp: tuple[int, int],
    dq: int,
    dt: float,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
    base_p: tuple[int, int] = (1, 1),
    base_q: int = 1,
) -> complex:
    """Space-time cross-correlation between antenna pairs offset by (dp, dq, dt).

    Equals K/(K+1) times the direct part plus 1/(K+1) times the scattered
    part of st_ccf_parts.
    """
    rho_los, rho_nlos, _ = st_ccf_parts(
        dp, dq, dt, t, cfg, model, n_realizations, seed=seed, base_p=base_p, base_q=base_q
    )
    return _rician_mix(cfg, rho_los, rho_nlos)


def temporal_acf(
    dt: float,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
) -> complex:
    """Temporal autocorrelation: st_ccf at zero antenna offsets."""
    return st_ccf((0, 0), 0, dt, t, cfg, model, n_realizations, seed=seed)


def frequency_cf(
    df: float,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
) -> complex:
    """Frequency correlation at offset df for one antenna pair: frequency_cf_series at one offset."""
    return complex(frequency_cf_series([df], t, cfg, model, n_realizations, seed=seed).values[0])


def spatial_ccf_series(
    offsets: list[tuple[int, int]],
    dq: int,
    dt: float,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
    base_p: tuple[int, int] = (1, 1),
    base_q: int = 1,
) -> CorrelationSeries:
    """st_ccf over a list of antenna offsets, sharing fields across offsets.

    The axis reports the offset magnitude in wavelengths. Sharing the same
    realizations across every offset keeps the curve smooth (common random
    numbers), and each offset's value equals the scalar st_ccf one.
    """
    if not offsets:
        raise ValueError("at least one antenna offset is required")
    pairs = [_validate_pair(base_p, dp, base_q, dq, cfg) for dp in offsets]
    _check_lag("dt", [dt], t, cfg, pairs[0][2])
    others = [(p2, q2, t + dt) for _, p2, q2 in pairs]
    parts = _ccf_parts((pairs[0][0], base_q, t), others, cfg, model, n_realizations, seed)
    axis = np.array(
        [math.hypot(dp[0] * cfg.delta_T, dp[1] * cfg.delta_T) / cfg.wavelength for dp in offsets]
    )
    return _mixed_series("spacing_wavelengths", axis, parts, t, cfg, model, n_realizations, seed)


def temporal_acf_series(
    dts: list[float],
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
) -> CorrelationSeries:
    """temporal_acf over a list of time lags, sharing fields across lags."""
    axis = _lag_axis("dts", dts)
    _check_lag("max(dts)", dts, t, cfg)
    base = (1, 1)
    others = [(base, 1, t + dt) for dt in dts]
    parts = _ccf_parts((base, 1, t), others, cfg, model, n_realizations, seed)
    return _mixed_series("dt_s", axis, parts, t, cfg, model, n_realizations, seed)


def frequency_cf_series(
    dfs: list[float],
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    n_realizations: int = 500,
    *,
    seed: int = 0,
) -> CorrelationSeries:
    """Frequency correlation over a list of frequency offsets, sharing fields.

    In the conjugate product of the frequency response at f_c and f_c + df
    all steering terms cancel (same pair, same time), leaving per-path
    phasors exp(j 2 pi df tau); the direct part uses the midpoint delay and
    the scattered part the per-field normalized per-ray sum.
    """
    dfs_arr = _lag_axis("dfs", dfs)

    def delay_phases(delays: np.ndarray, runs=_axis_runs(len(dfs), cfg)):
        # Delays are positive, so the largest offset and delay bound every phase argument.
        if not math.isfinite(2.0 * math.pi * float(dfs_arr.max()) * float(delays.max())):
            raise ValueError(f"frequency offsets df up to {float(dfs_arr.max())!r} Hz overflow the delay phase 2*pi*df*tau")
        return (2.0 * math.pi * dfs_arr[run, None] * delays[None, :] for run in runs)

    (direct,) = delay_phases(np.array([tau_los(t, cfg)]), [slice(None)])
    scattered = _ray_mean(lambda fld: delay_phases(nlos_delays(t, cfg, fld)), cfg, n_realizations, seed)
    return _mixed_series("df_hz", dfs_arr, (_cis(direct)[:, 0], scattered), t, cfg, model, n_realizations, seed)


def _check_snr(rho_snr) -> float:
    # A numpy scalar is judged by its Python value: an integer SNR array passes, a bool one does not.
    _real("rho_snr", rho_snr.item() if isinstance(rho_snr, np.generic) else rho_snr, 0)
    return rho_snr


def _capacities(H: np.ndarray, rho_snrs, normalize: bool) -> np.ndarray:
    """log2 det(I + (rho/P) H H^H) of one matrix at every SNR of rho_snrs, bits/s/Hz.

    The Q x Q product H H^H is formed once and shared by every SNR, so a
    whole SNR curve costs one matrix product plus one small determinant per
    point. normalize first scales H so its squared Frobenius norm is P*Q;
    a matrix whose squared norm is zero, subnormal or infinite in floats is
    first divided by its largest real or imaginary part in magnitude.
    """
    if not np.isfinite(H).all():
        raise ValueError("H must hold only finite entries")
    n_q, n_p = H.shape
    if normalize:
        with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
            fro2 = float(np.sum(H.real**2 + H.imag**2))
        if not sys.float_info.min <= fro2 < math.inf:
            if (largest := float(np.max(np.maximum(np.abs(H.real), np.abs(H.imag))))) == 0.0:
                raise ValueError("all-zero matrix cannot be normalized for capacity")
            H = H / largest
            fro2 = float(np.sum(H.real**2 + H.imag**2))
        H = H * math.sqrt(n_p * n_q / fro2)
    hh = H @ H.conj().T
    eye = np.eye(n_q, dtype=complex)
    out = np.empty(len(rho_snrs))
    for i, rho in enumerate(rho_snrs):
        _, logdet = np.linalg.slogdet(eye + (rho / n_p) * hh)
        out[i] = logdet / math.log(2.0)
    return out


def capacity(realization: ChannelRealization | np.ndarray, rho_snr: float) -> float:
    """Shannon capacity of one matrix, Frobenius-normalized, bits/s/Hz.

    The matrix is scaled so its squared Frobenius norm equals P*Q (P =
    transmit element count = column count); the result is
    log2 det(I + (rho/P) Hbar Hbar^H). Any nonzero complex scaling of H
    leaves the value unchanged.
    """
    H = realization.H if isinstance(realization, ChannelRealization) else np.asarray(realization)
    if H.ndim != 2:
        raise ValueError(f"H must be 2-D, got shape {H.shape}")
    return float(_capacities(H, [_check_snr(rho_snr)], normalize=True)[0])


def mean_capacity(
    cfg: ScenarioConfig,
    model: WavefrontModel,
    rho_snr: float | Sequence[float],
    n_realizations: int = 500,
    *,
    seed: int = 0,
    t: float = 0.0,
    normalize_each: bool = False,
    phase_draws: int = 1,
) -> float | list[float]:
    """Ensemble-average capacity over independent scatterer fields.

    rho_snr is one linear SNR, giving a float, or a 1-D sequence of them,
    giving one value per SNR. Each field's matrix is built once and every
    SNR point is read from its Q x Q Gram product, so a sequence costs about
    as much as a single SNR; each value equals the scalar call's exactly.

    By default each matrix enters as generated: its entries already have
    unit mean-square by construction, so the ensemble realizes the
    Frobenius normalization in expectation while keeping per-field power
    fluctuations (these shrink as the array grows, which is what capacity
    sweeps across array sizes measure). normalize_each=True instead forces
    the exact per-matrix normalization of capacity().

    phase_draws > 1 averages each field over that many fresh draws of the
    per-ray random phases (geometry fixed, phases redrawn). The expected
    value is unchanged; the estimator variance drops because the
    phase-average of every element's power is exactly one for any field,
    so the phase noise dominating a single draw is integrated out. Draws
    come from a dedicated stream keyed on (seed, field index), keeping
    results deterministic.
    """
    scalar = np.ndim(rho_snr) == 0
    if not scalar and np.ndim(rho_snr) != 1:
        raise ValueError(f"rho_snr must be a number or a 1-D sequence, got shape {np.shape(rho_snr)}")
    rho_snrs = [_check_snr(rho) for rho in ([rho_snr] if scalar else rho_snr)]
    if not rho_snrs:
        raise ValueError("rho_snr must hold at least one SNR")
    phase_draws = _index("phase_draws", phase_draws)

    def one(i: int) -> np.ndarray:
        fld = field_for_realization(cfg, seed, i)
        if phase_draws == 1:
            return _capacities(channel_matrix(t, cfg, model, fld).H, rho_snrs, normalize_each)
        parts = matrix_parts(t, cfg, model, fld)
        rng = np.random.default_rng([seed, i, _PHASE_STREAM])
        # A combine forms the P * N departure phasors once for all its draws; up to N // Q
        # draws per combine keep the (D * Q, P) stack within the P * N elements MATRIX_BUDGET_BYTES allows.
        step = max(1, fld.n_rays // cfg.Q)
        draws = (rng.uniform(-math.pi, math.pi, (min(step, phase_draws - lo), fld.n_rays)) for lo in range(0, phase_draws, step))
        return sum(_capacities(H, rho_snrs, normalize_each) for d in draws for H in combine_parts(parts, d, cfg.K)) / phase_draws

    means = _realization_mean(one, n_realizations)
    return float(means[0]) if scalar else [float(v) for v in means]


# frexp's exponent of the least subnormal, 2**-1074: exact sums count units of 2**(_FREXP_MIN - 53).
_FREXP_MIN = -1073


def _units(x: np.ndarray) -> int:
    """The exact sum of the finite entries of x, in units of 2**(_FREXP_MIN - 53), as one Python integer.

    Each x = m * 2**e with m the 53-bit integer mantissa, split into 26-bit halves whose sums per
    binary exponent (np.bincount) stay integers below 2**53 for fewer than 2**26 entries at a time;
    x goes _CIS_CHUNK entries at a time, so no frexp buffer holds a large x whole.
    """
    units = 0
    for lo in range(0, x.size, _CIS_CHUNK):
        part = x[lo:lo + _CIS_CHUNK]
        m, e = np.frexp(part, out=(np.empty(part.shape), np.empty(part.shape, np.intp)))
        m *= 2.0**27  # x = m * 2**(e - 27) = (hi * 2**26 + low) * 2**(e - 53) with integers hi, low
        hi = np.floor(m)
        low = np.multiply(np.subtract(m, hi, out=m), 2.0**26, out=m)
        e_min = int(e.min())
        e -= e_min
        total = 0
        for k, (h, l) in enumerate(zip(np.bincount(e, hi).tolist(), np.bincount(e, low).tolist())):
            total += ((int(h) << 26) + int(l)) << k
        units += total << (e_min - _FREXP_MIN)
    return units


def _exact_sum(chunks) -> float:
    """The exactly rounded sum of the entries of an iterable of arrays of finite terms, as math.fsum gives it.

    The terms go to one integer (_units), rounded once at the end, so the sum depends on the values alone,
    not on how they are split; a sum beyond the float range is a ValueError. No array is kept once summed.
    """
    units = sum(map(_units, map(np.ravel, chunks)))
    try:
        return units / (1 << (53 - _FREXP_MIN))
    except OverflowError:
        raise ValueError("the sum of the model-error terms lies beyond the float range") from None


def _error_terms(region: np.ndarray, h_ref: np.ndarray, label: str) -> np.ndarray:
    """|h - h_ref| / |h_ref| of a group region of _matrix_groups, which it overwrites, against h_ref.

    A non-finite term, such as one against a zero or tiny reference entry, is a ValueError naming label.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.abs(np.subtract(region, h_ref, out=region))  # the next group refills region
        terms /= np.abs(h_ref)
    if not np.isfinite(terms).all():
        raise ValueError(
            f"the model error of {label} is not finite: a term |h - h_ref| / |h_ref| divides by a zero or"
            " tiny reference entry, or an entry is not finite"
        )
    return terms


def model_error_delta(
    model: WavefrontModel | Sequence[WavefrontModel],
    t: float,
    cfg: ScenarioConfig,
    field: ScattererField,
) -> float | list[float]:
    """Aggregate dB error of a model's matrix against the per-element reference.

    Sums |h - h_ref| / |h_ref| over all antenna pairs with the identical
    scatterer field and phases for both models, then takes 10*log10. A
    model that matches the reference exactly yields -inf, returned as a
    sentinel rather than raised; a 1x1 tiling, whose matrix is the
    reference bit for bit, gets it without a sum.

    model may also be a sequence of models, giving one error per model. The
    reference matrix is built once, when the first model that is not a 1x1
    tiling needs it; each such model is reduced against it group by group
    as channel._matrix_groups finishes its rows, so no model matrix exists
    whole, and each group's terms go to one exactly rounded sum. A non-finite term (a zero or tiny reference
    entry) or a sum beyond the float range is a ValueError.
    """
    t = _real("t", t, 0)  # checked here, since 1x1 tilings alone build no matrix that would check it
    single = isinstance(model, WavefrontModel)
    models = [model] if single else list(model)
    if not models:
        raise ValueError("at least one model is required")
    if any(m.variant == "spherical" for m in models):
        raise ValueError("the per-element (spherical) model is the error reference itself")
    ref, errors = None, []
    for m in models:
        partition = m.partition_for(cfg)
        if partition.p_max_h == partition.p_max_v == 1:  # its matrix is the reference, bit for bit
            errors.append(float("-inf"))
            continue
        if ref is None:
            ref = channel_matrix(t, cfg, WavefrontModel.spherical(), field).H.reshape(cfg.Q, cfg.P_v, cfg.P_h)
        groups = _matrix_groups(matrix_parts(t, cfg, m, field), field.phases(), cfg.K)
        total = _exact_sum(_error_terms(h, ref[rows, v0:v0 + h.shape[1]], m.label) for rows, v0, h in groups)
        errors.append(float("-inf") if total == 0.0 else 10.0 * math.log10(total))
    return errors[0] if single else errors
