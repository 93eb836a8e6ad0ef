"""Correlation statistics, capacity, model error, and operation counts."""

import math
from pathlib import Path

import numpy as np
import pytest

from nfmimo.channel import (
    _CIS_CHUNK,
    WavefrontModel,
    channel_matrix,
    combine_parts,
    los_phase,
    matrix_parts,
    nlos_delays,
    nlos_ray_phases,
)
from nfmimo.geometry import ScenarioConfig
from nfmimo.scattering import field_for_realization
from nfmimo.stats import (
    _PHASE_STREAM,
    RO_LOS_PER_ANGLE_SET,
    RO_NLOS_PER_ANGLE_SET,
    RO_PER_ANGLE_SET,
    CorrelationSeries,
    _capacities,
    _error_terms,
    _exact_sum,
    capacity,
    frequency_cf,
    frequency_cf_series,
    mean_capacity,
    model_error_delta,
    ro_complexity,
    spatial_ccf_series,
    st_ccf,
    st_ccf_parts,
    temporal_acf,
    temporal_acf_series,
)
from test_channel import MEMORY_MODELS, memory_scenario, traced_peak, transient_bound

SPHERICAL = WavefrontModel.spherical()
PLANAR = WavefrontModel.planar()

# 64x64 transmit panel, Q=4, 0.03 m spacings, broadside panels, tilted MR
LARGE_CFG = ScenarioConfig(
    P_h=64,
    P_v=64,
    Q=4,
    delta_T=0.03,
    delta_R=0.03,
    psi_T=math.pi / 2,
    psi_R=math.pi / 2,
    theta_R=math.pi / 3,
)


# ---------------------------------------------------------------------------
# Space-time cross-correlation


def test_st_ccf_zero_lag_is_one():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, K=1.3)
    v = st_ccf((0, 0), 0, 0.0, 0.0, cfg, SPHERICAL, 3, seed=5)
    assert v == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_st_ccf_magnitude_bounded():
    cfg = ScenarioConfig(P_h=4, P_v=4, Q=2, K=0.8, L_clusters=2, N_rays=4)
    rng = np.random.default_rng(0)
    for _ in range(60):
        dp = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        dq = int(rng.integers(0, 2))
        dt = float(rng.uniform(0, 0.2))
        v = st_ccf(dp, dq, dt, 0.0, cfg, SPHERICAL, 2, seed=int(rng.integers(100)))
        assert abs(v) <= 1.0 + 1e-9


def test_st_ccf_single_ray_closed_form():
    # one cluster, one ray, one realization: the scattered correlation is a
    # single deterministic conjugate phasor product
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, K=0.0, L_clusters=1, N_rays=1)
    field = field_for_realization(cfg, 3, 0)
    got = st_ccf((1, 0), 1, 0.05, 0.0, cfg, SPHERICAL, 1, seed=3)
    ph1 = nlos_ray_phases((1, 1), 1, 0.0, cfg, SPHERICAL, field)
    ph2 = nlos_ray_phases((2, 1), 2, 0.05, cfg, SPHERICAL, field)
    oracle = complex(np.exp(1j * (ph1[0] - ph2[0])))
    assert abs(got - oracle) < 1e-10


def test_st_ccf_los_only_static_is_unit():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=1e15, v_R=0.0)
    v = temporal_acf(0.3, 0.0, cfg, SPHERICAL, 2, seed=1)
    assert abs(v) == pytest.approx(1.0, abs=1e-9)


def test_temporal_acf_los_only_matches_phase_difference():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, K=1e15, v_R=20.0)
    dt = 0.013
    v = temporal_acf(dt, 0.0, cfg, SPHERICAL, 2, seed=1)
    oracle = np.exp(
        1j * (los_phase((1, 1), 1, 0.0, cfg, SPHERICAL) - los_phase((1, 1), 1, dt, cfg, SPHERICAL))
    )
    assert abs(v - complex(oracle)) < 1e-9


def test_st_ccf_rician_decomposition():
    # the correlation is an exact K-weighted blend of the direct-only and
    # scattered-only correlations, each computed in a separate call
    import dataclasses

    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2, K=2.5, L_clusters=2, N_rays=3)
    args = ((1, 1), 1, 0.02, 0.0)
    kw = dict(seed=9)
    mixed = st_ccf(*args, cfg, SPHERICAL, 5, **kw)
    los_only = st_ccf(*args, dataclasses.replace(cfg, K=1e18), SPHERICAL, 5, **kw)
    nlos_only = st_ccf(*args, dataclasses.replace(cfg, K=0.0), SPHERICAL, 5, **kw)
    K = cfg.K
    blended = (K / (K + 1)) * los_only + (1 / (K + 1)) * nlos_only
    assert abs(mixed - blended) < 1e-12


def test_st_ccf_parts_consistency():
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2, K=1.7)
    rho_los, rho_nlos, n_exc = st_ccf_parts((2, 1), 1, 0.01, 0.0, cfg, SPHERICAL, 4, seed=2)
    assert n_exc == 0
    combined = st_ccf((2, 1), 1, 0.01, 0.0, cfg, SPHERICAL, 4, seed=2)
    K = cfg.K
    assert abs(combined - ((K / (K + 1)) * rho_los + (1 / (K + 1)) * rho_nlos)) < 1e-14
    assert abs(rho_los) == pytest.approx(1.0, abs=1e-12)


def test_st_ccf_offset_validation():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    with pytest.raises(ValueError):
        st_ccf((2, 0), 0, 0.0, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError):
        st_ccf((0, 0), 1, 0.0, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError):
        st_ccf((0, 0), 0, 0.0, 0.0, cfg, SPHERICAL, 0)


# ---------------------------------------------------------------------------
# Frequency correlation


def test_frequency_cf_zero_offset_is_one():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=0.9)
    assert frequency_cf(0.0, 0.0, cfg, SPHERICAL, 3, seed=0) == pytest.approx(
        1.0 + 0.0j, abs=1e-12
    )


def test_frequency_cf_two_ray_closed_form():
    # two scattered rays, one realization: |rho(df)| = |cos(pi df dtau)|
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=0.0, L_clusters=2, N_rays=1)
    field = field_for_realization(cfg, 7, 0)
    delays = nlos_delays(0.0, cfg, field)
    dtau = float(delays[1] - delays[0])
    for df in (0.0, 1e5, 7.3e5, 2e6, 5e6):
        rho = frequency_cf(df, 0.0, cfg, SPHERICAL, 1, seed=7)
        assert abs(abs(rho) - abs(math.cos(math.pi * df * dtau))) < 1e-9


def test_frequency_cf_validation():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    with pytest.raises(ValueError):
        frequency_cf(-1.0, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError):
        frequency_cf(1e5, 0.0, cfg, SPHERICAL, 0)


# ---------------------------------------------------------------------------
# Series builders


def test_spatial_series_matches_scalar():
    cfg = ScenarioConfig(P_h=4, P_v=2, Q=2, K=1.1)
    offsets = [(0, 0), (1, 0), (2, 0), (3, 1)]
    series = spatial_ccf_series(offsets, 1, 0.01, 0.0, cfg, SPHERICAL, 4, seed=6)
    assert series.axis_name == "spacing_wavelengths"
    lam = cfg.wavelength
    for j, dp in enumerate(offsets):
        scalar = st_ccf(dp, 1, 0.01, 0.0, cfg, SPHERICAL, 4, seed=6)
        assert abs(series.values[j] - scalar) < 1e-12
        expected_axis = math.hypot(dp[0] * cfg.delta_T, dp[1] * cfg.delta_T) / lam
        assert series.lag_axis[j] == pytest.approx(expected_axis, abs=1e-15)


def test_temporal_series_matches_scalar():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=0.5)
    dts = [0.0, 0.01, 0.05]
    series = temporal_acf_series(dts, 0.0, cfg, SPHERICAL, 3, seed=8)
    assert series.axis_name == "dt_s"
    for j, dt in enumerate(dts):
        scalar = temporal_acf(dt, 0.0, cfg, SPHERICAL, 3, seed=8)
        assert abs(series.values[j] - scalar) < 1e-12
    assert abs(series.values[0] - 1.0) < 1e-12


def test_frequency_series_matches_scalar():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=2.0)
    dfs = [0.0, 2e5, 1e6]
    series = frequency_cf_series(dfs, 0.0, cfg, SPHERICAL, 3, seed=4)
    assert series.axis_name == "df_hz"
    for j, df in enumerate(dfs):
        scalar = frequency_cf(df, 0.0, cfg, SPHERICAL, 3, seed=4)
        assert abs(series.values[j] - scalar) < 1e-12


CCF_CFG = ScenarioConfig(P_h=8, P_v=8, Q=2, K=0.7, L_clusters=2, N_rays=5)


def _per_lag_ccf(points, cfg, model, n_realizations, seed):
    """Reference: Rician-weighted correlation of points[0] with each later point, one lag at a time."""
    w_los, w_nlos = math.sqrt(cfg.K / (cfg.K + 1.0)), math.sqrt(1.0 / (cfg.K + 1.0))
    base = points[0]
    out = []
    for pt in points[1:]:
        los = np.exp(1j * (los_phase(*base, cfg, model) - los_phase(*pt, cfg, model)))
        nlos = 0.0
        for i in range(n_realizations):
            fld = field_for_realization(cfg, seed, i)
            diff = nlos_ray_phases(*base, cfg, model, fld) - nlos_ray_phases(*pt, cfg, model, fld)
            nlos += np.exp(1j * diff).mean()
        out.append(w_los**2 * los + w_nlos**2 * nlos / n_realizations)
    return np.array(out)


@pytest.mark.parametrize("label", ["spherical", "subarray:4x4", "planar"])
def test_series_match_per_lag_loop(label):
    model = WavefrontModel.parse(label)
    dts = [0.0, 0.01, 0.03]
    acf = temporal_acf_series(dts, 0.1, CCF_CFG, model, 3, seed=4)
    ref = _per_lag_ccf([((1, 1), 1, 0.1)] + [((1, 1), 1, 0.1 + dt) for dt in dts], CCF_CFG, model, 3, 4)
    assert np.max(np.abs(acf.values - ref)) < 1e-12

    offsets = [(0, 0), (1, 0), (2, 1), (4, 3)]
    ccf = spatial_ccf_series(offsets, 1, 0.01, 0.0, CCF_CFG, model, 3, seed=4, base_p=(3, 2))
    points = [((3, 2), 1, 0.0)] + [((3 + dh, 2 + dv), 2, 0.01) for dh, dv in offsets]
    ref = _per_lag_ccf(points, CCF_CFG, model, 3, 4)
    assert np.max(np.abs(ccf.values - ref)) < 1e-12


# Axis points in one run of the correlation reduction for CCF_CFG (10 rays), and an axis of three runs.
CCF_RUN = _CIS_CHUNK // (CCF_CFG.L_clusters * CCF_CFG.N_rays)
LONG_LAGS = list(np.linspace(0.0, 0.05, 2 * CCF_RUN + 7))


@pytest.mark.parametrize("label", ["spherical", "subarray:2x2", "planar"])
def test_long_axis_values_equal_one_lag_series_bit_for_bit(label):
    # The axis is reduced in runs of CCF_RUN points; a value must not depend on its run or its neighbours.
    model = WavefrontModel.parse(label)
    acf = temporal_acf_series(LONG_LAGS, 0.1, CCF_CFG, model, 2, seed=3).values
    dfs = [lag * 4e8 for lag in LONG_LAGS]
    fcf = frequency_cf_series(dfs, 0.1, CCF_CFG, model, 2, seed=3).values
    for k in (0, CCF_RUN - 1, CCF_RUN, 2 * CCF_RUN + 1, len(LONG_LAGS) - 1):
        assert acf[k] == temporal_acf_series([LONG_LAGS[k]], 0.1, CCF_CFG, model, 2, seed=3).values[0]
        assert fcf[k] == frequency_cf_series([dfs[k]], 0.1, CCF_CFG, model, 2, seed=3).values[0]


def test_correlation_memory_does_not_grow_with_the_axis_or_the_realizations(tmp_path, capsys):
    # A field's phasors are formed one run of axis points at a time, and each realization's
    # result is added as it arrives: the peak is a few MiB, whatever the axis length or realization count.
    import tracemalloc

    from nfmimo.cli import main

    cfg, dfs = ScenarioConfig(), list(np.linspace(0.0, 2e7, 2000))
    frequency_cf_series(dfs[:2], 0.0, cfg, SPHERICAL, 1, seed=2)  # one-time allocations stay out of the peaks
    peaks = {}
    tracemalloc.start()
    try:
        for n in (5, 40):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            frequency_cf_series(dfs, 0.0, cfg, SPHERICAL, n, seed=2)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        for kind in ("temporal-acf", "frequency-cf"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main([kind, "--points", "20000", "--realizations", "1", "--out", str(tmp_path / kind)]) == 0
            peaks[kind] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    mib = {key: round(v / 2**20, 2) for key, v in peaks.items()}
    assert abs(peaks[40] - peaks[5]) <= 0.25 * 2**20, mib
    assert peaks["temporal-acf"] <= 16 * 2**20, mib
    assert peaks["frequency-cf"] <= 8 * 2**20, mib


def test_series_validation():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    with pytest.raises(ValueError):
        spatial_ccf_series([], 0, 0.0, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError):
        temporal_acf_series([-0.1], 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError):
        frequency_cf_series([-1e5], 0.0, cfg, SPHERICAL, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_name_a_non_finite_lag(bad):
    # A NaN lag used to be refused as a receiver moved beyond the float range, or as an overflowing delay phase.
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    with pytest.raises(ValueError, match=r"^dts must be finite and >= 0, got"):
        temporal_acf_series([0.0, bad], 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError, match=r"^dfs must be finite and >= 0, got"):
        frequency_cf_series([0.0, bad], 0.0, cfg, SPHERICAL, 1)



def test_series_name_the_lag_that_takes_the_receiver_out_of_range():
    # Used to be refused as "the direct path at t = 1e+300 s has no finite length", naming t + dt.
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    beyond = r" = 1e\+300 s takes the receiver from t = 0.0 s beyond a finite direct path"
    with pytest.raises(ValueError, match=r"^max\(dts\)" + beyond):
        temporal_acf_series([0.0, 1e300], 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError, match=r"^dt" + beyond):
        spatial_ccf_series([(1, 0)], 0, 1e300, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError, match=r"^dt" + beyond):
        temporal_acf(1e300, 0.0, cfg, SPHERICAL, 1)
    with pytest.raises(ValueError, match=r"^the direct path at t = 1e\+300 s has no finite length"):
        temporal_acf_series([0.0, 1.0], 1e300, cfg, SPHERICAL, 1)

def test_series_csv_format(tmp_path):
    series = CorrelationSeries(
        axis_name="x",
        lag_axis=np.array([0.0, 1.0]),
        values=np.array([1.0 + 0.0j, float("-inf") + 0.0j]),
        t=0.0,
        model_label="planar",
        n_realizations=7,
        seed=3,
    )
    path = tmp_path / "s.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im,magnitude,n_realizations,seed"
    cells = lines[2].split(",")
    assert cells[0] == "1.0"
    assert cells[1] == "-inf"
    assert cells[3] == "inf"
    assert cells[4] == "7" and cells[5] == "3"
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0


def test_series_length_validation():
    with pytest.raises(ValueError):
        CorrelationSeries(
            axis_name="x",
            lag_axis=np.array([0.0, 1.0]),
            values=np.array([1.0 + 0.0j]),
            t=0.0,
            model_label="planar",
            n_realizations=1,
            seed=0,
        )
    with pytest.raises(ValueError):
        CorrelationSeries(
            axis_name="x",
            lag_axis=np.array([]),
            values=np.array([]),
            t=0.0,
            model_label="planar",
            n_realizations=1,
            seed=0,
        )


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_CFG = ScenarioConfig(P_h=8, P_v=8, Q=2, L_clusters=2, N_rays=5)


@pytest.mark.parametrize("label", ["spherical", "subarray:4x4"])
@pytest.mark.parametrize(
    "kind, compute",
    [
        ("temporal_acf", lambda m: temporal_acf_series([0.0, 0.001, 0.004, 0.02], 0.1, GOLDEN_CFG, m, 4, seed=3)),
        (
            "spatial_ccf",
            lambda m: spatial_ccf_series([(0, 0), (1, 0), (0, 2), (3, 3)], 1, 0.002, 0.1, GOLDEN_CFG, m, 4, seed=3),
        ),
        ("frequency_cf", lambda m: frequency_cf_series([0.0, 1e6, 5e6, 2e7], 0.1, GOLDEN_CFG, m, 4, seed=3)),
    ],
)
def test_series_golden(label, kind, compute):
    # Recorded before the departure phasors were factored per tile: config
    # GOLDEN_CFG, 4 realizations, seed 3, written by CorrelationSeries.to_csv.
    series = compute(WavefrontModel.parse(label))
    rows = np.loadtxt(GOLDEN_DIR / f"{kind}_{label.replace(':', '_')}_small.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(series.lag_axis, rows[:, 0])
    np.testing.assert_allclose(series.values, rows[:, 1] + 1j * rows[:, 2], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Capacity


def test_capacity_zero_snr_is_zero():
    rng = np.random.default_rng(1)
    H = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    assert capacity(H, 0.0) == 0.0


def test_capacity_single_receive_closed_form():
    # Q=1: normalization forces |Hbar|^2 = P, so C = log2(1 + rho)
    rng = np.random.default_rng(0)
    H = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
    for rho in (0.0, 1.0, 10.0, 100.0):
        assert abs(capacity(H, rho) - math.log2(1 + rho)) < 1e-9


def test_capacity_scale_invariance():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    # 1e200 and 1e-200 overflow and underflow the squared Frobenius norm.
    for scale in (3 - 4j, 1e200, 1e-200):
        assert abs(capacity(H, 10.0) - capacity(H * scale, 10.0)) < 1e-9


def test_capacity_monotone_in_snr():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    values = [capacity(H, rho) for rho in (0.0, 0.5, 1.0, 5.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_capacity_eigenvalue_oracle():
    # independent evaluation through the Gram spectrum
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_q = int(rng.integers(1, 4))
        n_p = int(rng.integers(n_q, 9))
        H = rng.normal(size=(n_q, n_p)) + 1j * rng.normal(size=(n_q, n_p))
        rho = float(rng.uniform(0.1, 50))
        h_bar = H * math.sqrt(n_p * n_q / np.sum(np.abs(H) ** 2))
        lam = np.linalg.eigvalsh(h_bar @ h_bar.conj().T)
        oracle = float(np.sum(np.log2(1 + rho / n_p * np.clip(lam, 0, None))))
        assert abs(capacity(H, rho) - oracle) < 1e-9


def test_capacity_orthogonal_rows():
    # two orthogonal equal-norm rows: C = 2 log2(1 + rho)
    H = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], dtype=complex)
    for rho in (1.0, 10.0, 100.0):
        assert abs(capacity(H, rho) - 2 * math.log2(1 + rho)) < 1e-9


def test_capacity_validation():
    with pytest.raises(ValueError):
        capacity(np.zeros((2, 3), dtype=complex), 1.0)
    with pytest.raises(ValueError):
        capacity(np.ones(4, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        capacity(np.ones((2, 2), dtype=complex), -1.0)
    with pytest.raises(ValueError):
        capacity(np.ones((2, 2), dtype=complex), float("inf"))
    for bad in ([[math.nan, 1.0]], [[math.inf, 1.0]], [[1.0, complex(0.0, -math.inf)]]):
        with pytest.raises(ValueError, match="H must hold only finite entries"):
            capacity(bad, 1.0)
    # One entry far above or below the others: the squared norm overflows or underflows, the capacity is log2(2).
    assert capacity([[1e200, 1.0]], 1.0) == capacity([[1.0, 1e-200]], 1.0) == 1.0
    assert capacity([[1e-200, 1e-200]], 1.0) == 1.0
    # A bool is not an SNR, although it subclasses int; numpy scalars are judged by their Python value.
    tiny = ScenarioConfig(P_h=2, P_v=2, Q=1, L_clusters=1, N_rays=2)
    for snr in (True, [10.0, False], np.array([1, 0], dtype=bool)):
        with pytest.raises(ValueError, match="rho_snr"):
            mean_capacity(tiny, SPHERICAL, snr, 1)
    assert mean_capacity(tiny, SPHERICAL, np.array([1, 10]), 1) == mean_capacity(tiny, SPHERICAL, [1.0, 10.0], 1)
    with pytest.raises(ValueError, match="rho_snr"):
        capacity(np.ones((2, 2), dtype=complex), True)


def test_mean_capacity_deterministic_and_validated():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, L_clusters=2, N_rays=3)
    a = mean_capacity(cfg, SPHERICAL, 10.0, 4, seed=5)
    b = mean_capacity(cfg, SPHERICAL, 10.0, 4, seed=5)
    assert a == b and math.isfinite(a) and a > 0
    with pytest.raises(ValueError):
        mean_capacity(cfg, SPHERICAL, 10.0, 0)
    with pytest.raises(ValueError):
        mean_capacity(cfg, SPHERICAL, -1.0, 2)
    with pytest.raises(ValueError):
        mean_capacity(cfg, SPHERICAL, 10.0, 2, phase_draws=0)


def test_mean_capacity_phase_draws_reduces_variance():
    # the multi-draw estimator has the same target; over a common set of
    # fields the across-field spread shrinks when phases are averaged out
    cfg = ScenarioConfig(P_h=4, P_v=4, Q=1, L_clusters=2, N_rays=5)
    single = [mean_capacity(cfg, SPHERICAL, 50.0, 1, seed=s) for s in range(30)]
    multi = [
        mean_capacity(cfg, SPHERICAL, 50.0, 1, seed=s, phase_draws=12) for s in range(30)
    ]
    assert np.std(multi) < np.std(single)
    assert abs(np.mean(multi) - np.mean(single)) < 3 * np.std(single)


def test_mean_capacity_convergence():
    cfg = ScenarioConfig(P_h=4, P_v=4, Q=2, L_clusters=2, N_rays=5)
    c500 = mean_capacity(cfg, SPHERICAL, 10.0, 500, seed=0)
    c1000 = mean_capacity(cfg, SPHERICAL, 10.0, 1000, seed=0)
    assert abs(c500 - c1000) < 0.02


# ---------------------------------------------------------------------------
# Model error


def test_model_error_reference_is_rejected():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 0, 0)
    with pytest.raises(ValueError):
        model_error_delta(SPHERICAL, 0.0, cfg, field)


def test_model_error_exact_match_is_minus_inf():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 0, 0)
    assert model_error_delta(WavefrontModel.subarray(1, 1), 0.0, cfg, field) == float(
        "-inf"
    )


@pytest.mark.parametrize("t", [-1.0, "x", True, math.nan])
def test_model_error_checks_t_when_no_matrix_is_built(t):
    # 1x1 tilings build no matrix, so -inf came back for any t.
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 0, 0)
    for model in (WavefrontModel.subarray(1, 1), [WavefrontModel.subarray(1, 1)] * 2):
        with pytest.raises(ValueError, match="^t "):
            model_error_delta(model, t, cfg, field)


def test_model_error_ordering_small_array():
    # coarser approximations accumulate more error than finer ones
    cfg = ScenarioConfig(P_h=8, P_v=8, Q=2)
    for s in (0, 1, 2):
        field = field_for_realization(cfg, s, 0)
        d_planar = model_error_delta(PLANAR, 0.0, cfg, field)
        d_coarse = model_error_delta(WavefrontModel.subarray(4, 4), 0.0, cfg, field)
        d_fine = model_error_delta(WavefrontModel.subarray(2, 2), 0.0, cfg, field)
        assert d_planar > d_coarse > d_fine


# ---------------------------------------------------------------------------
# Operation counts


def test_ro_tallies():
    assert RO_LOS_PER_ANGLE_SET == 47
    assert RO_NLOS_PER_ANGLE_SET == 88
    assert RO_PER_ANGLE_SET == 135


def test_ro_complexity_reference_values():
    sph = ro_complexity(SPHERICAL, LARGE_CFG)
    assert sph.ro_total == 2211840
    assert (sph.ro_los_per_pair, sph.ro_nlos_per_pair) == (47, 88)
    sub30 = ro_complexity(WavefrontModel.subarray(30, 30), LARGE_CFG)
    assert sub30.ro_total == 4860
    sub2 = ro_complexity(WavefrontModel.subarray(2, 2), LARGE_CFG)
    assert sub2.ro_total / sph.ro_total == 0.25


def test_ro_complexity_planar_and_unit():
    pla = ro_complexity(PLANAR, LARGE_CFG)
    assert pla.ro_total == LARGE_CFG.Q * RO_PER_ANGLE_SET
    sub1 = ro_complexity(WavefrontModel.subarray(1, 1), LARGE_CFG)
    assert sub1.ro_total == ro_complexity(SPHERICAL, LARGE_CFG).ro_total


def test_ro_complexity_nonincreasing_in_tile_size():
    totals = [
        ro_complexity(WavefrontModel.subarray(p, p), LARGE_CFG).ro_total
        for p in range(1, 65)
    ]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert totals[0] == 2211840


def test_ro_complexity_rejects_oversized_tile():
    with pytest.raises(ValueError):
        ro_complexity(WavefrontModel.subarray(65, 1), LARGE_CFG)


# ---------------------------------------------------------------------------
# Sweep-axis reuse: one matrix per field for every SNR, one reference per field

SWEEP_CFG = ScenarioConfig(P_h=8, P_v=8, Q=2, L_clusters=2, N_rays=5)
SNRS = [0.0, 3.1622776601683795, 1000.0]


@pytest.mark.parametrize("label", ["spherical", "subarray:4x4", "planar"])
@pytest.mark.parametrize("normalize_each", [False, True])
@pytest.mark.parametrize("phase_draws", [1, 3])
def test_mean_capacity_sequence_equals_scalar_calls(label, normalize_each, phase_draws):
    model = WavefrontModel.parse(label)
    kw = dict(seed=2, t=0.01, normalize_each=normalize_each, phase_draws=phase_draws)
    curve = mean_capacity(SWEEP_CFG, model, SNRS, 2, **kw)
    assert curve == [mean_capacity(SWEEP_CFG, model, rho, 2, **kw) for rho in SNRS]
    assert all(type(v) is float for v in curve)
    assert type(mean_capacity(SWEEP_CFG, model, SNRS[1], 2, **kw)) is float


def test_one_block_of_phase_draws_equals_sequential_draws():
    # mean_capacity draws a field's phases as (D, N) blocks instead of D draws of N.
    block = np.random.default_rng([4, 0, _PHASE_STREAM]).uniform(-math.pi, math.pi, (7, 100))
    rng = np.random.default_rng([4, 0, _PHASE_STREAM])
    assert np.array_equal(block, [rng.uniform(-math.pi, math.pi, 100) for _ in range(7)])


@pytest.mark.parametrize("label", ["spherical", "subarray:2x2", "planar"])
def test_mean_capacity_phase_draw_blocks_match_single_draws(label):
    # SWEEP_CFG has N = 10 rays and Q = 2, so 7 draws come in blocks of 5 and 2.
    model, draws = WavefrontModel.parse(label), 7
    total = np.zeros(len(SNRS))
    for i in range(2):
        fld = field_for_realization(SWEEP_CFG, 3, i)
        parts = matrix_parts(0.0, SWEEP_CFG, model, fld)
        rng = np.random.default_rng([3, i, _PHASE_STREAM])
        for _ in range(draws):
            H = combine_parts(parts, rng.uniform(-math.pi, math.pi, fld.n_rays), SWEEP_CFG.K)
            total += _capacities(H, SNRS, False)
    expected = total / draws / 2
    got = mean_capacity(SWEEP_CFG, model, SNRS, 2, seed=3, phase_draws=draws)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_mean_capacity_builds_one_matrix_per_field(monkeypatch):
    import nfmimo.stats as stats

    built = []
    for name in ("channel_matrix", "matrix_parts"):
        original = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda *a, _f=original, _n=name: built.append(_n) or _f(*a))
    mean_capacity(SWEEP_CFG, SPHERICAL, SNRS, 3, seed=1)
    assert built == ["channel_matrix"] * 3
    built.clear()
    mean_capacity(SWEEP_CFG, SPHERICAL, SNRS, 3, seed=1, phase_draws=4)
    assert built == ["matrix_parts"] * 3


def test_mean_capacity_sequence_validation():
    for bad in ([], [1.0, -1.0], [1.0, float("nan")], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="rho_snr"):
            mean_capacity(SWEEP_CFG, SPHERICAL, bad, 1)


def test_model_error_list_equals_single_calls(monkeypatch):
    import nfmimo.stats as stats

    field = field_for_realization(SWEEP_CFG, 4, 0)
    models = [WavefrontModel.subarray(p, p) for p in (2, 1, 3, 8)] + [PLANAR, WavefrontModel.subarray(1, 1)]
    singles = [model_error_delta(m, 0.02, SWEEP_CFG, field) for m in models]
    built = []
    for name in ("channel_matrix", "matrix_parts"):
        original = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda t, c, m, f, _f=original: built.append(m.label) or _f(t, c, m, f))
    errors = model_error_delta(models, 0.02, SWEEP_CFG, field)
    assert errors == singles
    assert errors[1] == errors[5] == float("-inf")
    # The one shared reference comes first, as a matrix; 1x1 tilings reuse it, the others stream their groups.
    assert built == ["spherical", "subarray:2x2", "subarray:3x3", "subarray:8x8", "planar"]


@pytest.mark.parametrize("side", [96, 192])
@pytest.mark.parametrize("model", MEMORY_MODELS[1:], ids=lambda m: m.label)
def test_model_error_holds_a_few_tile_rows_beyond_its_reference(model, side):
    # Neither the model's matrix nor its terms exist whole: past the reference, the call holds what building
    # the reference or a model matrix holds. At 192x192 whole matrices and terms took 2.1 to 3.5 times the bound.
    cfg, field, ref = memory_scenario(side)
    bound = max(transient_bound(cfg, SPHERICAL), transient_bound(cfg, model))
    assert traced_peak(lambda: model_error_delta(model, 0.0, cfg, field)) - ref <= bound


@pytest.mark.parametrize(
    "model", [WavefrontModel.subarray(2, 2), WavefrontModel.subarray(16, 16), PLANAR], ids=lambda m: m.label
)
def test_model_error_does_not_depend_on_the_group_bound(monkeypatch, model):
    import nfmimo.channel as channel

    cfg = ScenarioConfig(P_h=43, P_v=37, Q=2, psi_T=0.7)
    field = field_for_realization(cfg, 3, 1)
    error = model_error_delta(model, 0.2, cfg, field)
    for bound in (1, 777, 100 * cfg.P_h * cfg.P_v):
        monkeypatch.setattr(channel, "_GROUP_PHASORS", bound)
        assert model_error_delta(model, 0.2, cfg, field) == error


def test_model_error_total_is_the_exactly_rounded_sum():
    cfg = ScenarioConfig(P_h=16, P_v=16, Q=2, L_clusters=2, N_rays=5)
    field = field_for_realization(cfg, 6, 0)
    h_ref = channel_matrix(0.0, cfg, SPHERICAL, field).H
    for model in (PLANAR, WavefrontModel.subarray(4, 4), WavefrontModel.subarray(3, 5)):
        terms = (np.abs(channel_matrix(0.0, cfg, model, field).H - h_ref) / np.abs(h_ref)).ravel().tolist()
        assert model_error_delta(model, 0.0, cfg, field) == 10.0 * math.log10(math.fsum(terms))


def test_model_error_of_all_zero_terms_is_the_minus_inf_sentinel():
    assert _exact_sum([np.zeros((2, 64))]).hex() == "0x0.0p+0"
    cfg = ScenarioConfig(P_h=8, P_v=8, Q=2, L_clusters=2, N_rays=5)
    field = field_for_realization(cfg, 6, 0)
    # A 1x1 tiling's matrix is the reference itself, bit for bit.
    assert model_error_delta(WavefrontModel.subarray(1, 1), 0.0, cfg, field) == float("-inf")


def test_exact_sum_overflows_like_fsum():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    with pytest.raises(ValueError, match="beyond the float range"):
        _exact_sum([np.array([1e308]), np.array([1e308])])


@pytest.mark.parametrize(
    "h, h_ref",
    [(1.0, 0.0), (1.0, 5e-324), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
    ids=["zero reference", "tiny reference", "nan entry", "inf entry", "nan reference", "inf reference"],
)
def test_error_terms_refuse_a_non_finite_term_by_label(h, h_ref):
    # One bad entry among finite ones is enough; the error names the model, and numpy warns of nothing.
    region, ref = np.full((2, 3, 4), 0.5 - 0.25j), np.full((2, 3, 4), 0.5 + 0.25j)
    region[1, 2, 3], ref[1, 2, 3] = h, h_ref
    with pytest.raises(ValueError, match=r"^the model error of planar is not finite"):
        _error_terms(region, ref, "planar")


def test_error_terms_are_the_relative_errors_of_finite_entries():
    region, ref = np.array([[[3 + 4j, 1.0]]]), np.array([[[0.0 + 2.5j, 2.0]]])
    expected = np.abs(region - ref) / np.abs(ref)
    assert np.array_equal(_error_terms(region, ref, "planar"), expected)


def test_one_worker_never_loads_concurrent_futures(monkeypatch):
    import subprocess
    import sys

    import nfmimo

    monkeypatch.setenv("PYTHONPATH", str(Path(nfmimo.__file__).resolve().parents[1]))
    code = (
        "import sys; import nfmimo.cli; from nfmimo.stats import _realization_mean; "
        "assert _realization_mean(lambda i: i * i, 3) == (0 + 1 + 4) / 3; "
        "from nfmimo import *; cfg = ScenarioConfig(P_h=4, P_v=4, Q=2, N_rays=3); "
        "temporal_acf_series([0.0, 0.01], 0.0, cfg, WavefrontModel.planar(), 3); "
        "mean_capacity(cfg, WavefrontModel.spherical(), [1.0, 10.0], 3, phase_draws=2); "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "[]\n"


def test_model_error_list_validation():
    field = field_for_realization(SWEEP_CFG, 0, 0)
    with pytest.raises(ValueError, match="reference"):
        model_error_delta([PLANAR, SPHERICAL], 0.0, SWEEP_CFG, field)
    with pytest.raises(ValueError):
        model_error_delta([], 0.0, SWEEP_CFG, field)
