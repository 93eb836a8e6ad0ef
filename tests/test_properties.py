"""Property tests of the paper's invariants over random small scenarios.

Hypothesis draws the array shape, receive count, time, Rice factor and
field seed; every property must hold for each draw. The runs are
derandomized and keep no example database, so every run draws the same
examples.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmimo.channel import WavefrontModel, _cis, channel_matrix
from nfmimo.geometry import ScenarioConfig
from nfmimo.scattering import field_for_realization
from nfmimo.stats import _exact_sum, capacity, spatial_ccf_series, temporal_acf_series

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

scenarios = st.builds(
    ScenarioConfig,
    P_h=st.integers(1, 6),
    P_v=st.integers(1, 6),
    Q=st.integers(1, 3),
    K=st.floats(0.0, 10.0),
    v_R=st.floats(0.0, 30.0),
    eta_R=st.floats(-math.pi, math.pi),
    L_clusters=st.integers(1, 2),
    N_rays=st.integers(1, 3),
)
times = st.floats(0.0, 0.5)
seeds = st.integers(0, 2**32)


def _matrix(cfg, model, seed, t):
    return channel_matrix(t, cfg, model, field_for_realization(cfg, seed, 0)).H


@PROPERTY_SETTINGS
@given(cfg=scenarios, t=times, seed=seeds)
def test_unit_tiling_is_spherical(cfg, t, seed):
    sph = _matrix(cfg, WavefrontModel.spherical(), seed, t)
    unit = _matrix(cfg, WavefrontModel.subarray(1, 1), seed, t)
    assert np.max(np.abs(unit - sph)) <= 1e-12 * np.max(np.abs(sph))


@PROPERTY_SETTINGS
@given(cfg=scenarios, t=times, seed=seeds)
def test_full_array_tile_is_planar(cfg, t, seed):
    planar = _matrix(cfg, WavefrontModel.planar(), seed, t)
    full = _matrix(cfg, WavefrontModel.subarray(cfg.P_h, cfg.P_v), seed, t)
    assert np.max(np.abs(full - planar)) <= 1e-12 * np.max(np.abs(planar))


models = st.sampled_from([WavefrontModel.spherical(), WavefrontModel.planar(), WavefrontModel.subarray(2, 2)])


@PROPERTY_SETTINGS
@given(cfg=scenarios, t=times, seed=seeds, model=models, dts=st.lists(st.floats(0.0, 0.2), max_size=4))
def test_temporal_acf_is_one_at_zero_lag_and_bounded(cfg, t, seed, model, dts):
    if model.variant == "subarray" and (cfg.P_h < 2 or cfg.P_v < 2):
        model = WavefrontModel.planar()
    series = temporal_acf_series([0.0, *dts], t, cfg, model, 2, seed=seed)
    assert abs(series.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(cfg=scenarios, t=times, seed=seeds, model=models, dt=st.floats(0.0, 0.2), data=st.data())
def test_spatial_ccf_is_one_at_zero_offset_and_bounded(cfg, t, seed, model, dt, data):
    if model.variant == "subarray" and (cfg.P_h < 2 or cfg.P_v < 2):
        model = WavefrontModel.planar()
    offsets = [(0, 0)] + [(dh, 0) for dh in range(1, cfg.P_h)]
    series = spatial_ccf_series(offsets, 0, 0.0, t, cfg, model, 2, seed=seed)
    assert abs(series.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)
    # a receive and time offset breaks the zero lag but not the bound
    dq = data.draw(st.integers(0, cfg.Q - 1))
    lagged = spatial_ccf_series(offsets, dq, dt, t, cfg, model, 2, seed=seed)
    assert np.all(np.abs(lagged.values) <= 1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(
    cfg=scenarios,
    seed=seeds,
    snr=st.floats(0.0, 1e3),
    magnitude=st.floats(1e-3, 1e3),
    angle=st.floats(-math.pi, math.pi),
)
def test_capacity_is_invariant_under_complex_scaling(cfg, seed, snr, magnitude, angle):
    H = _matrix(cfg, WavefrontModel.spherical(), seed, 0.0)
    scaled = H * (magnitude * complex(math.cos(angle), math.sin(angle)))
    assert math.isclose(capacity(scaled, snr), capacity(H, snr), rel_tol=1e-9, abs_tol=1e-12)


@PROPERTY_SETTINGS
@given(theta=st.lists(st.floats(-2e5, 2e5, allow_nan=False), min_size=1, max_size=40))
def test_phasor_kernel_matches_numpy_exp(theta):
    theta = np.array(theta)
    assert np.max(np.abs(_cis(theta) - np.exp(1j * theta))) <= 4.5e-16


# Model-error terms are non-negative: exact zeros, subnormals and magnitudes from 1e-300 to 1e300.
error_terms = st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308), st.floats(1e-300, 1e300))


@PROPERTY_SETTINGS
@given(terms=st.lists(error_terms, min_size=1, max_size=300))
def test_exact_sum_is_fsum_bit_for_bit(terms):
    assert _exact_sum([np.array(terms)]).hex() == math.fsum(terms).hex()


@PROPERTY_SETTINGS
@given(term=error_terms)
def test_exact_sum_of_one_element_is_that_element(term):
    assert _exact_sum([np.array([term])]).hex() == term.hex()


@PROPERTY_SETTINGS
@given(terms=st.lists(st.floats(-1e300, 1e300).filter(bool), min_size=1, max_size=60), rows=st.integers(1, 3))
def test_exact_sum_of_signed_terms_in_any_shape_is_fsum(terms, rows):
    x = np.array(terms * rows).reshape(rows, -1)
    assert _exact_sum([x]).hex() == math.fsum(x.ravel().tolist()).hex()


# Finite terms of a running sum: non-negative ones up to the float range's end, so that sums overflow, or
# signed ones far from it.
non_negative_terms = st.lists(
    st.one_of(error_terms, st.floats(1e307, sys.float_info.max), st.just(sys.float_info.max)), max_size=40
)
signed_terms = st.lists(st.floats(-1e300, 1e300), max_size=40)


def _outcome(sum_of, terms, overflow):
    """The hex of sum_of(terms), or "overflow" when it raises the error type overflow."""
    try:
        return sum_of(terms).hex()
    except overflow:
        return "overflow"


@PROPERTY_SETTINGS
@given(terms=st.one_of(non_negative_terms, signed_terms), data=st.data())
def test_running_exact_sum_of_any_split_is_fsum(terms, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    chunks = [np.array(terms[lo:hi], dtype=float) for lo, hi in zip([0, *cuts], [*cuts, len(terms)])]
    assert _outcome(_exact_sum, chunks, ValueError) == _outcome(math.fsum, terms, OverflowError)
