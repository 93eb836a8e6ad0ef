"""Channel coefficients: phasor assembly, model identities, exports.

The direct-path and scattered-path coefficients are checked against
brute-force oracles implemented here from the defining geometry (element
positions, angle conventions, phase terms written out one by one), so the
library's factored evaluation is validated independently.
"""

import csv
import dataclasses
import math
import os
import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import nfmimo.channel as channel_module
from nfmimo.channel import (
    BANDWIDTH_HZ,
    ChannelRealization,
    WavefrontModel,
    _CIS_CHUNK,
    _cis,
    _departure_blocks,
    _direct_phasors,
    _gains,
    _pieces,
    _receive,
    _receivers,
    channel_matrix,
    cir_los,
    cir_nlos,
    cir_total,
    combine_parts,
    los_phase,
    matrix_parts,
    nlos_delays,
    nlos_ray_phases,
    point_phases,
    rician_weights,
    tau_los,
    transfer_function,
)
from nfmimo.geometry import ScenarioConfig, Vec3, make_partition, mr_element_position, subarray_center
from nfmimo.scattering import Ray, ScattererField, field_for_realization
from test_precision import mp, reference_direct_phase

SPHERICAL = WavefrontModel.spherical()
PLANAR = WavefrontModel.planar()


def wrap_angle(a):
    """Wrap a radian angle into (-pi, pi]."""
    w = math.fmod(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    elif w > math.pi:
        w -= 2.0 * math.pi
    return w


def test_wrap_angle_range_and_endpoint():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(float(x))
        assert -math.pi < w <= math.pi


def unit_center(p_h, p_v, cfg):
    """Element position: center of its 1x1 subarray, written out directly."""
    off = (p_h - 0.5 - 0.5 * cfg.P_h) * cfg.delta_T
    return (
        off * math.cos(cfg.psi_T),
        off * math.sin(cfg.psi_T),
        cfg.H_0 + (p_v - 0.5) * cfg.delta_T,
    )


def tile_center(p_h, p_v, cfg, tile):
    """Midpoint of the (p_max_h, p_max_v) = tile subarray holding element (p_h, p_v).

    The documented subarray_center formula: tile (sh, sv) spans p_max
    elements per axis except a smaller trailing one, its horizontal offset
    is ((sh-1) p_max_h + size_h/2 - P_h/2) delta_T along psi_T and its
    height H_0 + ((sv-1) p_max_v + size_v/2) delta_T.
    """
    (p_max_h, p_max_v), (n_h, n_v) = tile, (cfg.P_h, cfg.P_v)
    sh, sv = (p_h - 1) // p_max_h + 1, (p_v - 1) // p_max_v + 1
    size_h = min(p_max_h, n_h - (sh - 1) * p_max_h)
    size_v = min(p_max_v, n_v - (sv - 1) * p_max_v)
    off = ((sh - 1) * p_max_h + 0.5 * size_h - 0.5 * n_h) * cfg.delta_T
    return (
        off * math.cos(cfg.psi_T),
        off * math.sin(cfg.psi_T),
        cfg.H_0 + ((sv - 1) * p_max_v + 0.5 * size_v) * cfg.delta_T,
    )


def brute_force_los_phase(p_h, p_v, q, t, cfg, tile=(1, 1)):
    """Term-by-term direct-path phase accumulation from the raw geometry.

    Departure angles are taken at the midpoint of the element's tile (its
    own position for the default 1x1 tile).
    """
    lam = cfg.wavelength
    two_pi = 2 * math.pi
    k_ph = (cfg.P_h - 2 * p_h + 1) / 2
    k_pv = (cfg.P_v - 2 * p_v + 1) / 2
    k_q = (cfg.Q - 2 * q + 1) / 2

    # midpoints for the bulk distance
    mid_t = (0.0, 0.0, cfg.H_0 + 0.5 * cfg.P_v * cfg.delta_T)
    mid_r = (
        cfg.D_0 + cfg.v_R * t * math.cos(cfg.eta_R),
        cfg.v_R * t * math.sin(cfg.eta_R),
        0.0,
    )
    xi = math.dist(mid_t, mid_r)

    # departure angles at the element's tile midpoint toward receive element q
    ex, ey, ez = tile_center(p_h, p_v, cfg, tile)
    kq_dr = k_q * cfg.delta_R
    dq = (
        cfg.D_0
        + kq_dr * math.cos(cfg.psi_R) * math.cos(cfg.theta_R)
        + cfg.v_R * t * math.cos(cfg.eta_R),
        kq_dr * math.sin(cfg.psi_R) * math.cos(cfg.theta_R)
        + cfg.v_R * t * math.sin(cfg.eta_R),
        kq_dr * math.sin(cfg.theta_R),
    )
    horiz = math.hypot(dq[0] - ex, dq[1] - ey)
    alpha_t = math.atan2(dq[1] - ey, dq[0] - ex)
    beta_t = math.atan2(ez - dq[2], horiz)
    alpha_r = wrap_angle(math.pi - alpha_t)
    beta_r = beta_t

    phase = -two_pi / lam * xi
    phase += two_pi / lam * k_ph * cfg.delta_T * math.cos(alpha_t - cfg.psi_T) * math.cos(beta_t)
    phase += two_pi / lam * k_pv * cfg.delta_T * math.sin(beta_t)
    phase += (
        two_pi / lam * k_q * cfg.delta_R
        * math.cos(alpha_r - cfg.psi_R) * math.cos(beta_r) * math.cos(cfg.theta_R)
    )
    phase += two_pi / lam * k_q * cfg.delta_R * math.sin(beta_r) * math.sin(cfg.theta_R)
    phase += two_pi / lam * cfg.v_R * t * math.cos(alpha_r - cfg.eta_R) * math.cos(beta_r)
    return phase


def brute_force_ray_phase(p_h, p_v, q, t, cfg, ray_pos, tile=(1, 1)):
    """Scattered-path deterministic phase for one ray, from raw geometry.

    Departure angles are taken at the midpoint of the element's tile.
    """
    lam = cfg.wavelength
    two_pi = 2 * math.pi
    k_ph = (cfg.P_h - 2 * p_h + 1) / 2
    k_pv = (cfg.P_v - 2 * p_v + 1) / 2
    k_q = (cfg.Q - 2 * q + 1) / 2
    sx, sy, sz = ray_pos

    mid_t = (0.0, 0.0, cfg.H_0 + 0.5 * cfg.P_v * cfg.delta_T)
    mid_r = (
        cfg.D_0 + cfg.v_R * t * math.cos(cfg.eta_R),
        cfg.v_R * t * math.sin(cfg.eta_R),
        0.0,
    )
    xi = math.dist(mid_t, (sx, sy, sz)) + math.dist((sx, sy, sz), mid_r)

    # departure angles at the element's tile midpoint toward the scatterer
    ex, ey, ez = tile_center(p_h, p_v, cfg, tile)
    horiz_t = math.hypot(sx - ex, sy - ey)
    alpha_t = math.atan2(sy - ey, sx - ex)
    beta_t = math.atan2(sz - ez, horiz_t)

    # arrival angles at receive element q from the scatterer
    kq_dr = k_q * cfg.delta_R
    dq = (
        cfg.D_0
        + kq_dr * math.cos(cfg.psi_R) * math.cos(cfg.theta_R)
        + cfg.v_R * t * math.cos(cfg.eta_R),
        kq_dr * math.sin(cfg.psi_R) * math.cos(cfg.theta_R)
        + cfg.v_R * t * math.sin(cfg.eta_R),
        kq_dr * math.sin(cfg.theta_R),
    )
    horiz_r = math.hypot(sx - dq[0], sy - dq[1])
    alpha_r = math.atan2(sy - dq[1], sx - dq[0])
    beta_r = math.atan2(sz - dq[2], horiz_r)

    phase = -two_pi / lam * xi
    phase += two_pi / lam * k_ph * cfg.delta_T * math.cos(alpha_t - cfg.psi_T) * math.cos(beta_t)
    phase += two_pi / lam * k_pv * cfg.delta_T * math.sin(beta_t)
    phase += (
        two_pi / lam * k_q * cfg.delta_R
        * math.cos(alpha_r - cfg.psi_R) * math.cos(beta_r) * math.cos(cfg.theta_R)
    )
    phase += two_pi / lam * k_q * cfg.delta_R * math.sin(beta_r) * math.sin(cfg.theta_R)
    phase += two_pi / lam * cfg.v_R * t * math.cos(alpha_r - cfg.eta_R) * math.cos(beta_r)
    return phase


def two_ray_field(pos_a, pos_b, phase_a=0.5, phase_b=-1.2):
    return ScattererField(
        clusters=(
            (Ray(position=Vec3(*pos_a), phase=phase_a),),
            (Ray(position=Vec3(*pos_b), phase=phase_b),),
        ),
        seed=None,
    )


# ---------------------------------------------------------------------------
# WavefrontModel


def test_model_parse_and_labels():
    assert WavefrontModel.parse("spherical").variant == "spherical"
    assert WavefrontModel.parse("planar").variant == "planar"
    m = WavefrontModel.parse("subarray:4x8")
    assert (m.p_max_h, m.p_max_v) == (4, 8)
    assert m.label == "subarray:4x8"
    assert WavefrontModel.parse(m.label) == m
    assert WavefrontModel.parse(" Subarray:4x8 ") == m
    # int() reads these as 20x3 and 4x4; a tile size is ASCII digits only.
    signs_and_spaces = ("subarray:2_0x3", "subarray:+4x4", "subarray: 4x 4", "subarray:4x-4", "subarray:\u0664x4")
    for bad in ("subarray", "subarray:4", "subarray:0x2", "cubic", "subarray:axb", *signs_and_spaces):
        with pytest.raises(ValueError):
            WavefrontModel.parse(bad)


@pytest.mark.parametrize("sizes, name", [((True, True), "p_max_h"), ((2, False), "p_max_v")])
def test_model_rejects_bool_tile_sizes(sizes, name):
    # subarray(True, True) used to run as a 1x1 tiling labelled subarray:TruexTrue.
    with pytest.raises(ValueError, match=name):
        WavefrontModel.subarray(*sizes)


def test_model_partition_validation():
    cfg = ScenarioConfig(P_h=4, P_v=4)
    with pytest.raises(ValueError):
        WavefrontModel.subarray(5, 1).partition_for(cfg)
    part = WavefrontModel.subarray(4, 4).partition_for(cfg)
    assert part.counts_h == part.counts_v == 1


def test_model_refuses_an_unknown_variant_and_tile_sizes_off_subarray():
    with pytest.raises(ValueError, match="^variant must be one of"):
        WavefrontModel("cylindrical")
    for variant, sizes in (("spherical", (2, 2)), ("planar", (None, 3))):
        with pytest.raises(ValueError, match=f"^{variant} models take no tile sizes"):
            WavefrontModel(variant, *sizes)


# ---------------------------------------------------------------------------
# Direct path


def test_cir_los_unit_modulus():
    cfg = ScenarioConfig(P_h=4, P_v=4, Q=2)
    for model in (SPHERICAL, PLANAR, WavefrontModel.subarray(2, 3)):
        for p in (1, 7, 16):
            for q in (1, 2):
                assert abs(cir_los(p, q, 0.3, cfg, model)) == pytest.approx(1.0, abs=1e-12)


def test_cir_los_matches_brute_force_oracle():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    for p_h in (1, 2):
        for p_v in (1, 2):
            p = (p_v - 1) * cfg.P_h + p_h
            expected = np.exp(1j * brute_force_los_phase(p_h, p_v, 1, 0.0, cfg))
            got = cir_los(p, 1, 0.0, cfg, SPHERICAL)
            assert abs(got - expected) < 1e-12, (p_h, p_v)


def test_cir_los_oracle_under_motion_and_tilt():
    # The float oracle is itself about 2 ulp of its ~7e3 rad phase off, so the
    # expected phasor comes from the 50-digit reference phase.
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=3, eta_R=0.8, theta_R=0.4, v_R=12.0)
    for p in range(1, 7):
        for q in range(1, 4):
            p_h = (p - 1) % cfg.P_h + 1
            p_v = (p - 1) // cfg.P_h + 1
            expected = complex(mp.expj(reference_direct_phase(p_h, p_v, q, 0.7, cfg)))
            got = cir_los(p, q, 0.7, cfg, SPHERICAL)
            assert abs(got - expected) < 1e-12


def test_cir_los_subarray_one_equals_spherical():
    cfg = ScenarioConfig(P_h=4, P_v=4, Q=2)
    sub = WavefrontModel.subarray(1, 1)
    for p in range(1, 17):
        for q in (1, 2):
            for t in (0.0, 0.5):
                a = cir_los(p, q, t, cfg, sub)
                b = cir_los(p, q, t, cfg, SPHERICAL)
                assert abs(a - b) <= 1e-12 * abs(b)


def test_degenerate_geometry_unreachable():
    # coincident BS/MR midpoints cannot be expressed: D_0 must be positive
    # and r_max (defaulting to D_0) must stay >= r_min, so the constructor
    # rejects the attempt before any angle is computed
    with pytest.raises(ValueError):
        ScenarioConfig(P_h=1, P_v=1, Q=1, D_0=1e-300, H_0=0.0, delta_T=1e-300)
    with pytest.raises(ValueError):
        ScenarioConfig(D_0=0.0)


def test_tau_los_refuses_midpoints_at_a_zero_float_distance():
    # The midpoints lie 1.4e-170 m apart, but the squares of their offsets underflow, so their distance reads 0.
    cfg = ScenarioConfig(H_0=1e-170, D_0=1e-170, delta_T=1e-172, delta_R=1e-172, P_h=1, P_v=1, Q=1, r_min=1e-170)
    with pytest.raises(ValueError):
        tau_los(0.0, cfg)


# ---------------------------------------------------------------------------
# Scattered path


def test_cir_nlos_single_ray_unit_modulus():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, L_clusters=1, N_rays=1)
    field = field_for_realization(cfg, 0, 0)
    assert field.n_rays == 1
    v = cir_nlos(1, 1, 0.0, cfg, SPHERICAL, field)
    assert abs(v) == pytest.approx(1.0, abs=1e-12)


def test_cir_nlos_matches_brute_force_oracle():
    cfg = ScenarioConfig(P_h=2, P_v=3, Q=2, L_clusters=1, N_rays=1)
    field = field_for_realization(cfg, 21, 0)
    ray = field.rays()[0]
    for p in range(1, 7):
        for q in (1, 2):
            p_h = (p - 1) % cfg.P_h + 1
            p_v = (p - 1) // cfg.P_h + 1
            phase = brute_force_ray_phase(
                p_h, p_v, q, 0.4, cfg, ray.position.as_tuple()
            )
            expected = np.exp(1j * (ray.phase + phase))
            got = cir_nlos(p, q, 0.4, cfg, SPHERICAL, field)
            # raw phases are thousands of radians; two independently rounded
            # evaluations agree to ~2e-12 at best
            assert abs(got - expected) < 5e-12


def test_cir_nlos_second_moment():
    # E|h_nlos|^2 = 1 over independent fields (i.i.d. uniform phases)
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, L_clusters=2, N_rays=5)
    acc = 0.0
    n = 1000
    for i in range(n):
        field = field_for_realization(cfg, 31, i)
        acc += abs(cir_nlos(2, 1, 0.0, cfg, SPHERICAL, field)) ** 2
    assert acc / n == pytest.approx(1.0, rel=0.05)


def test_cir_nlos_subarray_one_equals_spherical():
    cfg = ScenarioConfig(P_h=3, P_v=3, Q=2)
    field = field_for_realization(cfg, 5, 0)
    sub = WavefrontModel.subarray(1, 1)
    for p in (1, 5, 9):
        for q in (1, 2):
            a = cir_nlos(p, q, 0.2, cfg, sub, field)
            b = cir_nlos(p, q, 0.2, cfg, SPHERICAL, field)
            assert abs(a - b) <= 1e-12 * abs(b)


# ---------------------------------------------------------------------------
# Rician combination and delays


def test_cir_total_weights():
    cfg1 = ScenarioConfig(P_h=2, P_v=2, Q=1, K=1.0)
    field = field_for_realization(cfg1, 2, 0)
    parts = cir_total(1, 1, 0.0, cfg1, SPHERICAL, field)
    w = 1 / math.sqrt(2)
    assert abs(parts.los) == pytest.approx(w, abs=1e-12)
    # the scattered part's weight applies to a non-unit sum; compare against
    # the unweighted coefficient instead
    raw = cir_nlos(1, 1, 0.0, cfg1, SPHERICAL, field)
    assert parts.nlos == pytest.approx(w * raw, abs=1e-12)

    rician_limit = ScenarioConfig(P_h=2, P_v=2, Q=1, K=1e12)
    parts_inf = cir_total(1, 1, 0.0, rician_limit, SPHERICAL, field)
    assert abs(parts_inf.los) == pytest.approx(1.0, abs=1e-9)
    assert abs(parts_inf.combined - parts_inf.los) < 1e-5


def test_rician_weights_values():
    w_los, w_nlos = rician_weights(1.0)
    assert w_los == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert w_nlos == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    w_los, w_nlos = rician_weights(0.0)
    assert (w_los, w_nlos) == (0.0, 1.0)


def test_tau_los_reference_value():
    # BS midpoint [0,0,20.96] with delta_T=0.03, MR midpoint [50,0,0]:
    # xi = sqrt(50^2 + 20.96^2) = 54.21551069574094 m
    # tau = xi/c = 1.808434777093056e-07 s (printed as 1.8085e-7)
    cfg = ScenarioConfig(delta_T=0.03)
    tau = tau_los(0.0, cfg)
    assert tau == pytest.approx(1.808434777093056e-07, abs=1e-18)
    assert abs(tau - 1.8085e-07) < 5e-11


def test_tau_los_default_spacing():
    cfg = ScenarioConfig()
    assert tau_los(0.0, cfg) == pytest.approx(1.8084262126890488e-07, abs=1e-18)


def test_nlos_delays_midpoint_based():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, L_clusters=1, N_rays=3)
    field = field_for_realization(cfg, 17, 0)
    delays = nlos_delays(0.0, cfg, field)
    mid_t = np.array([0.0, 0.0, cfg.H_0 + 0.5 * cfg.P_v * cfg.delta_T])
    mid_r = np.array([cfg.D_0, 0.0, 0.0])
    for d, ray in zip(delays, field.rays()):
        pos = np.array(ray.position.as_tuple())
        xi = np.linalg.norm(pos - mid_t) + np.linalg.norm(mid_r - pos)
        assert d == pytest.approx(xi / cfg.c, rel=1e-14)


# ---------------------------------------------------------------------------
# Matrix assembly


def test_channel_matrix_shape_and_immutability():
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2)
    field = field_for_realization(cfg, 1, 0)
    real = channel_matrix(0.0, cfg, SPHERICAL, field)
    assert real.H.shape == (2, 6)
    assert np.all(np.isfinite(real.H.real)) and np.all(np.isfinite(real.H.imag))
    with pytest.raises((ValueError, RuntimeError)):
        real.H[0, 0] = 0


@pytest.mark.parametrize(
    "H, message",
    [
        (np.ones(3, dtype=complex), "^H must be a 2-D matrix"),
        (np.array([[1.0, np.nan]], dtype=complex), "^H contains non-finite entries"),
        (np.array([[1.0, complex(0.0, np.inf)]]), "^H contains non-finite entries"),
    ],
    ids=["1-D", "nan", "inf"],
)
def test_channel_realization_refuses_a_matrix_that_is_not_2d_or_not_finite(H, message):
    with pytest.raises(ValueError, match=message):
        ChannelRealization(t=0.0, H=H, tau_los=1e-7, tau_nlos=np.zeros(2), model=SPHERICAL)


def test_channel_matrix_los_only_modulus():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2, K=1e12)
    field = field_for_realization(cfg, 1, 0)
    real = channel_matrix(0.0, cfg, SPHERICAL, field)
    w_los = math.sqrt(1e12 / (1e12 + 1))
    assert np.abs(real.H) == pytest.approx(np.full((2, 4), w_los), abs=1e-5)


def test_channel_matrix_matches_scalar_path():
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2)
    field = field_for_realization(cfg, 9, 0)
    for model in (SPHERICAL, PLANAR, WavefrontModel.subarray(2, 2)):
        real = channel_matrix(0.4, cfg, model, field)
        for p in range(1, 7):
            for q in (1, 2):
                scalar = cir_total(p, q, 0.4, cfg, model, field).combined
                assert abs(scalar - real.H[q - 1, p - 1]) < 1e-12


def _direct_matrix(parts, rows=3):
    """The (Q, P) direct phasors of matrix_parts' direct slot, through _direct_phasors rows element rows at a time."""
    cfg = parts[0][0]
    groups = [_direct_phasors(*parts[0], v0, min(v0 + rows, cfg.P_v)) for v0 in range(0, cfg.P_v, rows)]
    return np.concatenate(groups, axis=1).reshape(cfg.Q, -1)


# An uneven grid, so the trailing 2x2 tiles are cut to 1 element on both axes.
TILED_CFG = ScenarioConfig(P_h=5, P_v=3, Q=2, L_clusters=2, N_rays=3, eta_R=0.8, theta_R=0.4, v_R=12.0)
TILINGS = [(WavefrontModel.subarray(2, 2), (2, 2)), (PLANAR, (5, 3))]


@pytest.mark.parametrize("model, tile", TILINGS, ids=["subarray_2x2", "planar"])
def test_channel_matrix_matches_brute_force_oracle_for_tilings(model, tile):
    cfg, t = TILED_CFG, 0.4
    field = field_for_realization(cfg, 9, 0)
    H_los = _direct_matrix(matrix_parts(t, cfg, model, field))
    H = channel_matrix(t, cfg, model, field).H
    w_los, w_nlos = rician_weights(cfg.K)
    for p in range(1, 16):
        p_h, p_v = (p - 1) % cfg.P_h + 1, (p - 1) // cfg.P_h + 1
        for q in (1, 2):
            los = np.exp(1j * brute_force_los_phase(p_h, p_v, q, t, cfg, tile))
            assert abs(H_los[q - 1, p - 1] - los) < 1e-12
            rays = [
                np.exp(1j * (ray.phase + brute_force_ray_phase(p_h, p_v, q, t, cfg, ray.position.as_tuple(), tile)))
                for ray in field.rays()
            ]
            expected = w_los * los + w_nlos * sum(rays) / math.sqrt(field.n_rays)
            assert abs(H[q - 1, p - 1] - expected) < 5e-12


@pytest.mark.parametrize("model, tile", TILINGS, ids=["subarray_2x2", "planar"])
def test_point_phases_batch_matches_brute_force_oracle(model, tile):
    # repeated elements (linear and pair form), repeated (q, t) and shared
    # times; raw phases are ~6e3 rad (ulp 9e-13), so both parts are checked
    # at 5e-12
    cfg = TILED_CFG
    field = field_for_realization(cfg, 9, 1)
    points = [(7, 1, 0.0), ((2, 2), 2, 0.0), (15, 1, 0.3), ((5, 3), 1, 0.0), (7, 2, 0.3), (1, 1, 0.0)]
    direct, scattered = point_phases(points, cfg, model)
    phases = scattered(field)
    assert direct.shape == (6,) and phases.shape == (6, field.n_rays)
    for (p, q, t), los, rays in zip(points, direct, phases):
        p_h, p_v = p if isinstance(p, tuple) else ((p - 1) % cfg.P_h + 1, (p - 1) // cfg.P_h + 1)
        assert abs(los - brute_force_los_phase(p_h, p_v, q, t, cfg, tile)) < 5e-12
        for ray, got in zip(field.rays(), rays):
            assert abs(got - brute_force_ray_phase(p_h, p_v, q, t, cfg, ray.position.as_tuple(), tile)) < 5e-12


GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("label", ["spherical", "subarray:2x2", "planar"])
def test_channel_matrix_golden(label):
    # Recorded before the phase formula moved into one kernel: config below,
    # field (seed 4, index 1), t = 0.3, written by ChannelRealization.to_csv.
    cfg = ScenarioConfig(P_h=5, P_v=3, Q=2, L_clusters=2, N_rays=3)
    field = field_for_realization(cfg, 4, 1)
    H = channel_matrix(0.3, cfg, WavefrontModel.parse(label), field).H
    rows = np.loadtxt(GOLDEN_DIR / f"matrix_{label.replace(':', '_')}_small.csv", delimiter=",", skiprows=1)
    golden = np.empty_like(H)
    golden[rows[:, 1].astype(int) - 1, rows[:, 0].astype(int) - 1] = rows[:, 2] + 1j * rows[:, 3]
    assert len(rows) == H.size
    np.testing.assert_allclose(H, golden, rtol=1e-12, atol=0)


def _oracle_matrices(cfg, t, field, tile):
    """Direct and full matrices from the brute-force per-pair oracles."""
    w_los, w_nlos = rician_weights(cfg.K)
    n_p = cfg.P_h * cfg.P_v
    H_los, H = np.empty((cfg.Q, n_p), complex), np.empty((cfg.Q, n_p), complex)
    for p in range(n_p):
        p_h, p_v = p % cfg.P_h + 1, p // cfg.P_h + 1
        for q in range(1, cfg.Q + 1):
            H_los[q - 1, p] = np.exp(1j * brute_force_los_phase(p_h, p_v, q, t, cfg, tile))
            rays = sum(
                np.exp(1j * (ray.phase + brute_force_ray_phase(p_h, p_v, q, t, cfg, ray.position.as_tuple(), tile)))
                for ray in field.rays()
            )
            H[q - 1, p] = w_los * H_los[q - 1, p] + w_nlos * rays / math.sqrt(field.n_rays)
    return H_los, H


# Both axes uneven: 7 = 3 + 3 + 1 and 5 = 2 + 2 + 1.
UNEVEN_CFG = ScenarioConfig(P_h=7, P_v=5, Q=3, L_clusters=2, N_rays=3, eta_R=0.8, theta_R=0.4, v_R=12.0)


def test_channel_matrix_matches_brute_force_oracle_for_uneven_tiling():
    cfg, t = UNEVEN_CFG, 0.4
    field = field_for_realization(cfg, 5, 2)
    model = WavefrontModel.subarray(3, 2)
    H_los, H = _oracle_matrices(cfg, t, field, (3, 2))
    assert np.max(np.abs(_direct_matrix(matrix_parts(t, cfg, model, field)) - H_los)) < 1e-12
    assert np.max(np.abs(channel_matrix(t, cfg, model, field).H - H)) < 5e-12


def test_departure_gains_of_a_zero_displacement_follow_the_arctan2_convention():
    cfg = dataclasses.replace(UNEVEN_CFG, psi_T=0.7)
    k_delta = 2 * math.pi / cfg.wavelength * cfg.delta_T
    zero = np.zeros(2)
    g1, g2 = _gains(*_pieces(zero, zero, zero, cfg), cfg)
    az = el = math.atan2(0.0, 0.0)
    assert np.all(g1 == k_delta * math.cos(az - cfg.psi_T) * math.cos(el)) and np.all(g2 == 0.0)

    # A ray exactly at a tile midpoint (and one at an element of the 1x1
    # tiling) gives finite matrices that match the oracles' atan2(0, 0). So
    # does one exactly at receive element 2 at t = 0.2: its k_index is 0, so
    # the oracle's own element position is bit-equal, and the arrival
    # direction still sets the Doppler phase. So do rays straight above the
    # transmit midpoint (the planar tile's) and above the receive midpoint
    # at t = 0 (element 2's at the last point), which have no horizontal range.
    mid = subarray_center(2, 1, cfg, make_partition(cfg, 3, 2)).as_tuple()
    element = subarray_center(4, 3, cfg, make_partition(cfg, 1, 1)).as_tuple()
    receiver = mr_element_position(2, 0.2, cfg).as_tuple()
    bs, mr0 = cfg.bs_midpoint(), cfg.mr_midpoint(0.0)
    above = Ray(Vec3(bs.x, bs.y, bs.z + 3.0), 1.2), Ray(Vec3(mr0.x, mr0.y, 4.0), -2.5)
    rays = (
        (Ray(Vec3(*mid), 0.5), Ray(Vec3(*element), -1.0), above[0]),
        (Ray(Vec3(30.0, 4.0, 2.0), 2.0), Ray(Vec3(*receiver), 0.3), above[1]),
    )
    field = ScattererField(rays)
    points = [((4, 3), 2, 0.2), ((1, 1), 2, 0.2), ((7, 5), 1, 0.2), ((2, 1), 2, 0.0)]
    for model, tile in ((WavefrontModel.subarray(3, 2), (3, 2)), (SPHERICAL, (1, 1)), (PLANAR, (cfg.P_h, cfg.P_v))):
        H = channel_matrix(0.2, cfg, model, field).H
        assert np.all(np.isfinite(H))
        assert np.max(np.abs(H - _oracle_matrices(cfg, 0.2, field, tile)[1])) < 5e-12
        direct, scattered = point_phases(points, cfg, model)
        phases = scattered(field)
        assert np.all(np.isfinite(direct)) and np.all(np.isfinite(phases))
        for ((p_h, p_v), q, t), got in zip(points, phases):
            expected = [brute_force_ray_phase(p_h, p_v, q, t, cfg, ray.position.as_tuple(), tile) for ray in field.rays()]
            assert np.max(np.abs(got - expected)) < 5e-12


def _block_gains(dx, dy, dz, cfg):
    """The departure gains as computed over whole (dx, dy, dz) arrays before the table was built from pieces."""
    kd = 2 * math.pi / cfg.wavelength * cfg.delta_T
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    zero = r == 0.0
    scale = kd / np.where(zero, 1.0, r)
    return (dx * math.cos(cfg.psi_T) + dy * math.sin(cfg.psi_T) + zero * math.cos(cfg.psi_T)) * scale, dz * scale


def _block_table(pos, cfg):
    """The (P, N) per-element departure table filled over 512-element blocks, each block through _cis."""
    p = np.arange(cfg.P_h * cfg.P_v)
    h, v = p % cfg.P_h, p // cfg.P_h
    unit = make_partition(cfg, 1, 1)
    cx, cy, cz = unit.x[h], unit.y[h], unit.z[v]
    kh, kv = (cfg.P_h - 2 * (h + 1) + 1) / 2.0, (cfg.P_v - 2 * (v + 1) + 1) / 2.0
    table = np.empty((p.size, len(pos)), dtype=complex)
    for lo in range(0, p.size, 512):
        b = slice(lo, lo + 512)
        g1, g2 = _block_gains(pos[:, 0] - cx[b, None], pos[:, 1] - cy[b, None], pos[:, 2] - cz[b, None], cfg)
        _cis(kh[b, None] * g1 + kv[b, None] * g2, out=table[b])
    return table


def _block_factors(pos, cfg, partition):
    """Per-tile factors A and B from gains evaluated over every (tile, ray) pair at once."""
    n_h, n_v = partition.counts_h, partition.counts_v
    ph, pv = partition.p_max_h, partition.p_max_v
    cx, cy, cz = partition.x[:, None, None], partition.y[:, None, None], partition.z[:, None]  # (n_h, n_v, N) gains
    g1, g2 = _block_gains(pos[:, 0] - cx, pos[:, 1] - cy, pos[:, 2] - cz, cfg)
    kh = (cfg.P_h - 2 * np.arange(1, n_h * ph + 1) + 1) / 2.0
    kv = (cfg.P_v - 2 * np.arange(1, n_v * pv + 1) + 1) / 2.0
    return _cis(kh.reshape(n_h, 1, ph, 1) * g1.reshape(n_h, n_v, 1, -1)), _cis(
        kv.reshape(1, n_v, pv, 1) * g2.reshape(n_h, n_v, 1, -1)
    )


def _streamed_phasors(dep):
    """The departure phasors of _departure_blocks as a (P, N) table, or the factors A, B of factored tiles."""
    cfg, rows, factors = dep[0], [], []
    for v0, a, b in _departure_blocks(*dep):
        if b is None:
            rows.append(a[:cfg.P_v - v0, :cfg.P_h].copy())  # blocks share one buffer
        else:
            factors.append((a, b))
    if factors:
        return tuple(np.concatenate(f) for f in zip(*factors))
    return np.concatenate(rows).reshape(cfg.P_h * cfg.P_v, -1)


def test_departure_table_and_tile_factors_are_bit_identical_to_the_block_fill(monkeypatch):
    cfg, t = dataclasses.replace(UNEVEN_CFG, psi_T=0.7), 0.2
    generated = field_for_realization(cfg, 3, 1)
    # One ray exactly at an element centre (zero displacement in the 1x1
    # tiling) and one at a subarray:3x2 tile midpoint.
    element = subarray_center(4, 3, cfg, make_partition(cfg, 1, 1)).as_tuple()
    mid = subarray_center(2, 1, cfg, make_partition(cfg, 3, 2)).as_tuple()
    at_centres = ScattererField(((Ray(Vec3(*element), -1.0), Ray(Vec3(*mid), 0.5)), (Ray(Vec3(30.0, 4.0, 2.0), 2.0),)))
    # 43x37 with 100 rays streams in many blocks, each padded by the trailing 3x2 tiles.
    large = dataclasses.replace(ScenarioConfig(P_h=43, P_v=37, Q=2), psi_T=0.7)
    for cfg, field in ((cfg, generated), (cfg, at_centres), (large, field_for_realization(large, 3, 1))):
        pos = field.positions()
        p_h, p_v = np.meshgrid(np.arange(cfg.P_h), np.arange(cfg.P_v))
        assert np.array_equal(_streamed_phasors(matrix_parts(t, cfg, SPHERICAL, field)[1]), _block_table(pos, cfg))
        dep = matrix_parts(t, cfg, WavefrontModel.subarray(3, 2), field)[1]
        a_ref, b_ref = _block_factors(pos, cfg, make_partition(cfg, 3, 2))
        # Element (p_h, p_v) sits at offsets (p_h % 3, p_v % 2) of tile (p_h // 3, p_v // 2).
        tile = p_h // 3, p_v // 2
        expanded = a_ref[(*tile, p_h % 3)] * b_ref[(*tile, p_v % 2)]
        assert np.array_equal(_streamed_phasors(dep), expanded.reshape(cfg.P_h * cfg.P_v, -1))
        with monkeypatch.context() as m:
            m.setattr(channel_module, "_FACTORED_AREA", 6)
            a, b = _streamed_phasors(dep)
        assert np.array_equal(a, a_ref.swapaxes(0, 1)) and np.array_equal(b, b_ref.transpose(1, 2, 0, 3))


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize(
    "model",
    [SPHERICAL, WavefrontModel.subarray(2, 2), WavefrontModel.subarray(4, 4), WavefrontModel.subarray(3, 2)],
    ids=lambda m: m.label,
)
def test_combine_parts_does_not_depend_on_the_block_budget(monkeypatch, model, draws):
    # 43x37 with 100 rays: the 1x1, 2x2 and 3x2 tilings form several one-chunk runs per block and
    # end in a short block; 3x2 and 2x2 tiles overhang the array edge.
    cfg = dataclasses.replace(ScenarioConfig(P_h=43, P_v=37, Q=2), psi_T=0.7)
    field = field_for_realization(cfg, 3, 1)
    parts = matrix_parts(0.2, cfg, model, field)
    phases = field.phases() if draws == 1 else np.random.default_rng(4).uniform(0, 2 * math.pi, (draws, 100))
    H = combine_parts(parts, phases, cfg.K)
    for budget in (_CIS_CHUNK, 100 * cfg.P_h * cfg.P_v):  # one chunk (the earlier budget), the whole array
        with monkeypatch.context() as m:
            m.setattr(channel_module, "_BLOCK_PHASORS", budget)
            assert np.array_equal(combine_parts(parts, phases, cfg.K), H)


def _per_element_tiles(p_h, p_v, cfg, partition):
    """Midpoints x, y, z (S each) of the distinct tiles holding elements (p_h, p_v), each element's tile, kh and kv."""
    tile = (p_h - 1) // partition.p_max_h * partition.counts_v + (p_v - 1) // partition.p_max_v
    tiles, s_of_p = np.unique(tile, return_inverse=True)
    sh, sv = np.divmod(tiles, partition.counts_v)
    midpoints = partition.x[sh], partition.y[sh], partition.z[sv]
    return midpoints, s_of_p, (cfg.P_h - 2 * p_h + 1) / 2.0, (cfg.P_v - 2 * p_v + 1) / 2.0


def _per_element_direct_phases(elements, rx, bulk, cfg):
    """Direct-path phase per receive point (rows) and element (columns), evaluated per distinct tile."""
    (cx, cy, cz), s_of_p, kh, kv = elements
    x, y, z, kq, t = rx[:, :, None]
    dx, dy, dz = x - cx, y - cy, cz - z
    a1, a2 = _gains(*_pieces(dx, dy, dz, cfg), cfg)
    mr = _receive(-dx, dy, dz, kq, t, cfg)  # the reverse bearing at the departure elevation
    return kh * a1[:, s_of_p] + kv * a2[:, s_of_p] + mr[:, s_of_p] + bulk[:, None]


@pytest.mark.parametrize("model", [SPHERICAL, WavefrontModel.subarray(3, 2), PLANAR], ids=lambda m: m.label)
def test_direct_path_is_bit_identical_to_the_per_tile_evaluation(model):
    cfg, t = dataclasses.replace(UNEVEN_CFG, psi_T=0.7), 0.2
    partition = model.partition_for(cfg)
    p = np.arange(cfg.P_h * cfg.P_v)
    elements = _per_element_tiles(p % cfg.P_h + 1, p // cfg.P_h + 1, cfg, partition)
    bulk = np.full(cfg.Q, -2 * math.pi * cfg.f_c * tau_los(t, cfg))
    expected = _per_element_direct_phases(elements, _receivers([(q, t) for q in range(1, cfg.Q + 1)], cfg), bulk, cfg)
    assert np.array_equal(_direct_matrix(matrix_parts(t, cfg, model, field_for_realization(cfg, 3, 1))), _cis(expected))

    # Tile columns and rows repeat across points (and within subarray:3x2 tiles); times mix.
    points = [
        ((1, 1), 1, 0.2), ((2, 1), 3, 0.0), ((7, 5), 2, 0.37), ((1, 1), 1, 0.0),
        ((4, 3), 2, 0.2), ((6, 2), 1, 0.37), ((4, 5), 3, 0.2), ((2, 1), 3, 0.0), ((3, 4), 1, 0.2),
    ]
    p_h, p_v = np.array([element for element, _, _ in points]).T
    qts = [(q, pt) for _, q, pt in points]
    bulk = -2 * math.pi * cfg.f_c * np.array([tau_los(pt, cfg) for _, pt in qts])
    per_point = _per_element_direct_phases(_per_element_tiles(p_h, p_v, cfg, partition), _receivers(qts, cfg), bulk, cfg)
    assert np.array_equal(point_phases(points, cfg, model)[0], np.diagonal(per_point))


@pytest.mark.parametrize("phase_draws", [1, 3])
def test_tile_factors_match_a_per_element_table(phase_draws):
    # subarray:30x30 on 64x64 leaves 4-element trailing tiles, so the padding is cropped on both axes.
    cfg, t = ScenarioConfig(), 0.1
    field = field_for_realization(cfg, 2, 0)
    parts = matrix_parts(t, cfg, WavefrontModel.subarray(30, 30), field)
    k = 2 * math.pi / cfg.wavelength
    p = np.arange(cfg.P_h * cfg.P_v)
    p_h, p_v = p % cfg.P_h + 1, p // cfg.P_h + 1
    ex, ey, ez = np.array([tile_center(h, v, cfg, (30, 30)) for h, v in zip(p_h, p_v)]).T[:, :, None]
    sx, sy, sz = field.positions().T
    alpha, beta = np.arctan2(sy - ey, sx - ex), np.arctan2(sz - ez, np.hypot(sx - ex, sy - ey))
    g1 = k * cfg.delta_T * np.cos(alpha - cfg.psi_T) * np.cos(beta)
    g2 = k * cfg.delta_T * np.sin(beta)
    kh, kv = (cfg.P_h - 2 * p_h + 1) / 2, (cfg.P_v - 2 * p_v + 1) / 2
    table = np.exp(1j * (kh[:, None] * g1 + kv[:, None] * g2))
    w_los, w_nlos = rician_weights(cfg.K)
    H_los = _direct_matrix(parts, rows=cfg.P_v)
    rng = np.random.default_rng(8)
    draws = [field.phases()] + [rng.uniform(-math.pi, math.pi, field.n_rays) for _ in range(phase_draws - 1)]
    for phases in draws:
        H = combine_parts(parts, phases, cfg.K)
        for q in range(cfg.Q):
            c = np.exp(1j * (phases + parts[2][q]))
            expected = w_los * H_los[q] + w_nlos * (table @ c) / math.sqrt(field.n_rays)
            assert np.max(np.abs(H[q] - expected)) < 1e-12


@pytest.mark.parametrize("model", [SPHERICAL, WavefrontModel.subarray(3, 2), WavefrontModel.subarray(8, 8), PLANAR], ids=lambda m: m.label)
def test_combine_parts_of_a_draw_stack_matches_single_draws(model):
    cfg = ScenarioConfig(P_h=16, P_v=9, Q=3, L_clusters=2, N_rays=5, psi_T=0.3)
    field = field_for_realization(cfg, 4, 2)
    parts = matrix_parts(0.1, cfg, model, field)
    draws = np.random.default_rng(5).uniform(-math.pi, math.pi, (4, field.n_rays))
    stack = combine_parts(parts, draws, cfg.K)
    assert stack.shape == (4, cfg.Q, cfg.P_h * cfg.P_v)
    for H, phases in zip(stack, draws):
        single = combine_parts(parts, phases, cfg.K)
        assert np.max(np.abs(H - single) / np.abs(single)) <= 1e-13


def test_channel_matrix_holds_no_departure_table():
    cfg = ScenarioConfig(P_h=128, P_v=128)
    field = field_for_realization(cfg, 0, 0)
    n_table = cfg.P_h * cfg.P_v * field.n_rays  # a complex (P, N) table takes 16 times this in bytes
    tracemalloc.start()
    try:
        channel_matrix(0.0, cfg, SPHERICAL, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_table


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def transient_bound(cfg, model) -> int:
    """Bytes a matrix of model may hold beyond its result: three tile rows of phasors and ten _cis chunks of complex.

    A tile row's phasors are its per-element departure phasors, or for factored tiles its factors and the
    tile products of one receive row. The chunks cover the departure block and its gains, a group's direct
    phasors and phases, and a run of error terms with their exact sum. No term involves P_v.
    """
    part = model.partition_for(cfg)
    n, width, rows = cfg.L_clusters * cfg.N_rays, part.counts_h * part.p_max_h, part.p_max_v
    if part.p_max_h * part.p_max_v >= channel_module._FACTORED_AREA:
        tile_row = part.counts_h * (part.p_max_h + rows) * n + width * rows
    else:
        tile_row = width * rows * n
    return 16 * (3 * tile_row + 10 * _CIS_CHUNK)


# Few rays, so that at both sides the matrix outgrows the chunk-sized buffers; 3x5 tiles are cut at both edges.
MEMORY_MODELS = [
    SPHERICAL, WavefrontModel.subarray(2, 2), WavefrontModel.subarray(3, 5), WavefrontModel.subarray(16, 16), PLANAR
]


def memory_scenario(side):
    """A side x side array with 8 rays, its field and the bytes of its (Q, P) matrix, with lazy state already built."""
    cfg = ScenarioConfig(P_h=side, P_v=side, L_clusters=2, N_rays=4)
    field = field_for_realization(cfg, 1, 0)
    field.positions(), field.phases(), _cis(np.zeros(1))  # the field's arrays and this thread's _cis buffers
    for model in MEMORY_MODELS:
        model.partition_for(cfg)  # cached partitions
    return cfg, field, 16 * cfg.Q * cfg.P_h * cfg.P_v


@pytest.mark.parametrize("side", [96, 192])
@pytest.mark.parametrize("model", MEMORY_MODELS, ids=lambda m: m.label)
def test_channel_matrix_holds_a_few_tile_rows_beyond_its_output(model, side):
    # At 192x192 a matrix built whole, with its (Q, P) direct matrix, went 1.5 to 2.7 times over this bound.
    cfg, field, out = memory_scenario(side)
    assert traced_peak(lambda: channel_matrix(0.0, cfg, model, field)) - out <= transient_bound(cfg, model)


@pytest.mark.parametrize(
    "model",
    [SPHERICAL, WavefrontModel.subarray(2, 2), WavefrontModel.subarray(3, 2), WavefrontModel.subarray(16, 16), PLANAR],
    ids=lambda m: m.label,
)
def test_matrix_does_not_depend_on_the_group_bound(monkeypatch, model):
    # 43x37 with 100 rays: 16x16 tiles overhang both edges; 1x1, 2x2 and 3x2 groups span several runs.
    cfg = dataclasses.replace(ScenarioConfig(P_h=43, P_v=37, Q=2), psi_T=0.7)
    field = field_for_realization(cfg, 3, 1)
    parts = matrix_parts(0.2, cfg, model, field)
    draws = np.random.default_rng(4).uniform(0, 2 * math.pi, (3, 100))
    H, stack = combine_parts(parts, field.phases(), cfg.K), combine_parts(parts, draws, cfg.K)
    for bound in (1, 777, 100 * cfg.P_h * cfg.P_v):  # one element row per group, some rows, the whole array
        with monkeypatch.context() as m:
            m.setattr(channel_module, "_GROUP_PHASORS", bound)
            assert np.array_equal(combine_parts(parts, field.phases(), cfg.K), H)
            assert np.array_equal(combine_parts(parts, draws, cfg.K), stack)


def test_channel_matrix_subarray_identities():
    rng = np.random.default_rng(2)
    for _ in range(25):
        cfg = ScenarioConfig(
            P_h=int(rng.integers(1, 9)),
            P_v=int(rng.integers(1, 9)),
            Q=int(rng.integers(1, 5)),
            L_clusters=2,
            N_rays=3,
        )
        field = field_for_realization(cfg, 7, 0)
        sph = channel_matrix(0.0, cfg, SPHERICAL, field).H
        sub1 = channel_matrix(0.0, cfg, WavefrontModel.subarray(1, 1), field).H
        pla = channel_matrix(0.0, cfg, PLANAR, field).H
        subf = channel_matrix(
            0.0, cfg, WavefrontModel.subarray(cfg.P_h, cfg.P_v), field
        ).H
        assert np.max(np.abs(sub1 - sph)) <= 1e-12 * np.max(np.abs(sph))
        assert np.max(np.abs(subf - pla)) <= 1e-12 * np.max(np.abs(pla))


def test_channel_entry_second_moment():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=0.7, L_clusters=2, N_rays=5)
    acc = 0.0
    n = 1000
    for i in range(n):
        field = field_for_realization(cfg, 13, i)
        real = channel_matrix(0.0, cfg, SPHERICAL, field)
        acc += abs(real.H[0, 2]) ** 2
    assert acc / n == pytest.approx(1.0, rel=0.05)


def test_time_shift_consistency():
    # moving the clock by dt equals moving the MR by v*dt along eta_R=0 and
    # keeping the clock, up to the explicit motion phase v*dt*cos(aR)*cos(bR)
    # per path; raw phases are ~5e3 rad so the doubly rounded difference is
    # checked at 5e-12
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2, eta_R=0.0)
    t, dt = 0.5, 0.25
    shifted = dataclasses.replace(cfg, D_0=cfg.D_0 + cfg.v_R * dt)
    field = field_for_realization(cfg, 11, 0)
    two_pi_lam = 2 * math.pi / cfg.wavelength

    for p in range(1, 7):
        for q in (1, 2):
            # direct path: arrival angles recomputed from raw coordinates
            p_h = (p - 1) % cfg.P_h + 1
            p_v = (p - 1) // cfg.P_h + 1
            ph1 = los_phase(p, q, t + dt, cfg, SPHERICAL)
            ph2 = los_phase(p, q, t, shifted, SPHERICAL)
            ex, ey, ez = unit_center(p_h, p_v, cfg)
            kq_dr = (cfg.Q - 2 * q + 1) / 2 * cfg.delta_R
            dq = (
                cfg.D_0 + cfg.v_R * (t + dt),
                kq_dr * math.sin(cfg.psi_R) * math.cos(cfg.theta_R),
                kq_dr * math.sin(cfg.theta_R),
            )
            alpha_t = math.atan2(dq[1] - ey, dq[0] - ex)
            beta_t = math.atan2(ez - dq[2], math.hypot(dq[0] - ex, dq[1] - ey))
            alpha_r = wrap_angle(math.pi - alpha_t)
            predicted = two_pi_lam * cfg.v_R * dt * math.cos(alpha_r) * math.cos(beta_t)
            assert abs((ph1 - ph2) - predicted) < 5e-12

            # scattered paths: per-ray arrival angles from raw coordinates
            r1 = nlos_ray_phases(p, q, t + dt, cfg, SPHERICAL, field)
            r2 = nlos_ray_phases(p, q, t, shifted, SPHERICAL, field)
            pos = field.positions()
            az = np.arctan2(pos[:, 1] - dq[1], pos[:, 0] - dq[0])
            el = np.arctan2(
                pos[:, 2] - dq[2], np.hypot(pos[:, 0] - dq[0], pos[:, 1] - dq[1])
            )
            predicted_rays = two_pi_lam * cfg.v_R * dt * np.cos(az) * np.cos(el)
            assert float(np.max(np.abs((r1 - r2) - predicted_rays))) < 5e-12


# ---------------------------------------------------------------------------
# Frequency response


def test_transfer_function_carrier_consistency():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2)
    field = field_for_realization(cfg, 3, 0)
    for model in (SPHERICAL, PLANAR):
        for p in range(1, 5):
            for q in (1, 2):
                combined = cir_total(p, q, 0.1, cfg, model, field).combined
                via_f = transfer_function(p, q, 0.1, cfg.f_c, cfg, model, field)
                assert abs(combined - via_f) < 1e-12


def test_transfer_function_single_path_unit_modulus():
    # K=0 and one ray: one unit phasor regardless of frequency
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=0.0, L_clusters=1, N_rays=1)
    field = field_for_realization(cfg, 4, 0)
    for df in (-2e7, 0.0, 1.3e7, 2.5e7):
        v = transfer_function(1, 1, 0.0, cfg.f_c + df, cfg, SPHERICAL, field)
        assert abs(v) == pytest.approx(1.0, abs=1e-12)


def test_transfer_function_los_only_unit_modulus():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1, K=1e15)
    field = field_for_realization(cfg, 4, 0)
    for df in (-2e7, 1e7):
        v = transfer_function(3, 1, 0.0, cfg.f_c + df, cfg, SPHERICAL, field)
        assert abs(v) == pytest.approx(1.0, abs=1e-6)


def test_transfer_function_two_ray_periodicity():
    # |H(f)| repeats with period 1/(delay difference) for a two-path channel
    cfg = ScenarioConfig(P_h=1, P_v=1, Q=1, K=0.0)
    field = two_ray_field((20.0, 5.0, 10.0), (30.0, -10.0, 4.0))
    delays = nlos_delays(0.0, cfg, field)
    dtau = abs(float(delays[1] - delays[0]))
    period = 1.0 / dtau
    for f0 in (cfg.f_c - 1e7, cfg.f_c, cfg.f_c + 3e6):
        a = transfer_function(1, 1, 0.0, f0, cfg, SPHERICAL, field, check_band=False)
        b = transfer_function(
            1, 1, 0.0, f0 + period, cfg, SPHERICAL, field, check_band=False
        )
        assert abs(abs(a) - abs(b)) < 1e-9


def test_transfer_function_band_check():
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 6, 0)
    with pytest.raises(ValueError):
        transfer_function(1, 1, 0.0, cfg.f_c + 0.6 * BANDWIDTH_HZ, cfg, SPHERICAL, field)
    v = transfer_function(
        1, 1, 0.0, cfg.f_c + 2 * BANDWIDTH_HZ, cfg, SPHERICAL, field, check_band=False
    )
    assert np.isfinite(v.real) and np.isfinite(v.imag)


@pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, 1e308])
def test_non_finite_frequency_is_refused(f):
    # A NaN f used to pass the band check (abs(nan - f_c) > B/2 is False) and
    # give a NaN response; f = inf or 1e308 overflowed -2*pi*f to -inf first.
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 6, 0)
    for check_band in (True, False):
        with pytest.raises(ValueError, match="^f (=|must)"):
            transfer_function(1, 1, 0.0, f, cfg, SPHERICAL, field, check_band=check_band)
    for phases in (
        lambda: los_phase(1, 1, 0.0, cfg, SPHERICAL, f=f),
        lambda: nlos_ray_phases(1, 1, 0.0, cfg, SPHERICAL, field, f=f),
        lambda: point_phases([(1, 1, 0.0), (4, 1, 0.1)], cfg, PLANAR, f),
    ):
        with pytest.raises(ValueError, match="^f (=|must)"):
            phases()


@pytest.mark.parametrize("f", [True, np.True_, "5e9", 0.0, -1.0, None])
def test_frequency_follows_the_real_rule(f):
    # f=True ran at 1 Hz, "5e9" ended in a TypeError, and 0 or -1 Hz ran; f_c itself must be > 0.
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=1)
    field = field_for_realization(cfg, 6, 0)
    calls = [
        lambda: los_phase(1, 1, 0.0, cfg, SPHERICAL, f=f),
        lambda: nlos_ray_phases(1, 1, 0.0, cfg, SPHERICAL, field, f=f),
        lambda: point_phases([(1, 1, 0.0), (4, 1, 0.1)], cfg, PLANAR, f),
        lambda: transfer_function(1, 1, 0.0, f, cfg, SPHERICAL, field, check_band=False),
    ]
    if f is None:  # None means f_c for the phases, and is no frequency for transfer_function
        calls = calls[3:]
    for call in calls:
        with pytest.raises(ValueError, match="^f must be finite and > 0"):
            call()


# ---------------------------------------------------------------------------
# Exports


def test_channel_csv_export(tmp_path):
    cfg = ScenarioConfig(P_h=3, P_v=2, Q=2)
    field = field_for_realization(cfg, 1, 0)
    real = channel_matrix(0.0, cfg, SPHERICAL, field)
    path = tmp_path / "h.csv"
    real.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q,re,im"
    assert len(lines) == 1 + 12
    # q-major ordering, 1-based indices, roundtrip parse
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert complex(float(first[2]), float(first[3])) == real.H[0, 0]
    row7 = lines[7].split(",")
    assert row7[0] == "1" and row7[1] == "2"


def test_channel_binary_export(tmp_path):
    cfg = ScenarioConfig(P_h=2, P_v=2, Q=2)
    field = field_for_realization(cfg, 1, 0)
    real = channel_matrix(0.0, cfg, SPHERICAL, field)
    path = tmp_path / "h.bin"
    real.to_binary(path)
    blob = path.read_bytes()
    assert len(blob) == 16 * 8
    # little-endian float64 pairs, q-major (row-major over the Q x P matrix)
    for idx in range(8):
        re, im = struct.unpack_from("<dd", blob, idx * 16)
        q, p = divmod(idx, 4)
        assert re == real.H[q, p].real and im == real.H[q, p].imag


def _old_to_csv(H, path):
    # The per-entry loop ChannelRealization.to_csv used before it wrote from one H.tolist().
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q", "re", "im"])
        n_q, n_p = H.shape
        for qi in range(n_q):
            for pi in range(n_p):
                v = H[qi, pi]
                writer.writerow([pi + 1, qi + 1, repr(float(v.real)), repr(float(v.imag))])


def _old_to_binary(H, path):
    # The per-entry struct.pack loop ChannelRealization.to_binary used before astype('<c16').
    with open(path, "wb") as fh:
        n_q, n_p = H.shape
        for qi in range(n_q):
            for pi in range(n_p):
                v = H[qi, pi]
                fh.write(struct.pack("<dd", float(v.real), float(v.imag)))


@pytest.mark.parametrize("source", ["special", "matrix"])
def test_exports_match_per_entry_loops(tmp_path, source):
    if source == "special":
        values = [0.0, -0.0, 1.0 / 3.0, -1e-300, 5e-324, -1.7976931348623157e308, 2.5, -7.0]
        H = np.array(values[:6]).reshape(2, 3) + 1j * np.array(values[2:]).reshape(2, 3)
        H[1, 2] = complex(-0.0, -0.0)
        real = ChannelRealization(t=0.0, H=H, tau_los=1e-7, tau_nlos=np.zeros(2), model=SPHERICAL)
    else:
        cfg = ScenarioConfig(P_h=5, P_v=3, Q=2)
        real = channel_matrix(0.1, cfg, WavefrontModel.subarray(2, 2), field_for_realization(cfg, 4, 1))
    for name, new, old in (("h.csv", real.to_csv, _old_to_csv), ("h.bin", real.to_binary, _old_to_binary)):
        new(tmp_path / name)
        old(real.H, tmp_path / f"old_{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"old_{name}").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["h.bin", "h.csv", "old_h.bin", "old_h.csv"]


# ---------------------------------------------------------------------------
# Phasor kernel

CIS_TOL = 4.5e-16


def test_cis_zero_is_exactly_one():
    for zero in (0.0, -0.0, np.float64(-0.0)):
        z = _cis(zero)
        assert z.shape == () and z == 1 + 0j
        assert not np.signbit(z.real) and not np.signbit(z.imag)


def test_cis_pi_and_rounding_ties():
    step = 2 * math.pi / 1024
    halves = (np.arange(-3000, 3000) + 0.5) * step  # theta*1024/2pi lands on or next to a tie of rint
    theta = np.concatenate([[math.pi, -math.pi], halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
    assert np.max(np.abs(_cis(theta) - np.exp(1j * theta))) <= CIS_TOL


def test_cis_large_arguments_take_the_fallback():
    theta = np.array([1e7, -1e7, 1e15, -1e15, 0.25, 2e5 - 1.0])
    z = _cis(theta)
    assert np.array_equal(z[:4], np.exp(1j * theta[:4]))  # numpy's exp, bit for bit
    assert np.max(np.abs(z - np.exp(1j * theta))) <= CIS_TOL


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (1,), (2 * _CIS_CHUNK + 7,), (3, _CIS_CHUNK // 2 + 5)])
def test_cis_shapes_and_chunks(shape):
    theta = np.random.default_rng(sum(shape) + 1).uniform(-2e5, 2e5, shape)
    z = _cis(theta)
    assert z.shape == theta.shape and z.dtype == complex
    if theta.size:
        assert np.max(np.abs(z - np.exp(1j * theta))) <= CIS_TOL


def test_cis_writes_into_a_row_block_of_a_table():
    theta = np.random.default_rng(5).uniform(-50.0, 50.0, (3, 7))
    table = np.full((10, 7), 2 + 3j)
    block = table[4:7]
    assert _cis(theta, out=block) is block
    assert np.max(np.abs(table[4:7] - np.exp(1j * theta))) <= CIS_TOL
    assert np.all(table[:4] == 2 + 3j) and np.all(table[7:] == 2 + 3j)
    for bad in (np.empty((7, 3), dtype=complex).T, np.empty((3, 7), dtype=np.complex64), np.empty((3, 6), dtype=complex)):
        with pytest.raises(ValueError, match="out must be"):
            _cis(theta, out=bad)


def test_cis_chunk_buffers_are_per_thread():
    # _cis reuses its chunk buffers; callers' threads sharing them would mix each other's chunks.
    thetas = [np.random.default_rng(i).uniform(-300.0, 300.0, 3 * _CIS_CHUNK + 5) for i in range(8)]
    expected = [_cis(x) for x in thetas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_cis, x) for x in thetas * 4]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r, e) for r, e in zip(results, expected * 4))


def test_cis_non_finite_is_nan_without_cast_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _cis(np.array([np.nan, 0.5]))
    assert np.isnan(z[0].real) and np.isnan(z[0].imag) and z[1] == _cis(0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z = _cis(np.array([np.inf, -np.inf, 1.0]))
        ref = np.exp(1j * np.array([np.inf, -np.inf]))
    assert np.all(np.isnan(z[:2].real) == np.isnan(ref.real)) and np.all(np.isnan(z[:2].imag) == np.isnan(ref.imag))
    assert abs(z[2] - np.exp(1j)) <= CIS_TOL
    assert not any("cast" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# Memory budget


def test_matrix_budget_refuses_before_any_array(monkeypatch):
    cfg = ScenarioConfig(P_h=5, P_v=3, Q=2, L_clusters=2, N_rays=3)
    field = field_for_realization(cfg, 0, 0)
    need = 15 * (2 * 3 + 2) * 16
    monkeypatch.setattr(channel_module, "MATRIX_BUDGET_BYTES", need)
    matrix_parts(0.0, cfg, SPHERICAL, field)  # exactly at the budget is accepted

    def no_partition(*args):
        raise AssertionError("partition built before the budget check")

    monkeypatch.setattr(channel_module, "MATRIX_BUDGET_BYTES", need - 1)
    monkeypatch.setattr(WavefrontModel, "partition_for", no_partition)
    for model in (SPHERICAL, PLANAR, WavefrontModel.subarray(2, 2)):
        with pytest.raises(ValueError, match=r"P_h x P_v = 5x3.*MATRIX_BUDGET_BYTES"):
            matrix_parts(0.0, cfg, model, field)
