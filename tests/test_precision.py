"""Path phases against a 50-digit reference, in ulps of each phase.

The float oracles in test_channel.py round at every step, so they are
themselves a few ulps off and cannot tell a more accurate evaluation from a
less accurate one. Here the direct phase and the per-ray scattered phase are
evaluated from the raw geometry with 50-digit mpmath, by the term-by-term
formulas of brute_force_los_phase and brute_force_ray_phase (angles, the
reverse bearing, midpoint-to-midpoint bulk distances). The inputs are the
float scenario values and ray positions, taken as exact; the wavelength is
c / f_c and 2*pi is exact. point_phases must then agree within DIRECT_ULPS
and SCATTERED_ULPS of the reference, each counted in the ulp of that phase.

The bounds hold the float evaluation as it stands: the worst direct phase
was 1.87 ulp, of which the bulk term -2*pi*f*tau alone (tau_los, at
t = 0.2) is 1.38 ulp, and the worst scattered phase was 2.29 ulp.

The correlation parts of st_ccf_parts and the frequency_cf_series values at
one realization are checked the same way, as exp(j * phase difference) of
the 50-digit phases averaged over rays with mp.fsum, within an absolute
bound (CCF_ABS, FREQUENCY_CF_ABS). The full channel_matrix at one time is
checked entry by entry as w_los*exp(j direct) + w_nlos/sqrt(N) * the mp.fsum
of exp(j (random phase + ray phase)) (MATRIX_ABS), and its capacity against
log2 of the 50-digit determinant of the normalized reference (CAPACITY_ABS).
"""

import math

import mpmath
import pytest

from nfmimo.channel import WavefrontModel, channel_matrix, point_phases
from nfmimo.geometry import ScenarioConfig, k_index
from nfmimo.scattering import field_for_realization
from nfmimo.stats import capacity, frequency_cf_series, st_ccf_parts

mp = mpmath.mp.clone()  # a private context: 50 digits here leave the global mpmath settings alone
mp.dps = 50

DIRECT_ULPS = 2.0
SCATTERED_ULPS = 3.0
# Absolute bounds on correlation values, whose magnitudes are at most 1. The worst cases were 1.24e-12
# (direct part of st_ccf_parts), 1.15e-12 (its scattered part) and 7.3e-16 (frequency_cf_series): a
# phase difference of two ~6,800-rad phases keeps their ulp-level errors, a delay phase of ~20 rad does not.
CCF_ABS = 3e-12
FREQUENCY_CF_ABS = 2e-15
# Absolute bounds on matrix entries (magnitude about 1) and on capacity in bits/s/Hz at SNR 10. The worst
# entry was 2.02e-12 off, the ulp-level error of its ~6,800-rad phases; relative to the entry that reaches
# 1.2e-11 on an entry of magnitude 0.09, so the bound is absolute. The worst capacity was 2.2e-13 off.
MATRIX_ABS = 4e-12
CAPACITY_ABS = 1e-12

# Moving, tilted receiver; transmit array off broadside; 7 = 2+2+2+1 = 3+3+1 and 5 = 2+2+1 leave short trailing tiles.
CFG = ScenarioConfig(P_h=7, P_v=5, Q=3, L_clusters=2, N_rays=3, psi_T=0.7, theta_R=0.4, eta_R=0.8, v_R=12.0)
FIELD = field_for_realization(CFG, 3, 1)
# Corners, edges and inner elements (two as linear indices), every receive element, three times.
POINTS = [
    ((1, 1), 1, 0.0), ((7, 5), 3, 0.37), ((4, 3), 2, 0.2), (12, 1, 0.37), ((6, 2), 3, 0.0),
    ((3, 4), 2, 0.2), ((7, 1), 1, 0.2), ((1, 5), 3, 0.37), (35, 2, 0.0), ((5, 4), 1, 0.2),
]
MODELS = {"spherical": (1, 1), "subarray:2x2": (2, 2), "subarray:3x2": (3, 2), "planar": (7, 5)}


def _tile_center(p_h, p_v, cfg, tile):
    """Midpoint of the tile holding element (p_h, p_v), as in test_channel.tile_center."""
    p_max_h, p_max_v = tile
    sh, sv = (p_h - 1) // p_max_h, (p_v - 1) // p_max_v
    size_h = min(p_max_h, cfg.P_h - sh * p_max_h)
    size_v = min(p_max_v, cfg.P_v - sv * p_max_v)
    off = (sh * p_max_h + mp.mpf(size_h) / 2 - mp.mpf(cfg.P_h) / 2) * cfg.delta_T
    return off * mp.cos(cfg.psi_T), off * mp.sin(cfg.psi_T), cfg.H_0 + (sv * p_max_v + mp.mpf(size_v) / 2) * cfg.delta_T


def _receive_element(q, t, cfg):
    """Receive element q at time t, and the receive midpoint."""
    mid = (cfg.D_0 + cfg.v_R * mp.mpf(t) * mp.cos(cfg.eta_R), cfg.v_R * mp.mpf(t) * mp.sin(cfg.eta_R), mp.mpf(0))
    r = mp.mpf(k_index(q, cfg.Q)) * cfg.delta_R
    offset = (r * mp.cos(cfg.psi_R) * mp.cos(cfg.theta_R), r * mp.sin(cfg.psi_R) * mp.cos(cfg.theta_R), r * mp.sin(cfg.theta_R))
    return tuple(m + o for m, o in zip(mid, offset)), mid


def _steering(p_h, p_v, q, t, cfg, departure, arrival):
    """Departure steering of element (p_h, p_v) at angles departure, plus receive steering and Doppler at arrival."""
    k = 2 * mp.pi * cfg.f_c / cfg.c
    (alpha_t, beta_t), (alpha_r, beta_r) = departure, arrival
    k_ph, k_pv, k_q = (mp.mpf(k_index(i, n)) for i, n in ((p_h, cfg.P_h), (p_v, cfg.P_v), (q, cfg.Q)))
    return k * (
        k_ph * cfg.delta_T * mp.cos(alpha_t - cfg.psi_T) * mp.cos(beta_t)
        + k_pv * cfg.delta_T * mp.sin(beta_t)
        + k_q * cfg.delta_R * mp.cos(alpha_r - cfg.psi_R) * mp.cos(beta_r) * mp.cos(cfg.theta_R)
        + k_q * cfg.delta_R * mp.sin(beta_r) * mp.sin(cfg.theta_R)
        + cfg.v_R * mp.mpf(t) * mp.cos(alpha_r - cfg.eta_R) * mp.cos(beta_r)
    )


def _direction(d):
    """Azimuth and elevation of displacement d, atan2(0, 0) = 0 at a zero displacement."""
    return mp.atan2(d[1], d[0]), mp.atan2(d[2], mp.hypot(d[0], d[1]))


def reference_direct_phase(p_h, p_v, q, t, cfg, tile=(1, 1)):
    """Direct-path phase: departure angles at the tile midpoint, arrival at the reverse bearing."""
    e = _tile_center(p_h, p_v, cfg, tile)
    rx, mid_r = _receive_element(q, t, cfg)
    mid_t = (mp.mpf(0), mp.mpf(0), cfg.H_0 + mp.mpf(cfg.P_v) / 2 * cfg.delta_T)
    alpha_t, beta_t = _direction((rx[0] - e[0], rx[1] - e[1], e[2] - rx[2]))
    alpha_r = mp.pi - alpha_t  # the reverse bearing; a whole turn apart from its wrapped value
    bulk = -2 * mp.pi * cfg.f_c / cfg.c * mp.sqrt(sum((a - b) ** 2 for a, b in zip(mid_t, mid_r)))
    return bulk + _steering(p_h, p_v, q, t, cfg, (alpha_t, beta_t), (alpha_r, beta_t))


def reference_ray_phase(p_h, p_v, q, t, cfg, ray, tile=(1, 1)):
    """Scattered-path deterministic phase of one ray at position ray (random phase excluded)."""
    e = _tile_center(p_h, p_v, cfg, tile)
    rx, mid_r = _receive_element(q, t, cfg)
    mid_t = (mp.mpf(0), mp.mpf(0), cfg.H_0 + mp.mpf(cfg.P_v) / 2 * cfg.delta_T)
    s = tuple(mp.mpf(v) for v in ray)
    xi = mp.sqrt(sum((a - b) ** 2 for a, b in zip(mid_t, s))) + mp.sqrt(sum((a - b) ** 2 for a, b in zip(s, mid_r)))
    departure = _direction(tuple(a - b for a, b in zip(s, e)))
    arrival = _direction(tuple(a - b for a, b in zip(s, rx)))
    return -2 * mp.pi * cfg.f_c / cfg.c * xi + _steering(p_h, p_v, q, t, cfg, departure, arrival)


def ulps(got, ref):
    """|got - ref| in ulps of ref rounded to a float."""
    return float(abs(mp.mpf(float(got)) - ref) / math.ulp(float(ref)))


def _pair(p):
    return p if isinstance(p, tuple) else ((p - 1) % CFG.P_h + 1, (p - 1) // CFG.P_h + 1)


@pytest.mark.parametrize("label", list(MODELS))
def test_point_phases_are_within_a_few_ulps_of_the_extended_precision_reference(label):
    tile = MODELS[label]
    direct, scattered = point_phases(POINTS, CFG, WavefrontModel.parse(label))
    phases = scattered(FIELD)
    rays = [tuple(map(float, row)) for row in FIELD.positions()]
    worst_direct = worst_scattered = 0.0
    for (p, q, t), got_direct, got_rays in zip(POINTS, direct, phases):
        p_h, p_v = _pair(p)
        worst_direct = max(worst_direct, ulps(got_direct, reference_direct_phase(p_h, p_v, q, t, CFG, tile)))
        for ray, got in zip(rays, got_rays):
            worst_scattered = max(worst_scattered, ulps(got, reference_ray_phase(p_h, p_v, q, t, CFG, ray, tile)))
    assert worst_direct <= DIRECT_ULPS, f"direct phase {worst_direct:.2f} ulp"
    assert worst_scattered <= SCATTERED_ULPS, f"scattered phase {worst_scattered:.2f} ulp"


# (dp, dq, dt, t) of st_ccf_parts from base element (1, 1), receive element 1.
CCF_CASES = [((0, 0), 0, 0.01, 0.2), ((2, 1), 1, 0.0, 0.0), ((5, 3), 2, 0.005, 0.37), ((1, 0), 0, 0.2, 0.0)]
CCF_SEED = 3


def _mean_expj(phase_differences):
    """The mean of exp(j * phase) over the given 50-digit phases, summed with mp.fsum."""
    return mp.fsum(mp.expj(d) for d in phase_differences) / len(phase_differences)


def _mp_abs_error(got, ref):
    return float(abs(mp.mpc(complex(got)) - ref))


@pytest.mark.parametrize("label", list(MODELS))
def test_ccf_parts_are_within_a_bound_of_the_extended_precision_reference(label):
    tile = MODELS[label]
    # One realization: the scattered part is the ray mean of realization 0's field.
    rays = [tuple(map(float, row)) for row in field_for_realization(CFG, CCF_SEED, 0).positions()]
    worst_direct = worst_scattered = 0.0
    for dp, dq, dt, t in CCF_CASES:
        rho_los, rho_nlos, _ = st_ccf_parts(dp, dq, dt, t, CFG, WavefrontModel.parse(label), 1, seed=CCF_SEED)
        a, b = ((1, 1, 1, t), (1 + dp[0], 1 + dp[1], 1 + dq, t + dt))
        direct = mp.expj(reference_direct_phase(*a, CFG, tile) - reference_direct_phase(*b, CFG, tile))
        scattered = _mean_expj(
            [reference_ray_phase(*a, CFG, ray, tile) - reference_ray_phase(*b, CFG, ray, tile) for ray in rays]
        )
        worst_direct = max(worst_direct, _mp_abs_error(rho_los, direct))
        worst_scattered = max(worst_scattered, _mp_abs_error(rho_nlos, scattered))
    assert worst_direct <= CCF_ABS, f"direct part off by {worst_direct:.3g}"
    assert worst_scattered <= CCF_ABS, f"scattered part off by {worst_scattered:.3g}"


@pytest.mark.parametrize("t", [0.0, 0.37])
def test_frequency_cf_is_within_a_bound_of_the_extended_precision_reference(t):
    dfs = [0.0, 1e5, 3.3e6, 1e7]
    got = frequency_cf_series(dfs, t, CFG, WavefrontModel.spherical(), 1, seed=CCF_SEED).values
    _, mid_r = _receive_element(1, t, CFG)
    mid_t = (mp.mpf(0), mp.mpf(0), CFG.H_0 + mp.mpf(CFG.P_v) / 2 * CFG.delta_T)

    def distance(a, b):
        return mp.sqrt(mp.fsum((x - y) ** 2 for x, y in zip(a, b)))

    tau_los = distance(mid_t, mid_r) / CFG.c
    rays = [tuple(mp.mpf(float(v)) for v in row) for row in field_for_realization(CFG, CCF_SEED, 0).positions()]
    delays = [(distance(mid_t, s) + distance(s, mid_r)) / CFG.c for s in rays]
    w_los, w_nlos = mp.mpf(CFG.K) / (CFG.K + 1), 1 / (mp.mpf(CFG.K) + 1)
    worst = 0.0
    for df, value in zip(dfs, got):
        ref = w_los * mp.expj(2 * mp.pi * df * tau_los) + w_nlos * _mean_expj([2 * mp.pi * df * d for d in delays])
        worst = max(worst, _mp_abs_error(value, ref))
    assert worst <= FREQUENCY_CF_ABS, f"frequency correlation off by {worst:.3g}"


def _reference_matrix(t, tile):
    """The (Q, P) matrix at time t as 50-digit entries, column p = (p_v - 1) * P_h + p_h as in channel_matrix."""
    w_los, w_nlos = mp.sqrt(mp.mpf(CFG.K) / (CFG.K + 1)), mp.sqrt(1 / (mp.mpf(CFG.K) + 1))
    rays = [tuple(map(float, row)) for row in FIELD.positions()]
    random_phases = [mp.mpf(float(v)) for v in FIELD.phases()]
    rows = []
    for q in range(1, CFG.Q + 1):
        row = []
        for p in range(1, CFG.P_h * CFG.P_v + 1):
            p_h, p_v = _pair(p)
            nlos = mp.fsum(
                mp.expj(phi + reference_ray_phase(p_h, p_v, q, t, CFG, ray, tile)) for phi, ray in zip(random_phases, rays)
            )
            direct = mp.expj(reference_direct_phase(p_h, p_v, q, t, CFG, tile))
            row.append(w_los * direct + w_nlos / mp.sqrt(len(rays)) * nlos)
        rows.append(row)
    return mp.matrix(rows)


def _reference_capacity(H, rho_snr):
    """log2 det(I + (rho/P) Hbar Hbar^H) with Hbar = H scaled to squared Frobenius norm P*Q, in 50 digits."""
    n_q, n_p = H.rows, H.cols
    hbar = H * mp.sqrt(n_p * n_q / mp.fsum(abs(h) ** 2 for h in H))
    return mp.log(mp.re(mp.det(mp.eye(n_q) + (mp.mpf(rho_snr) / n_p) * hbar * hbar.H)), 2)


@pytest.mark.parametrize("label", list(MODELS))
def test_channel_matrix_and_capacity_are_within_a_bound_of_the_extended_precision_reference(label):
    t = 0.37
    ref = _reference_matrix(t, MODELS[label])
    H = channel_matrix(t, CFG, WavefrontModel.parse(label), FIELD).H
    assert H.shape == (ref.rows, ref.cols)
    worst = max(_mp_abs_error(H[i, j], ref[i, j]) for i in range(ref.rows) for j in range(ref.cols))
    assert worst <= MATRIX_ABS, f"matrix entry off by {worst:.3g}"
    off = float(abs(mp.mpf(capacity(H, 10)) - _reference_capacity(ref, 10)))
    assert off <= CAPACITY_ABS, f"capacity off by {off:.3g}"
