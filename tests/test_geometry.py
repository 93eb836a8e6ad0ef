"""Geometry: positions, near/far boundary, and array partitioning.

Expected values are frozen from straight-line evaluations of the defining
formulas (independent of the library code); each constant's derivation is
noted next to it.
"""

import math

import numpy as np
import pytest

from nfmimo.geometry import (
    ScenarioConfig,
    SubarrayPartition,
    Vec3,
    config_from_dict,
    element_to_subarray,
    element_index,
    element_rowcol,
    bs_element_position,
    make_partition,
    mr_element_position,
    optimal_subarray_size,
    partition_counts,
    rayleigh_distance,
    rayleigh_distance_aperture,
    subarray_center,
    subarray_size,
)

C = 299792458.0


# ---------------------------------------------------------------------------
# ScenarioConfig


def test_default_profile_values():
    cfg = ScenarioConfig()
    assert cfg.f_c == 5e9
    assert cfg.c == C
    assert cfg.H_0 == 20.0
    assert cfg.D_0 == 50.0
    assert cfg.P_h == 64 and cfg.P_v == 64 and cfg.Q == 4
    # lambda = c/f_c exactly; default spacings are half that
    assert cfg.wavelength == C / 5e9
    assert cfg.delta_T == cfg.wavelength / 2
    assert cfg.delta_R == cfg.wavelength / 2
    assert cfg.psi_T == math.pi / 2 and cfg.psi_R == math.pi / 2
    assert cfg.theta_R == math.pi / 3
    assert cfg.v_R == 5.0 and cfg.eta_R == math.pi / 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"P_h": 0},
        {"P_v": -1},
        {"Q": 0},
        {"delta_T": 0.0},
        {"delta_R": -0.01},
        {"f_c": 0.0},
        {"K": -0.5},
        {"kappa": -1.0},
        {"v_R": -2.0},
        {"L_clusters": 0},
        {"N_rays": 0},
        {"r_min": -1.0},
        {"f_c": math.nan, "delta_T": 0.03, "delta_R": 0.03},
        {"f_c": math.inf},
        {"c": math.inf},
        {"c": math.nan},
        {"K": True},
        {"kappa": False},
        {"H_0": True},
        {"P_h": True},
        {"r_min": "5"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    field = next(iter(kwargs))
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**kwargs)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="nope"):
        config_from_dict({"nope": 3})


def test_config_from_dict_rejects_the_removed_rho_snr_field():
    # Every SNR comes from --snr-db / snr_db_list; rho_snr used to be accepted and ignored.
    with pytest.raises(ValueError, match="unknown config field.*rho_snr"):
        config_from_dict({"rho_snr": 10.0})


def test_config_from_dict_applies_defaults_and_overrides():
    cfg = config_from_dict({"P_h": 8, "D_0": 75.0})
    assert cfg.P_h == 8 and cfg.P_v == 64
    assert cfg.D_0 == 75.0


def test_config_from_dict_reads_integral_floats_as_counts():
    cfg = config_from_dict({"P_h": 8.0, "N_rays": 3.0})
    assert (cfg.P_h, cfg.N_rays) == (8, 3) and type(cfg.P_h) is int


@pytest.mark.parametrize("value", [2.5, True, "4", None, math.inf])
def test_config_from_dict_rejects_non_integer_counts(value):
    with pytest.raises(ValueError, match="config field P_h must be an integer"):
        config_from_dict({"P_h": value})


def test_vec3_requires_finite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0.0, 0.0)


# ---------------------------------------------------------------------------
# MR element positions


def test_mr_position_center_of_single_element():
    # Q=1 -> k_1 = 0, so the element sits at the array midpoint [D_0, 0, 0]
    cfg = ScenarioConfig(Q=1)
    pos = mr_element_position(1, 0.0, cfg)
    assert pos.as_tuple() == (50.0, 0.0, 0.0)


def test_mr_position_q1_explicit_spacing():
    # k_1 = (4-2+1)/2 = 1.5; with delta_R = 0.03, psi_R = pi/2, theta_R = pi/3:
    # x = 50 + 1.5*0.03*cos(pi/2)*cos(pi/3), y = 1.5*0.03*1*cos(pi/3) = 0.0225,
    # z = 1.5*0.03*sin(pi/3) = 0.03897114317029973
    cfg = ScenarioConfig(delta_R=0.03)
    pos = mr_element_position(1, 0.0, cfg)
    assert pos.x == pytest.approx(50.0, abs=1e-12)
    assert pos.y == pytest.approx(0.0225, abs=1e-12)
    assert pos.z == pytest.approx(0.03897114317029973, abs=1e-12)


def test_mr_position_q1_default_spacing():
    # same evaluation with delta_R = lambda/2 = 0.0299792458
    cfg = ScenarioConfig()
    pos = mr_element_position(1, 0.0, cfg)
    assert pos.y == pytest.approx(0.022484434350000002, abs=1e-12)
    assert pos.z == pytest.approx(0.0389441826736469, abs=1e-12)


def test_mr_position_motion_moves_y_only():
    # v_R = 5 along eta_R = pi/2: after 1 s the y component gains exactly 5 m
    cfg = ScenarioConfig()
    for q in range(1, cfg.Q + 1):
        p0 = mr_element_position(q, 0.0, cfg)
        p1 = mr_element_position(q, 1.0, cfg)
        assert p1.y - p0.y == pytest.approx(5.0, abs=1e-12)
        assert p1.x == pytest.approx(p0.x, abs=1e-12)
        assert p1.z == pytest.approx(p0.z, abs=1e-12)


def test_mr_position_rejects_bad_arguments():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        mr_element_position(0, 0.0, cfg)
    with pytest.raises(ValueError):
        mr_element_position(5, 0.0, cfg)
    with pytest.raises(ValueError):
        mr_element_position(1, -0.1, cfg)


# ---------------------------------------------------------------------------
# Rayleigh distance


# Printed reference values: {16, 80, 128} m at 2.4 GHz and {34, 167, 267} m at
# 5 GHz for apertures 1x0.1, 1x2, 2x2 m; 2*d_dia^2/lambda reproduces each
# within +-1 m (computed: 16.17, 80.06, 128.09, 33.69, 166.78, 266.85).
REFERENCE_BOUNDARIES = [
    (2.4e9, 1.0, 0.1, 16.0),
    (2.4e9, 1.0, 2.0, 80.0),
    (2.4e9, 2.0, 2.0, 128.0),
    (5e9, 1.0, 0.1, 34.0),
    (5e9, 1.0, 2.0, 167.0),
    (5e9, 2.0, 2.0, 267.0),
]


@pytest.mark.parametrize("f_c,w,h,expected", REFERENCE_BOUNDARIES)
def test_rayleigh_reference_table(f_c, w, h, expected):
    lam = C / f_c
    got = rayleigh_distance_aperture(math.hypot(w, h), lam)
    assert abs(got - expected) <= 1.0


def test_rayleigh_distance_default_config():
    # 2*(lam/2)^2*(63^2+63^2)/lam = 63^2*lam = 237.97525316039997 m
    cfg = ScenarioConfig()
    assert rayleigh_distance(cfg) == pytest.approx(237.97525316039997, abs=1e-9)


def test_rayleigh_distance_point_source():
    cfg = ScenarioConfig(P_h=1, P_v=1)
    assert rayleigh_distance(cfg) == 0.0
    # A 1x1 array has no aperture whatever its spacing.
    assert rayleigh_distance(ScenarioConfig(P_h=1, P_v=1, delta_T=1e200)) == 0.0


@pytest.mark.parametrize("delta_T", [1e200, 1e-170], ids=["overflow", "underflow"])
def test_rayleigh_distance_refuses_a_boundary_out_of_range(delta_T):
    with pytest.raises(ValueError, match="delta_T"):
        rayleigh_distance(ScenarioConfig(P_h=2, P_v=2, delta_T=delta_T))


# ---------------------------------------------------------------------------
# Partitioning


def test_partition_counts_examples():
    assert partition_counts(64, 1) == 64
    assert partition_counts(64, 30) == 3  # non-zero remainder branch
    assert partition_counts(60, 30) == 2  # zero remainder branch


def test_partition_counts_rejects_out_of_range():
    with pytest.raises(ValueError):
        partition_counts(64, 0)
    with pytest.raises(ValueError):
        partition_counts(64, 65)


def test_subarray_size_examples():
    assert subarray_size(1, 64, 30) == 30
    assert subarray_size(3, 64, 30) == 4  # 64 - 2*30
    assert subarray_size(2, 60, 30) == 30
    with pytest.raises(ValueError):
        subarray_size(4, 64, 30)
    with pytest.raises(ValueError):
        subarray_size(0, 64, 30)


def test_sizes_sum_to_dimension_exhaustive():
    for P in range(1, 129):
        for p_max in range(1, P + 1):
            n = partition_counts(P, p_max)
            sizes = [subarray_size(i, P, p_max) for i in range(1, n + 1)]
            assert sum(sizes) == P, (P, p_max)
            # every size is p_max except possibly the last
            assert all(s == p_max for s in sizes[:-1])
            assert 1 <= sizes[-1] <= p_max


def test_element_to_subarray_examples():
    assert element_to_subarray(30, 30) == 1
    assert element_to_subarray(31, 30) == 2
    assert element_to_subarray(64, 30) == 3
    for p in range(1, 65):
        assert element_to_subarray(p, 1) == p


def test_element_to_subarray_range_brute_force():
    for P in (1, 7, 60, 64):
        for p_max in range(1, P + 1):
            n = partition_counts(P, p_max)
            for p in range(1, P + 1):
                idx = element_to_subarray(p, p_max)
                assert 1 <= idx <= n, (P, p_max, p)


def test_subarray_center_example():
    # p_max=30, sh=sv=1, delta_T=0.03, psi_T=pi/2, H_0=20, P_h=P_v=64:
    # offset = (0 + 15 - 32)*0.03 = -0.51 along (cos psi, sin psi) = (0, 1);
    # z = 20 + 15*0.03 = 20.45
    cfg = ScenarioConfig(delta_T=0.03)
    part = make_partition(cfg, 30, 30)
    center = subarray_center(1, 1, cfg, part)
    assert center.x == pytest.approx(0.0, abs=1e-12)
    assert center.y == pytest.approx(-0.51, abs=1e-12)
    assert center.z == pytest.approx(20.45, abs=1e-12)


def test_subarray_center_full_array_on_axis():
    # single full-array subarray: offset coefficient 0, z = H_0 + 0.5*P_v*delta_T
    cfg = ScenarioConfig()
    part = make_partition(cfg, cfg.P_h, cfg.P_v)
    center = subarray_center(1, 1, cfg, part)
    assert center.x == pytest.approx(0.0, abs=1e-12)
    assert center.y == pytest.approx(0.0, abs=1e-12)
    assert center.z == pytest.approx(20.0 + 0.5 * 64 * cfg.delta_T, abs=1e-12)


def test_subarray_center_rejects_bad_indices():
    cfg = ScenarioConfig()
    part = make_partition(cfg, 30, 30)
    with pytest.raises(ValueError):
        subarray_center(0, 1, cfg, part)
    with pytest.raises(ValueError):
        subarray_center(1, 4, cfg, part)


def test_unit_partition_centers_equal_element_positions():
    cfg = ScenarioConfig(P_h=6, P_v=5)
    part = make_partition(cfg, 1, 1)
    for p_h in range(1, 7):
        for p_v in range(1, 6):
            center = subarray_center(p_h, p_v, cfg, part)
            elem = bs_element_position(p_h, p_v, cfg)
            assert abs(center.x - elem.x) < 1e-12
            assert abs(center.y - elem.y) < 1e-12
            assert abs(center.z - elem.z) < 1e-12


def test_partition_invariants_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        P_h = int(rng.integers(1, 17))
        P_v = int(rng.integers(1, 17))
        p_h = int(rng.integers(1, P_h + 1))
        p_v = int(rng.integers(1, P_v + 1))
        cfg = ScenarioConfig(P_h=P_h, P_v=P_v)
        part = make_partition(cfg, p_h, p_v)
        assert sum(part.sizes_h) == P_h
        assert sum(part.sizes_v) == P_v
        assert len(part.centers) == part.counts_h
        assert all(len(col) == part.counts_v for col in part.centers)


def test_partition_centers_are_a_read_only_array_of_the_scalar_view():
    cfg = ScenarioConfig(P_h=7, P_v=5, psi_T=0.3)
    part = make_partition(cfg, 3, 2)
    assert part.centers.shape == (3, 3, 3) and not part.centers.flags.writeable
    for sh in range(1, 4):
        for sv in range(1, 4):
            assert tuple(part.centers[sh - 1, sv - 1]) == subarray_center(sh, sv, cfg, part).as_tuple()
    # the trailing tiles hold one element each: their midpoints are element positions
    assert subarray_center(3, 3, cfg, part) == bs_element_position(7, 5, cfg)


def test_element_rowcol_roundtrip():
    seen = set()
    for p_h in range(1, 7):
        for p_v in range(1, 6):
            p = element_index(p_h, p_v, 6, 5)
            assert element_rowcol(p, 6, 5) == (p_h, p_v)
            seen.add(p)
    assert seen == set(range(1, 31))


def test_partition_subarray_of_element_matches_scalar_map():
    cfg = ScenarioConfig(P_h=9, P_v=7)
    part = make_partition(cfg, 4, 3)
    for p_h in range(1, 10):
        for p_v in range(1, 8):
            sh, sv = part.subarray_of_element(p_h, p_v)
            assert sh == element_to_subarray(p_h, 4)
            assert sv == element_to_subarray(p_v, 3)


# ---------------------------------------------------------------------------
# Optimal subarray size


def test_optimal_subarray_size_default_config():
    # largest p with per-subarray boundary 2*delta_T^2*2*(p-1)^2/lambda not
    # exceeding the midpoint separation 54.215 m; straight-line scan gives 31
    cfg = ScenarioConfig()
    assert optimal_subarray_size(cfg) == 31


def test_optimal_subarray_size_tiny_array():
    # single-element subarrays have boundary 0 <= any distance, so at least 1;
    # a 2x2 array's full aperture is still tiny vs 50 m, so the whole array fits
    cfg = ScenarioConfig(P_h=2, P_v=2)
    assert optimal_subarray_size(cfg) == 2
