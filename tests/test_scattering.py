"""Scatterer fields: von Mises law, placement constraints, determinism, CSV.

Distributional checks run against the density itself (with expected bin
probabilities from fine numeric integration) so sampler and pdf validate
each other; scalar expected values are frozen from an independent series
evaluation of the Bessel function.
"""

import csv
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from nfmimo.geometry import ScenarioConfig, Vec3
from nfmimo.scattering import (
    Ray,
    ScattererField,
    field_for_realization,
    generate_scatterers,
    sample_von_mises,
    von_mises_pdf,
)


def i0_series(x: float, terms: int = 60) -> float:
    """Modified Bessel I0 by its power series; independent of numpy's i0."""
    return sum((x / 2) ** (2 * m) / math.factorial(m) ** 2 for m in range(terms))


# ---------------------------------------------------------------------------
# Density


def test_pdf_uniform_limit():
    # kappa=0 collapses to the uniform circle density 1/(2*pi)
    for alpha in (-3.0, -1.0, 0.0, 0.5, 3.1):
        assert von_mises_pdf(alpha, 0.7, 0.0) == pytest.approx(
            0.15915494309189535, abs=1e-15
        )


def test_pdf_peak_value_kappa_one():
    # e / (2*pi*I0(1)) with I0(1) = 1.2660658777520082 from the series
    expected = math.e / (2 * math.pi * i0_series(1.0))
    assert expected == pytest.approx(0.3417104886234632, abs=1e-15)
    assert von_mises_pdf(1.3, 1.3, 1.0) == pytest.approx(expected, rel=1e-12)


def test_pdf_symmetry_about_mean():
    for x in np.linspace(0, math.pi, 50):
        left = von_mises_pdf(0.4 - x, 0.4, 2.5)
        right = von_mises_pdf(0.4 + x, 0.4, 2.5)
        assert left == pytest.approx(right, rel=1e-12)


def test_pdf_integrates_to_one():
    xs = np.linspace(-math.pi, math.pi, 20001)
    for kappa in (0.0, 1.0, 3.0, 10.0):
        total = np.trapezoid(von_mises_pdf(xs, 0.3, kappa), xs)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_rejects_negative_kappa():
    with pytest.raises(ValueError):
        von_mises_pdf(0.0, 0.0, -1.0)


def test_pdf_vectorized_matches_scalar():
    xs = np.array([-2.0, 0.0, 1.5])
    vec = von_mises_pdf(xs, 0.2, 3.0)
    for x, v in zip(xs, vec):
        assert von_mises_pdf(float(x), 0.2, 3.0) == pytest.approx(float(v), rel=1e-15)


# ---------------------------------------------------------------------------
# Sampler


def test_sampler_deterministic_and_in_range():
    a = sample_von_mises(0.3, 2.0, np.random.default_rng(42), size=1000)
    b = sample_von_mises(0.3, 2.0, np.random.default_rng(42), size=1000)
    assert np.array_equal(a, b)
    assert np.all(a >= -math.pi) and np.all(a < math.pi)


def test_sampler_uniform_limit_chi_square():
    # kappa=0: 1e5 samples over 16 bins, significance 0.01
    rng = np.random.default_rng(0)
    s = sample_von_mises(0.0, 0.0, rng, size=100_000)
    counts, _ = np.histogram(s, bins=np.linspace(-math.pi, math.pi, 17))
    expected = 100_000 / 16
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, 15)


def test_sampler_circular_mean():
    rng = np.random.default_rng(1)
    s = sample_von_mises(0.0, 10.0, rng, size=100_000)
    mean = math.atan2(np.sin(s).mean(), np.cos(s).mean())
    assert abs(mean) < 0.02


def test_sampler_concentration():
    # large kappa concentrates samples: sample std < 3/sqrt(kappa)
    for kappa in (25.0, 100.0):
        rng = np.random.default_rng(5)
        s = sample_von_mises(0.0, kappa, rng, size=50_000)
        assert float(np.std(s)) < 3.0 / math.sqrt(kappa)


def _bin_probs(mu: float, kappa: float, edges: np.ndarray) -> np.ndarray:
    probs = []
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, 101)
        probs.append(float(np.trapezoid(von_mises_pdf(xs, mu, kappa), xs)))
    out = np.array(probs)
    return out / out.sum()


def test_sampler_histogram_tracks_pdf():
    # 1e6 samples, kappa=3, 64 bins. Bins with expected count >= 6400 keep the
    # 5 percent band at >= 4 Poisson sigma, so the per-bin relative check is
    # stable there; every bin must additionally stay within 5 percent of the
    # peak bin mass (low-mass tail bins carry too few counts for a stable
    # per-bin relative comparison at this sample size).
    n = 1_000_000
    edges = np.linspace(-math.pi, math.pi, 65)
    rng = np.random.default_rng(0)
    s = sample_von_mises(0.0, 3.0, rng, size=n)
    counts, _ = np.histogram(s, bins=edges)
    probs = _bin_probs(0.0, 3.0, edges)
    expected = probs * n

    solid = expected >= 6400
    assert solid.sum() >= 20
    rel = np.abs(counts[solid] - expected[solid]) / expected[solid]
    assert float(rel.max()) < 0.05

    norm = np.abs(counts - expected) / expected.max()
    assert float(norm.max()) < 0.05


@pytest.mark.parametrize("kappa", [0.0, 1.0, 3.0, 10.0])
def test_sampler_chi_square_gof(kappa):
    # 1e5 samples, 64 bins, significance 0.01; adjacent bins merged until
    # every expected count is >= 5 (standard chi-square validity rule)
    n = 100_000
    edges = np.linspace(-math.pi, math.pi, 65)
    rng = np.random.default_rng(2024)
    s = sample_von_mises(0.0, kappa, rng, size=n)
    counts, _ = np.histogram(s, bins=edges)
    expected = _bin_probs(0.0, kappa, edges) * n

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    merged_obs = np.array(merged_obs)
    merged_exp = np.array(merged_exp)

    stat = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    crit = float(chi2.ppf(0.99, len(merged_obs) - 1))
    assert stat < crit, f"kappa={kappa}: chi2={stat:.1f} >= {crit:.1f}"


# ---------------------------------------------------------------------------
# Field generation


def test_field_counts():
    cfg = ScenarioConfig()
    field = generate_scatterers(cfg, 1)
    assert field.n_clusters == 5
    assert field.n_rays == 100
    assert all(len(c) == 20 for c in field.clusters)


def test_field_determinism():
    cfg = ScenarioConfig()
    a = generate_scatterers(cfg, 99)
    b = generate_scatterers(cfg, 99)
    assert np.array_equal(a.positions(), b.positions())
    assert np.array_equal(a.phases(), b.phases())
    assert a.seed == b.seed == 99


def test_field_positions_above_ground():
    cfg = ScenarioConfig(mu_beta=-0.4, kappa=0.5)
    for seed in range(5):
        field = generate_scatterers(cfg, seed)
        assert np.all(field.positions()[:, 2] >= 0.0)


def test_field_phases_in_range_and_uniform():
    # one large field supplies 1e5 rays; 16-bin chi-square at 0.01
    cfg = ScenarioConfig(L_clusters=100, N_rays=1000)
    field = generate_scatterers(cfg, 3)
    phases = field.phases()
    assert phases.shape == (100_000,)
    assert np.all(phases >= -math.pi) and np.all(phases < math.pi)
    counts, _ = np.histogram(phases, bins=np.linspace(-math.pi, math.pi, 17))
    expected = len(phases) / 16
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, 15)


def test_field_azimuth_concentration():
    # kappa large, mu_alpha=0: ray azimuths seen from the BS midpoint stay
    # within 3/sqrt(kappa) sample std (cluster spread + ray spread combined)
    kappa = 50.0
    cfg = ScenarioConfig(kappa=kappa, L_clusters=20, N_rays=50)
    field = generate_scatterers(cfg, 8)
    origin = cfg.bs_midpoint()
    pos = field.positions()
    az = np.arctan2(pos[:, 1] - origin.y, pos[:, 0] - origin.x)
    assert float(np.std(az)) < 3.0 / math.sqrt(kappa)


def test_field_radial_range():
    cfg = ScenarioConfig(r_min=10.0, r_max=30.0)
    field = generate_scatterers(cfg, 4)
    origin = cfg.bs_midpoint()
    d = np.linalg.norm(field.positions() - np.array(origin.as_tuple()), axis=1)
    assert np.all(d >= 10.0 - 1e-9) and np.all(d <= 30.0 + 1e-9)


def test_field_for_realization_streams():
    cfg = ScenarioConfig()
    a = field_for_realization(cfg, 7, 0)
    b = field_for_realization(cfg, 7, 1)
    c = field_for_realization(cfg, 7, 0)
    assert not np.array_equal(a.positions(), b.positions())
    assert np.array_equal(a.positions(), c.positions())
    assert np.array_equal(a.phases(), c.phases())


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3)])
def test_field_golden(seed, index):
    # Recorded with ScattererField.to_csv from the Ray-by-Ray generator;
    # pins the draw order of the RNG stream.
    table = np.loadtxt(
        Path(__file__).parent / "data" / f"field_seed{seed}_index{index}.csv",
        delimiter=",",
        skiprows=1,
    )
    field = field_for_realization(ScenarioConfig(), seed, index)
    np.testing.assert_allclose(field.positions(), table[:, 2:5], rtol=1e-12, atol=0)
    np.testing.assert_allclose(field.phases(), table[:, 5], rtol=1e-12, atol=0)


def test_field_seeds_do_not_alias():
    cfg = ScenarioConfig(L_clusters=1, N_rays=3)
    with pytest.raises(ValueError, match="seed"):
        field_for_realization(cfg, -1, 0)
    fields = [field_for_realization(cfg, s, 0).positions() for s in (0, 2**64 - 1, 2**64)]
    for a, b in itertools.combinations(fields, 2):
        assert not np.array_equal(a, b)


def test_field_arrays_cached_read_only():
    field = generate_scatterers(ScenarioConfig(L_clusters=2, N_rays=3), 1)
    assert field.positions() is field.positions()
    with pytest.raises(ValueError):
        field.positions()[0, 0] = 1.0
    with pytest.raises(ValueError):
        field.phases()[0] = 0.0
    assert [r.position.as_tuple() for r in field.rays()] == [tuple(p) for p in field.positions().tolist()]
    assert [r.phase for r in field.rays()] == field.phases().tolist()
    rebuilt = ScattererField(clusters=field.clusters, seed=field.seed)
    assert np.array_equal(rebuilt.positions(), field.positions())


def test_generation_failure_reports_configuration():
    # forced below-ground placement: rays point straight down from a 20 m
    # mast with ranges that always overshoot the ground
    cfg = ScenarioConfig(
        mu_beta=-math.pi / 2, kappa=1e6, r_min=30.0, r_max=40.0,
        cluster_level_angles=False,
    )
    with pytest.raises(ValueError, match="mu_beta|kappa"):
        generate_scatterers(cfg, 0)


def test_global_angle_mode():
    # cluster_level_angles=False: all clusters share the configured means, so
    # with huge kappa every ray lands in nearly the same direction
    cfg = ScenarioConfig(
        kappa=1e4, cluster_level_angles=False, L_clusters=3, N_rays=5
    )
    field = generate_scatterers(cfg, 2)
    origin = cfg.bs_midpoint()
    pos = field.positions()
    az = np.arctan2(pos[:, 1] - origin.y, pos[:, 0] - origin.x)
    assert float(np.ptp(az)) < 0.2


# ---------------------------------------------------------------------------
# Ray / field validation and CSV


def test_ray_phase_range_enforced():
    with pytest.raises(ValueError):
        Ray(position=__import__("nfmimo").Vec3(1, 2, 3), phase=math.pi)


def test_ray_phase_follows_the_real_rule():
    # True was stored as the phase and used as 1.0 rad; "x" ended in a TypeError.
    for bad in (True, np.True_, "x", None, math.nan, math.inf, math.nextafter(-math.pi, -math.inf), math.pi):
        with pytest.raises(ValueError, match="^phase "):
            Ray(Vec3(1.0, 2.0, 3.0), bad)
    for ok in (0, np.float64(0.5), -math.pi):
        ray = Ray(Vec3(1.0, 2.0, 3.0), ok)
        assert type(ray.phase) is float and ray.phase == ok


def test_empty_field_rejected():
    with pytest.raises(ValueError):
        ScattererField(clusters=(), seed=None)
    with pytest.raises(ValueError):
        ScattererField(clusters=((),), seed=None)


def test_field_csv_roundtrip(tmp_path):
    cfg = ScenarioConfig(L_clusters=3, N_rays=4)
    field = generate_scatterers(cfg, 5)
    path = tmp_path / "field.csv"
    field.to_csv(path)

    header = path.read_text().splitlines()[0]
    assert header == "cluster,ray,x_m,y_m,z_m,phase_rad"

    back = ScattererField.from_csv(path)
    assert back.n_clusters == 3 and back.n_rays == 12
    assert np.array_equal(back.positions(), field.positions())
    assert np.array_equal(back.phases(), field.phases())


def field_csv_with(tmp_path, column, cell):
    """A to_csv file of a small field whose second row holds cell in column."""
    path = tmp_path / "field.csv"
    generate_scatterers(ScenarioConfig(L_clusters=2, N_rays=2), 5).to_csv(path)
    rows = list(csv.DictReader(path.open(newline="", encoding="utf-8")))
    rows[1][column] = cell
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("column", ["cluster", "ray"])
@pytest.mark.parametrize("cell", ["1_0", "+1", " 2 ", "-1", "1.0", "", "\u0661"])
def test_field_csv_indices_take_digits_only(tmp_path, column, cell):
    # int() read "1_0" as 10, "+1" as 1 and " 2 " as 2.
    with pytest.raises(ValueError, match=f"^column {column}: expected digits 0-9 only"):
        ScattererField.from_csv(field_csv_with(tmp_path, column, cell))


@pytest.mark.parametrize("column", ["x_m", "y_m", "z_m", "phase_rad"])
@pytest.mark.parametrize("cell", ["1_0", "0_5"])
def test_field_csv_reals_refuse_underscores(tmp_path, column, cell):
    # float() read "1_0" as 10.0 and "0_5" as 0.5, where the real CLI flags refuse both.
    with pytest.raises(ValueError, match=f"^column {column}: expected a number without '_', got '{cell}'"):
        ScattererField.from_csv(field_csv_with(tmp_path, column, cell))


@pytest.mark.parametrize(
    "column, cell",
    [(c, v) for c in ("x_m", "y_m", "z_m", "phase_rad") for v in ("nan", "inf", "-inf", "1e400")]
    + [("phase_rad", "3.5"), ("phase_rad", "-4.0")],
)
def test_field_csv_reals_outside_their_rule_name_their_column(tmp_path, column, cell):
    # Vec3 and Ray refused these, but as "Vec3.x must ..." or "phase must ...", naming no column.
    with pytest.raises(ValueError, match=f"^column {column}: .* must"):
        ScattererField.from_csv(field_csv_with(tmp_path, column, cell))


@pytest.mark.parametrize("row, column", [("1", "x_m"), ("1,1,1.0,2.0,3.0", "phase_rad")])
def test_field_csv_short_row_names_its_first_missing_column(tmp_path, row, column):
    # A row "1" used to end in "TypeError: float() argument must be a string or a real number, not 'NoneType'".
    path = tmp_path / "field.csv"
    path.write_text(f"cluster,ray,x_m,y_m,z_m,phase_rad\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^column {column}: missing cell"):
        ScattererField.from_csv(path)


def ray_loop_csv(field, path):
    """The per-Ray writer loop over the cluster view: the reference for ScattererField.to_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "ray", "x_m", "y_m", "z_m", "phase_rad"])
        for li, cluster in enumerate(field.clusters, start=1):
            for ni, ray in enumerate(cluster, start=1):
                writer.writerow(
                    [li, ni, repr(ray.position.x), repr(ray.position.y), repr(ray.position.z), repr(ray.phase)]
                )


def test_field_csv_bytes_match_the_ray_loop(tmp_path):
    uneven = ScattererField(
        (
            (Ray(Vec3(1.0, 2.0, 3.0), 0.5), Ray(Vec3(-4.25, 1e-9, 0.0), -math.pi)),
            (Ray(Vec3(30.0, 4.0, 2.0 / 3.0), 2.0),),
        )
    )
    for field in (uneven, field_for_realization(ScenarioConfig(L_clusters=3, N_rays=4), 2, 5)):
        field.to_csv(tmp_path / "array.csv")
        ray_loop_csv(field, tmp_path / "loop.csv")
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_field_csv_write_is_atomic(tmp_path, monkeypatch):
    class Unwritable:
        def __repr__(self):
            raise RuntimeError("cannot format")

    field = generate_scatterers(ScenarioConfig(L_clusters=2, N_rays=2), 3)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    before = path.read_bytes()
    monkeypatch.setattr(field, "phases", lambda: np.array([0.0, Unwritable(), 0.0, 0.0], dtype=object))
    with pytest.raises(RuntimeError):
        field.to_csv(path)  # fails after the first ray's row
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["field.csv"]
