"""The one integer rule: every index, count and seed of the library is a Python or numpy integer.

For each integer argument, hypothesis draws bools, numpy bools, integral and
fractional floats, NaN, inf, strings, None, numpy integers and integers out
of range. A call either returns exactly what the call with the equal Python
int returns, or raises a ValueError whose message begins with the argument's
name; no call raises a TypeError. The runs are derandomized and keep no
example database, so every run draws the same examples.

Real numbers follow one rule too, geometry._real's: a finite int or float,
never a bool, at least its bound. Every real argument, config field and
sweep number refuses bools, numpy bools, strings, None, NaN, infinities and
the value just past its bound with a ValueError that begins with its name
(or its sweep key), accepts its bound, and gives for a numpy float the
result of the equal Python float.

The integers of a config or sweep dict follow one rule, geometry._json_index's:
the integer rule, where an integral float such as 64.0 (as JSON may write a
count) reads as its int. Every integer sweep key and config count field
refuses bools, numpy bools, fractions, NaN, inf, strings, None and the
values just past its bounds with a ValueError that names its sweep key or
config field, and runs a numpy integer or an integral float as the equal
Python int: the same CSV bytes and the same manifest sweep.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmimo.channel import WavefrontModel, channel_matrix, los_phase, rician_weights, tau_los
from nfmimo.geometry import (
    ScenarioConfig,
    Vec3,
    bs_element_position,
    config_from_dict,
    element_index,
    element_rowcol,
    element_to_subarray,
    k_index,
    make_partition,
    mr_element_position,
    optimal_subarray_size,
    partition_counts,
    rayleigh_distance_aperture,
    subarray_center,
    subarray_size,
)
from nfmimo.harness import Experiment, run_experiment
from nfmimo.scattering import ScattererField, field_for_realization, generate_scatterers, sample_von_mises, von_mises_pdf
from nfmimo.stats import (
    _realization_mean,
    _validate_pair,
    capacity,
    frequency_cf_series,
    mean_capacity,
    spatial_ccf_series,
    st_ccf,
    temporal_acf_series,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

CFG = ScenarioConfig(P_h=4, P_v=3, Q=2, L_clusters=1, N_rays=2)
PARTITION = make_partition(CFG, 2, 2)  # 2 x 2 tiles
PLANAR = WavefrontModel.planar()

# site id -> (argument name, call with the argument's value, lowest and highest accepted value; None is unbounded)
SITES = {
    **{f"ScenarioConfig.{name}": (name, lambda v, name=name: ScenarioConfig(**{name: v}), 1, None)
       for name in ("P_h", "P_v", "Q", "L_clusters", "N_rays")},
    "k_index.i": ("i", lambda v: k_index(v, 4), 1, 4),
    "k_index.n": ("n", lambda v: k_index(1, v), 1, None),
    "element_index.p_h": ("p_h", lambda v: element_index(v, 1, 4, 3), 1, 4),
    "element_index.p_v": ("p_v", lambda v: element_index(1, v, 4, 3), 1, 3),
    "element_index.P_h": ("P_h", lambda v: element_index(1, 1, v, 3), 1, None),
    "element_index.P_v": ("P_v", lambda v: element_index(1, 1, 4, v), 1, None),
    "element_rowcol.p": ("p", lambda v: element_rowcol(v, 4, 3), 1, 12),
    "element_rowcol.P_h": ("P_h", lambda v: element_rowcol(1, v, 3), 1, None),
    "element_rowcol.P_v": ("P_v", lambda v: element_rowcol(1, 4, v), 1, None),
    "bs_element_position.p_h": ("p_h", lambda v: bs_element_position(v, 1, CFG), 1, 4),
    "bs_element_position.p_v": ("p_v", lambda v: bs_element_position(1, v, CFG), 1, 3),
    "mr_element_position.q": ("q", lambda v: mr_element_position(v, 0.0, CFG), 1, 2),
    "partition_counts.P": ("P", lambda v: partition_counts(v, 1), 1, None),
    "partition_counts.p_max": ("p_max", lambda v: partition_counts(4, v), 1, 4),
    "subarray_size.index": ("index", lambda v: subarray_size(v, 4, 3), 1, 2),
    "subarray_size.P": ("P", lambda v: subarray_size(1, v, 1), 1, None),
    "subarray_size.p_max": ("p_max", lambda v: subarray_size(1, 4, v), 1, 4),
    "element_to_subarray.p": ("p", lambda v: element_to_subarray(v, 2), 1, None),
    "element_to_subarray.p_max": ("p_max", lambda v: element_to_subarray(3, v), 1, None),
    "subarray_center.sh": ("sh", lambda v: subarray_center(v, 1, CFG, PARTITION), 1, 2),
    "subarray_center.sv": ("sv", lambda v: subarray_center(1, v, CFG, PARTITION), 1, 2),
    "WavefrontModel.p_max_h": ("p_max_h", lambda v: WavefrontModel.subarray(v, 2), 1, None),
    "WavefrontModel.p_max_v": ("p_max_v", lambda v: WavefrontModel.subarray(2, v), 1, None),
    "los_phase.p": ("p", lambda v: los_phase(v, 1, 0.0, CFG, PLANAR), 1, 12),
    "los_phase.p_h": ("p_h", lambda v: los_phase((v, 1), 1, 0.0, CFG, PLANAR), 1, 4),
    "los_phase.p_v": ("p_v", lambda v: los_phase((1, v), 1, 0.0, CFG, PLANAR), 1, 3),
    "los_phase.q": ("q", lambda v: los_phase(1, v, 0.0, CFG, PLANAR), 1, 2),
    "_validate_pair.base_p_h": ("base_p", lambda v: _validate_pair((v, 1), (0, 0), 1, 0, CFG), 1, 4),
    "_validate_pair.base_p_v": ("base_p", lambda v: _validate_pair((1, v), (0, 0), 1, 0, CFG), 1, 3),
    "_validate_pair.dp_h": ("dp", lambda v: _validate_pair((1, 1), (v, 0), 1, 0, CFG), 0, 3),
    "_validate_pair.dp_v": ("dp", lambda v: _validate_pair((1, 1), (0, v), 1, 0, CFG), 0, 2),
    "_validate_pair.base_q": ("base_q", lambda v: _validate_pair((1, 1), (0, 0), v, 0, CFG), 1, 2),
    "st_ccf.dq": ("dq", lambda v: st_ccf((1, 0), v, 0.0, 0.0, CFG, PLANAR, 1), 0, 1),
    "_realization_mean.n_realizations": ("n_realizations", lambda v: _realization_mean(float, v), 1, None),
    "mean_capacity.phase_draws": ("phase_draws", lambda v: mean_capacity(CFG, PLANAR, 10.0, 1, phase_draws=v), 1, None),
    "field_for_realization.master_seed": ("master_seed", lambda v: field_for_realization(CFG, v, 0), 0, None),
    "field_for_realization.index": ("index", lambda v: field_for_realization(CFG, 0, v), 0, None),
    "generate_scatterers.rng": ("rng", lambda v: generate_scatterers(CFG, v), 0, None),
    "Experiment.seed": ("seed", lambda v: Experiment(kind="complexity_sweep", seed=v), 0, None),
}

# Values no integer argument accepts.
NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.integers(-3, 12).map(float),
    st.integers(1, 4).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.none(),
)


def integers(lo: int, hi: int | None):
    """Python and numpy integers in [lo, hi] (at most six of them) and out of range on either side."""
    inside = st.integers(lo, lo + 5 if hi is None else min(hi, lo + 5))
    outside = [st.integers(-(2**70), lo - 1)] + ([] if hi is None else [st.integers(hi + 1, 2**70)])
    numpy_outside = [st.integers(-(2**62), lo - 1)] + ([] if hi is None else [st.integers(hi + 1, 2**62)])
    return st.one_of(inside, inside.map(np.int64), *outside, *(s.map(np.int64) for s in numpy_outside))


def _same(a, b) -> bool:
    """Equal values of equal types; arrays and scatterer fields element for element."""
    if isinstance(a, ScattererField):
        return _same((a.positions(), a.phases(), a.seed), (b.positions(), b.phases(), b.seed))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _outcome(call, v):
    """("value", result) or ("ValueError", message); any other exception propagates and fails the test."""
    try:
        return "value", call(v)
    except ValueError as exc:
        return "ValueError", str(exc)


def _check(site: str, v) -> None:
    name, call, lo, hi = SITES[site]
    kind, got = _outcome(call, v)
    if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool)):
        assert kind == "ValueError" and got.startswith(f"{name} "), (v, kind, got)
        return
    ref_kind, ref = _outcome(call, int(v))
    assert ref_kind == kind == ("value" if lo <= v and (hi is None or v <= hi) else "ValueError")
    assert _same(got, ref) if kind == "value" else got.startswith(f"{name} "), (v, got)


@pytest.mark.parametrize("site", list(SITES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_integer_argument_follows_the_integer_rule(site, data):
    _, _, lo, hi = SITES[site]
    _check(site, data.draw(st.one_of(NOT_INTEGERS, integers(lo, hi))))


@pytest.mark.parametrize("site", list(SITES))
def test_every_integer_argument_refuses_bools_and_floats_and_takes_numpy_integers(site):
    lo = SITES[site][2]
    for v in (True, False, np.True_, float(lo), lo + 0.5, math.nan, math.inf, str(lo), None, np.int64(lo), lo - 1):
        _check(site, v)


def test_the_motivating_calls_are_refused_by_name():
    with pytest.raises(ValueError, match="^i "):
        k_index(True, 4)
    with pytest.raises(ValueError, match="^q "):
        los_phase(1, 1.5, 0.0, CFG, PLANAR)
    with pytest.raises(ValueError, match="^dq "):
        st_ccf((1, 0), 0.5, 0.0, 0.0, CFG, PLANAR, 1)
    with pytest.raises(ValueError, match="^K "):
        rician_weights(math.nan)


def test_run_experiment_refuses_a_fractional_seed_before_writing(tmp_path):
    # field_for_realization used to truncate the seed: the CSV said 1.5 and held seed 1's values.
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="^seed "):
        run_experiment(Experiment(kind="temporal_acf", sweep={"points": 3, "n_realizations": 1}, seed=1.5, output=out), CFG)
    assert not out.exists()


# site id -> (argument name, call with the argument's value): the real-valued kappa and K.
REAL_SITES = {
    "von_mises_pdf.kappa": ("kappa", lambda v: von_mises_pdf(0.3, 0.0, v)),
    "sample_von_mises.kappa": ("kappa", lambda v: sample_von_mises(0.0, v, np.random.default_rng(0))),
    "rician_weights.K": ("K", rician_weights),
}


@pytest.mark.parametrize("site", list(REAL_SITES))
@PROPERTY_SETTINGS
@given(v=st.one_of(NOT_INTEGERS, st.floats(0.0, 50.0), st.integers(-3, 50), st.integers(0, 5).map(np.int64)))
def test_kappa_and_k_are_finite_numbers_at_least_zero(site, v):
    name, call = REAL_SITES[site]
    kind, got = _outcome(call, v)
    number = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v >= 0
    if kind == "value":
        assert number and _same(got, call(float(v))), (v, got)
    else:
        assert got.startswith(f"{name} ") and not number, (v, got)


def _sweep(kind: str, key: str, wrap=lambda v: v, **rest):
    """A call of v that runs kind on CFG with sweep key set to wrap(v) and rest; it gives the bytes of the CSVs."""

    def call(v) -> dict:
        with tempfile.TemporaryDirectory() as out:
            run_experiment(Experiment(kind=kind, sweep={key: wrap(v), **rest}, output=Path(out)), CFG)
            return {path.name: path.read_bytes() for path in sorted(Path(out).glob("*.csv"))}

    return call


DEFAULTS = ScenarioConfig()
FIELD = field_for_realization(CFG, 0, 0)
AT_LEAST_0 = (0, False, 1.0)
ANY = (-math.inf, False, 0.3)
# The real fields of ScenarioConfig: field -> bound, as (lo, above, ok) below.
CONFIG_BOUNDS = {
    **{name: (0, True, getattr(DEFAULTS, name)) for name in ("f_c", "c", "H_0", "D_0", "delta_T", "delta_R", "r_min")},
    **{name: ANY for name in ("psi_T", "psi_R", "theta_R", "eta_R", "mu_alpha", "mu_beta")},
    **{name: AT_LEAST_0 for name in ("v_R", "K", "kappa")},
    "r_max": (DEFAULTS.r_min, False, DEFAULTS.r_max),
}
# Every other real site: site id -> (name, call, (lo, above, ok)). The value must be at least lo, or above lo when
# above is set, and ok is one it accepts. A config call returns the config's repr, so a numpy float kept in a field
# shows; a sweep call, the bytes of the CSVs written. These join REAL_SITES only here, after the test above
# took its three sites (finite and >= 0) as parameters.
MORE_REAL_SITES = {
    **{f"ScenarioConfig.{name}": (name, lambda v, name=name: repr(ScenarioConfig(**{name: v})), bound)
       for name, bound in CONFIG_BOUNDS.items()},
    **{f"config_from_dict.{name}": (name, lambda v, name=name: repr(config_from_dict({name: v})), bound)
       for name, bound in CONFIG_BOUNDS.items()},
    "mr_midpoint.t": ("t", lambda v: repr(CFG.mr_midpoint(v)), AT_LEAST_0),
    "mr_element_position.t": ("t", lambda v: repr(mr_element_position(2, v, CFG)), AT_LEAST_0),
    "tau_los.t": ("t", lambda v: tau_los(v, CFG), AT_LEAST_0),
    "optimal_subarray_size.t": ("t", lambda v: optimal_subarray_size(CFG, v), AT_LEAST_0),
    "channel_matrix.t": ("t", lambda v: channel_matrix(v, CFG, PLANAR, FIELD).H, AT_LEAST_0),
    "temporal_acf_series.t": ("t", lambda v: temporal_acf_series([0.0, 0.01], v, CFG, PLANAR, 1).values, AT_LEAST_0),
    "frequency_cf_series.t": ("t", lambda v: frequency_cf_series([0.0, 1e6], v, CFG, PLANAR, 1).values, AT_LEAST_0),
    "mean_capacity.t": ("t", lambda v: mean_capacity(CFG, PLANAR, 10.0, 1, t=v), AT_LEAST_0),
    "temporal_acf_series.dts": ("dts", lambda v: temporal_acf_series([0.0, v], 0.0, CFG, PLANAR, 1).values, AT_LEAST_0),
    "frequency_cf_series.dfs": ("dfs", lambda v: frequency_cf_series([0.0, v], 0.0, CFG, PLANAR, 1).values, AT_LEAST_0),
    "st_ccf.dt": ("dt", lambda v: st_ccf((1, 0), 0, v, 0.0, CFG, PLANAR, 1), AT_LEAST_0),
    # From t = 0.5 s a lag may reach back to t = 0.
    "spatial_ccf_series.dt": (
        "dt", lambda v: spatial_ccf_series([(1, 0)], 1, v, 0.5, CFG, PLANAR, 1).values, (-0.5, False, -0.25)
    ),
    "von_mises_pdf.mu": ("mu", lambda v: von_mises_pdf(0.3, v, 1.0), ANY),
    "sample_von_mises.mu": ("mu", lambda v: sample_von_mises(v, 1.0, np.random.default_rng(0)), ANY),
    "capacity.rho_snr": ("rho_snr", lambda v: capacity(np.eye(2), v), AT_LEAST_0),
    "mean_capacity.rho_snr": ("rho_snr", lambda v: mean_capacity(CFG, PLANAR, v, 1), AT_LEAST_0),
    "rayleigh_distance_aperture.diagonal": ("diagonal", lambda v: rayleigh_distance_aperture(v, 0.06), (0, True, 1.0)),
    "rayleigh_distance_aperture.wavelength": (
        "wavelength", lambda v: rayleigh_distance_aperture(1.0, v), (0, True, 0.06)
    ),
    "Vec3.x": ("Vec3.x", lambda v: Vec3(v, 0.0, 0.0), ANY),
    "Vec3.y": ("Vec3.y", lambda v: Vec3(0.0, v, 0.0), ANY),
    "Vec3.z": ("Vec3.z", lambda v: Vec3(0.0, 0.0, v), ANY),
    "sweep.t": ("t", _sweep("capacity_sweep", "t", n_realizations=1, snr_db_list=[10.0]), AT_LEAST_0),
    "sweep.dt": ("dt", _sweep("spatial_ccf", "dt", n_realizations=1, max_offset=1), AT_LEAST_0),
    "sweep.dt_max": ("dt_max", _sweep("temporal_acf", "dt_max", points=2, n_realizations=1), AT_LEAST_0),
    "sweep.df_max": ("df_max", _sweep("frequency_cf", "df_max", points=2, n_realizations=1), AT_LEAST_0),
    "sweep.snr_db_list": ("snr_db_list", _sweep("capacity_sweep", "snr_db_list", lambda v: [v], n_realizations=1), ANY),
    "sweep.frequencies_hz": (
        "frequencies_hz", _sweep("rayleigh_table", "frequencies_hz", lambda v: [v]), (0, True, 5e9)
    ),
    "sweep.apertures_m": ("apertures_m", _sweep("rayleigh_table", "apertures_m", lambda v: [[v, 1.0]]), (0, True, 1.5)),
}
REAL_SITES.update({site: (name, call) for site, (name, call, _) in MORE_REAL_SITES.items()})
REAL_BOUNDS = {site: MORE_REAL_SITES[site][2] if site in MORE_REAL_SITES else AT_LEAST_0 for site in REAL_SITES}
# Fields for which None picks the default.
TAKE_NONE = {
    f"{how}.{name}" for how in ("ScenarioConfig", "config_from_dict") for name in ("delta_T", "delta_R", "r_max")
}


@pytest.mark.parametrize("site", list(REAL_SITES))
def test_every_real_argument_follows_the_real_rule(site):
    name, call = REAL_SITES[site]
    lo, above, ok = REAL_BOUNDS[site]
    # A sweep number may be refused by its reader, naming the sweep key, or further in, naming the argument.
    prefixes = (f"{name} ", f"sweep key {name!r} ") if site.startswith("sweep.") else (f"{name} ",)
    past = [] if lo == -math.inf else [lo if above else math.nextafter(lo, -math.inf)]
    for v in (True, np.True_, "1", *([] if site in TAKE_NONE else [None]), math.nan, math.inf, -math.inf, *past):
        kind, got = _outcome(call, v)
        assert kind == "ValueError" and got.startswith(prefixes), (v, kind, got)
    for x in map(float, ([] if above or lo == -math.inf else [lo]) + [ok]):
        kind, got = _outcome(call, x)
        assert kind == "value", (x, got)
        assert _same(call(np.float64(x)), got), x


def _run(kind: str, key: str, wrap=lambda v: v, **rest):
    """A call of v that runs kind on CFG with sweep key set to wrap(v) and rest; it gives the CSV bytes and the
    manifest's sweep as read back from its JSON."""

    def call(v) -> tuple:
        with tempfile.TemporaryDirectory() as out:
            run_experiment(Experiment(kind=kind, sweep={key: wrap(v), **rest}, output=Path(out)), CFG)
            manifest = json.loads((Path(out) / "manifest.json").read_text(encoding="utf-8"))
            return {path.name: path.read_bytes() for path in sorted(Path(out).glob("*.csv"))}, manifest["sweep"]

    return call


# site id -> (the text a refusal begins with, call with the value, lowest and highest accepted value, a value it accepts).
# CFG has P_h = 4, P_v = 3 and Q = 2, so a tile side lies in [1, 3], max_offset in [0, 3] and dq in [0, 1].
DICT_SITES = {
    "sweep.points": ("sweep key 'points'", _run("temporal_acf", "points", n_realizations=1), 1, None, 2),
    "sweep.n_realizations": ("sweep key 'n_realizations'", _run("temporal_acf", "n_realizations", points=2), 1, None, 2),
    "sweep.phase_draws": (
        "sweep key 'phase_draws'", _run("capacity_sweep", "phase_draws", n_realizations=1, snr_db_list=[10.0]), 1, None, 2
    ),
    "sweep.max_offset": ("sweep key 'max_offset'", _run("spatial_ccf", "max_offset", n_realizations=1), 0, 3, 1),
    "sweep.dq": ("sweep key 'dq'", _run("spatial_ccf", "dq", n_realizations=1, max_offset=1), 0, 1, 1),
    "sweep.sides": ("sweep key 'sides'", _run("error_vs_array", "sides", lambda v: [2, v]), 1, None, 3),
    "sweep.p_max_list": ("sweep key 'p_max_list'", _run("error_vs_subarray", "p_max_list", lambda v: [1, v]), 1, 3, 2),
    "sweep.p_max_list.complexity": (
        "sweep key 'p_max_list'", _run("complexity_sweep", "p_max_list", lambda v: [1, v]), 1, 3, 2
    ),
    **{f"config_from_dict.{name}": (f"config field {name} ", lambda v, name=name: repr(config_from_dict({name: v})), 1,
                                     None, 2)
       for name in ("P_h", "P_v", "Q", "L_clusters", "N_rays")},
}


@pytest.mark.parametrize("site", list(DICT_SITES))
def test_every_dict_integer_follows_the_json_integer_rule(site):
    text, call, lo, hi, ok = DICT_SITES[site]
    past = [lo - 1] + ([] if hi is None else [hi + 1])
    for v in (True, np.True_, 2.5, math.nan, math.inf, "1", None, *past):
        kind, got = _outcome(call, v)
        assert kind == "ValueError" and got.startswith(text), (v, got)
    kind, ref = _outcome(call, ok)
    assert kind == "value", ref
    # A numpy integer runs, and is written to the manifest, as the Python int; a float is recorded as given.
    assert repr(_outcome(call, np.int64(ok))) == repr(("value", ref))
    assert _outcome(call, float(ok)) == ("value", ref)
