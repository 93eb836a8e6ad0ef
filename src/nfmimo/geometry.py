"""Scenario geometry for a downlink with a large uniform planar array.

Coordinates, antenna indexing, the near/far-field boundary distance, and the
subarray partition used by the mixed spherical/planar wavefront model. The
frame is right-handed: the origin sits on the ground directly below the
midpoint of the transmit array, x points toward the receiver, z points up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0


class GeometryError(ValueError):
    """Raised when a geometric configuration is degenerate (coincident points)."""


@dataclass(frozen=True, slots=True)
class Vec3:
    """Point or displacement in the global frame, metres."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _real("Vec3.x", self.x)
        _real("Vec3.y", self.y)
        _real("Vec3.z", self.z)

    def distance_to(self, other: "Vec3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _finite_number(v) -> bool:
    """A finite int or float; bool is rejected although it subclasses int, and so is an int beyond the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -sys.float_info.max <= v <= sys.float_info.max


def _real(name: str, v, lo: float = -math.inf, above: bool = False):
    """The one real rule: a finite int or float, never a bool, at least lo, or above lo when above is set.

    Returns v, a float subclass such as np.float64 as a Python float; anything else is a ValueError naming name.
    """
    if type(v) is float and v - v == 0.0 and (v > lo if above else v >= lo):  # v - v is 0.0 for finite v alone
        return v
    if _finite_number(v) and (v > lo if above else v >= lo):
        return float(v) if isinstance(v, float) else v
    bound = "be a finite number" if lo == -math.inf else f"be finite and {'>' if above else '>='} {lo!r}"
    raise ValueError(f"{name} must {bound}, got {v!r}")


def _digits(text: str) -> int:
    """A count written as ASCII digits only; signs, underscores and spaces, which int() accepts, are refused."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected digits 0-9 only, got {text!r}")
    return int(text)


def _number(text: str) -> float:
    """float(text) without the digit-group underscores float() takes ("1_0"); nan and inf pass, for _real to judge."""
    if "_" in text:
        raise ValueError(f"expected a number without '_', got {text!r}")
    return float(text)


def _index(name: str, v, lo: int = 1, hi: int | None = None) -> int:
    """The one integer rule for indices, counts and seeds: a Python or numpy integer, never a bool, in [lo, hi].

    Returns v as an int; anything else is a ValueError naming name.
    """
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v and (hi is None or v <= hi):
        return int(v)
    raise ValueError(f"{name} must be an integer {f'>= {lo}' if hi is None else f'in [{lo}, {hi}]'}, got {v!r}")


def _json_index(name: str, v, lo: int = 1, hi: int | None = None) -> int:
    """_index for config and sweep dicts, which may give a count as an integral float such as 64.0: it reads as 64."""
    return _index(name, int(v) if isinstance(v, float) and v.is_integer() else v, lo, hi)


# The count fields of ScenarioConfig, read from a dict through _json_index.
_COUNT_FIELDS = ("P_h", "P_v", "Q", "L_clusters", "N_rays")


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable scenario description shared by every module.

    Angles are radians, distances metres, frequencies Hz, speeds m/s. Element
    spacings default to half a wavelength when left as None; the scatterer
    radial range defaults to [r_min, D_0].
    """

    f_c: float = 5e9
    c: float = SPEED_OF_LIGHT
    H_0: float = 20.0
    D_0: float = 50.0
    P_h: int = 64
    P_v: int = 64
    Q: int = 4
    delta_T: float | None = None
    delta_R: float | None = None
    psi_T: float = math.pi / 2
    psi_R: float = math.pi / 2
    theta_R: float = math.pi / 3
    v_R: float = 5.0
    eta_R: float = math.pi / 2
    K: float = 1.0
    kappa: float = 3.0
    mu_alpha: float = 0.0
    mu_beta: float = 0.0
    L_clusters: int = 5
    N_rays: int = 20
    r_min: float = 5.0
    r_max: float | None = None
    cluster_level_angles: bool = True

    def __post_init__(self) -> None:
        # f_c and c come first: the spacing defaults below depend on them.
        for name in ("f_c", "c", "H_0", "D_0", "delta_T", "delta_R"):
            if name.startswith("delta_") and getattr(self, name) is None:
                object.__setattr__(self, name, self.wavelength / 2)
            object.__setattr__(self, name, _real(name, getattr(self, name), 0, above=True))
        if self.r_max is None:
            object.__setattr__(self, "r_max", self.D_0)
        for name in _COUNT_FIELDS:
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        for name in ("psi_T", "psi_R", "theta_R", "eta_R", "mu_alpha", "mu_beta"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("v_R", "K", "kappa"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0))
        object.__setattr__(self, "r_min", _real("r_min", self.r_min, 0, above=True))
        object.__setattr__(self, "r_max", _real("r_max", self.r_max, self.r_min))
        if not isinstance(self.cluster_level_angles, bool):
            raise ValueError(
                f"cluster_level_angles must be a bool, got {self.cluster_level_angles!r}"
            )

    @property
    def wavelength(self) -> float:
        return self.c / self.f_c

    def bs_midpoint(self) -> Vec3:
        """Midpoint of the transmit array; its ground projection is the origin."""
        return Vec3(0.0, 0.0, self.H_0 + 0.5 * self.P_v * self.delta_T)

    def mr_midpoint(self, t: float = 0.0) -> Vec3:
        """Midpoint of the receive array after travelling for t >= 0 seconds; the one check of every time t."""
        t = _real("t", t, 0)
        x, y = self.D_0 + self.v_R * t * math.cos(self.eta_R), self.v_R * t * math.sin(self.eta_R)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"t = {t!r} s moves the receiver (v_R*t = {self.v_R * t!r} m) beyond the float range")
        return Vec3(x, y, 0.0)


def k_index(i: int, n: int) -> float:
    """Signed half-integer offset of element i in a centred n-element line.

    i runs 1..n; the offsets are symmetric about zero and step by one.
    """
    n = _index("n", n)
    return (n - 2 * _index("i", i, 1, n) + 1) / 2.0


def element_index(p_h: int, p_v: int, P_h: int, P_v: int) -> int:
    """Row-major linear index p in 1..P_h*P_v for a (p_h, p_v) grid position."""
    P_h, P_v = _index("P_h", P_h), _index("P_v", P_v)
    return (_index("p_v", p_v, 1, P_v) - 1) * P_h + _index("p_h", p_h, 1, P_h)


def element_rowcol(p: int, P_h: int, P_v: int) -> tuple[int, int]:
    """Inverse of element_index: linear index p back to (p_h, p_v)."""
    P_h, P_v = _index("P_h", P_h), _index("P_v", P_v)
    p = _index("p", p, 1, P_h * P_v)
    return ((p - 1) % P_h + 1, (p - 1) // P_h + 1)


def bs_element_position(p_h: int, p_v: int, cfg: ScenarioConfig) -> Vec3:
    """Global position of transmit element (p_h, p_v).

    Defined as the center of the (p_h, p_v) unit subarray, so the
    per-element wavefront model evaluates its angles exactly here and the
    1x1 tiling is the per-element model by construction. Index 1 sits at
    the negative horizontal offset and the bottom row.
    """
    p_h, p_v = _index("p_h", p_h, 1, cfg.P_h), _index("p_v", p_v, 1, cfg.P_v)
    return Vec3(*map(float, _tile_midpoints(p_h, p_v, cfg, 1, 1)))


def mr_element_position(q: int, t: float, cfg: ScenarioConfig) -> Vec3:
    """Global position of receive element q at time t.

    The receive array is a tilted line through the moving midpoint: within
    the horizontal plane it points along (cos psi_R, sin psi_R), and the
    whole line is raised by the tilt theta_R out of that plane.
    """
    q = _index("q", q, 1, cfg.Q)
    kq = k_index(q, cfg.Q)
    mid = cfg.mr_midpoint(t)
    r = kq * cfg.delta_R
    x, y, z = (
        mid.x + r * math.cos(cfg.psi_R) * math.cos(cfg.theta_R),
        mid.y + r * math.sin(cfg.psi_R) * math.cos(cfg.theta_R),
        mid.z + r * math.sin(cfg.theta_R),
    )
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"delta_R = {cfg.delta_R!r} m puts receive element {q} at t = {t!r} s beyond the float range")
    return Vec3(x, y, z)


def rayleigh_distance_aperture(diagonal: float, wavelength: float) -> float:
    """Near/far boundary 2 d^2 / lambda for an aperture with the given diagonal: finite and above 0, or a ValueError."""
    diagonal, wavelength = _real("diagonal", diagonal, 0, above=True), _real("wavelength", wavelength, 0, above=True)
    return _real("the near-field boundary", 2.0 * diagonal * diagonal / wavelength, 0, above=True)


def rayleigh_distance(cfg: ScenarioConfig) -> float:
    """Near/far boundary of the full transmit array in the configured scenario.

    A 1x1 array has no aperture and gives 0.0. A larger array whose boundary
    overflows or underflows to 0 is refused with a ValueError naming delta_T.
    """
    spans = (cfg.P_h - 1) ** 2 + (cfg.P_v - 1) ** 2
    if spans == 0:
        return 0.0
    try:  # a float power raises on overflow
        boundary = 2.0 * ((cfg.delta_T**2) * spans) / cfg.wavelength
    except OverflowError:
        boundary = math.inf
    if not (math.isfinite(boundary) and boundary > 0):
        raise ValueError(
            f"delta_T = {cfg.delta_T!r} m gives the {cfg.P_h}x{cfg.P_v} array a near-field boundary of "
            f"{boundary!r} m, not a finite distance above 0"
        )
    return boundary


def partition_counts(P: int, p_max: int) -> int:
    """Number of subarrays a P-element axis splits into at target size p_max.

    All subarrays take p_max elements except a possibly smaller trailing one.
    """
    P = _index("P", P)
    return -(-P // _index("p_max", p_max, 1, P))


def subarray_size(index: int, P: int, p_max: int) -> int:
    """Element count of the index-th subarray (1-based) along a P-element axis."""
    counts = partition_counts(P, p_max)  # P and p_max are integers from here on
    return int(min(p_max, P - (_index("index", index, 1, counts) - 1) * p_max))


def element_to_subarray(p: int, p_max: int) -> int:
    """Subarray index (1-based) that element p of an axis falls into."""
    return (_index("p", p) - 1) // _index("p_max", p_max) + 1


@dataclass(frozen=True, eq=False)
class SubarrayPartition:
    """Partition of the transmit grid into near-square tiles of target size.

    counts_* and sizes_* follow the trailing-remainder rule: every tile spans p_max elements on an
    axis except possibly the last. The per-tile planar-wavefront approximation of tile (sh, sv),
    1-based, is anchored at its global midpoint (x[sh-1], y[sh-1], z[sv-1]): a midpoint's x and y
    follow its tile column and its z its tile row, so x and y hold counts_h floats, z counts_v.
    """

    p_max_h: int
    p_max_v: int
    counts_h: int
    counts_v: int
    sizes_h: tuple[int, ...]
    sizes_v: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def subarray_of_element(self, p_h: int, p_v: int) -> tuple[int, int]:
        """Tile (sh, sv), 1-based, of element (p_h, p_v), which must lie on the partitioned grid."""
        return (
            element_to_subarray(_index("p_h", p_h, 1, sum(self.sizes_h)), self.p_max_h),
            element_to_subarray(_index("p_v", p_v, 1, sum(self.sizes_v)), self.p_max_v),
        )


def _tile_midpoints(sh, sv, cfg: ScenarioConfig, p_max_h: int, p_max_v: int):
    """(x, y, z) midpoint of tile (sh, sv), 1-based; sh and sv may be broadcasting integer arrays."""
    size_h = np.minimum(p_max_h, cfg.P_h - (sh - 1) * p_max_h)
    size_v = np.minimum(p_max_v, cfg.P_v - (sv - 1) * p_max_v)
    off_h = ((sh - 1) * p_max_h + 0.5 * size_h - 0.5 * cfg.P_h) * cfg.delta_T
    return (
        off_h * math.cos(cfg.psi_T),
        off_h * math.sin(cfg.psi_T),
        cfg.H_0 + ((sv - 1) * p_max_v + 0.5 * size_v) * cfg.delta_T,
    )


def subarray_center(sh: int, sv: int, cfg: ScenarioConfig, partition: "SubarrayPartition") -> Vec3:
    """Global midpoint of transmit subarray (sh, sv), 1-based indices.

    The horizontal offset of the tile midpoint from the array midpoint is
    ((sh-1) p_max_h + size_h/2 - P_h/2) delta_T along (cos psi_T, sin psi_T);
    the z coordinate is H_0 + ((sv-1) p_max_v + size_v/2) delta_T.
    """
    sh, sv = _index("sh", sh, 1, partition.counts_h), _index("sv", sv, 1, partition.counts_v)
    return Vec3(float(partition.x[sh - 1]), float(partition.y[sh - 1]), float(partition.z[sv - 1]))


@lru_cache(maxsize=128, typed=True)  # typed: True and 1.0 miss the entry of 1 and are refused
def make_partition(cfg: ScenarioConfig, p_max_h: int, p_max_v: int) -> SubarrayPartition:
    """Build the full partition description for target tile size (p_max_h, p_max_v)."""
    counts_h = partition_counts(cfg.P_h, p_max_h)
    counts_v = partition_counts(cfg.P_v, p_max_v)
    sizes_h = (p_max_h,) * (counts_h - 1) + (cfg.P_h - (counts_h - 1) * p_max_h,)  # a short tile trails
    sizes_v = (p_max_v,) * (counts_v - 1) + (cfg.P_v - (counts_v - 1) * p_max_v,)
    x, y, z = _tile_midpoints(np.arange(1, counts_h + 1), np.arange(1, counts_v + 1), cfg, p_max_h, p_max_v)
    for axis in (x, y, z):
        axis.setflags(write=False)
    return SubarrayPartition(
        p_max_h=p_max_h,
        p_max_v=p_max_v,
        counts_h=counts_h,
        counts_v=counts_v,
        sizes_h=sizes_h,
        sizes_v=sizes_v,
        x=x,
        y=y,
        z=z,
    )


def optimal_subarray_size(cfg: ScenarioConfig, t: float = 0.0) -> int:
    """Largest square tile side whose near/far boundary stays at or inside the link range.

    Uses the midpoint-to-midpoint distance at time t; a tile of side p has
    boundary 2 (p-1)^2 delta_T^2 * 2 / lambda (square tile diagonal). Always
    at least 1; capped at min(P_h, P_v).
    """
    dist = cfg.bs_midpoint().distance_to(cfg.mr_midpoint(t))
    best = 1
    for p in range(1, min(cfg.P_h, cfg.P_v) + 1):
        d2 = (cfg.delta_T**2) * 2.0 * (p - 1) ** 2
        if 2.0 * d2 / cfg.wavelength <= dist:
            best = p
        else:
            break
    return best


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain dict, rejecting unknown keys by name."""
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    return ScenarioConfig(
        **{key: _json_index(f"config field {key}", v) if key in _COUNT_FIELDS else v for key, v in data.items()}
    )
