"""Complex channel synthesis under spherical, planar, and subarray wavefronts.

Every model is one partition of the transmit array: angles and propagation
distances are evaluated once per tile midpoint, elements inside a tile see a
linear steering phase. A 1x1 tiling recovers the exact per-element
(spherical) evaluation; a single full-array tile is the far-field planar
baseline. Bulk propagation phase always rides on the midpoint-to-midpoint
path lengths, expressed through the path delay so that the time response at
the carrier and the frequency response agree identically.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    AngleConvention,
    GeometryError,
    ScenarioConfig,
    SubarrayPartition,
    Vec3,
    element_rowcol,
    k_index,
    los_arrival_angles,
    make_partition,
    mr_element_position,
    ray_angles,
)
from .scattering import ScattererField

TWO_PI = 2.0 * math.pi
# Transfer-function evaluations are checked against this half-band around
# the carrier unless explicitly disabled.
BANDWIDTH_HZ = 50e6

_VARIANTS = ("spherical", "planar", "subarray")


@dataclass(frozen=True)
class WavefrontModel:
    """Wavefront treatment of the transmit array.

    spherical: per-element angles/distances (exact reference).
    planar: one angle set at the full-array midpoint.
    subarray: per-tile angles for a tiling with target size (p_max_h, p_max_v).
    """

    variant: str
    p_max_h: int | None = None
    p_max_v: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.variant == "subarray":
            for name in ("p_max_h", "p_max_v"):
                v = getattr(self, name)
                if not (isinstance(v, int) and v >= 1):
                    raise ValueError(f"{name} must be an integer >= 1 for subarray models, got {v!r}")
        elif self.p_max_h is not None or self.p_max_v is not None:
            raise ValueError(f"{self.variant} models take no tile sizes")

    @classmethod
    def spherical(cls) -> "WavefrontModel":
        return cls(variant="spherical")

    @classmethod
    def planar(cls) -> "WavefrontModel":
        return cls(variant="planar")

    @classmethod
    def subarray(cls, p_max_h: int, p_max_v: int) -> "WavefrontModel":
        return cls(variant="subarray", p_max_h=p_max_h, p_max_v=p_max_v)

    @classmethod
    def parse(cls, text: str) -> "WavefrontModel":
        """Parse 'spherical', 'planar', or 'subarray:HxV' (e.g. 'subarray:30x30')."""
        text = text.strip().lower()
        if text == "spherical":
            return cls.spherical()
        if text == "planar":
            return cls.planar()
        if text.startswith("subarray:"):
            sizes = text.removeprefix("subarray:")
            parts = sizes.split("x")
            if len(parts) == 2:
                try:
                    return cls.subarray(int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise ValueError(f"bad subarray sizes in {text!r}: {exc}") from None
        raise ValueError(
            f"cannot parse wavefront model {text!r}; expected spherical, planar, or subarray:HxV"
        )

    @property
    def label(self) -> str:
        if self.variant == "subarray":
            return f"subarray:{self.p_max_h}x{self.p_max_v}"
        return self.variant

    def partition_for(self, cfg: ScenarioConfig) -> SubarrayPartition:
        if self.variant == "spherical":
            return make_partition(cfg, 1, 1)
        if self.variant == "planar":
            return make_partition(cfg, cfg.P_h, cfg.P_v)
        if self.p_max_h > cfg.P_h or self.p_max_v > cfg.P_v:
            raise ValueError(
                f"subarray tile {self.p_max_h}x{self.p_max_v} exceeds the "
                f"{cfg.P_h}x{cfg.P_v} array; tile sizes must be within [1, P_h]x[1, P_v]"
            )
        return make_partition(cfg, self.p_max_h, self.p_max_v)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One narrowband matrix snapshot H(t) with its path delays.

    H has Q rows and P_h*P_v columns; column p linearizes the transmit grid
    row-major as p = (p_v - 1) * P_h + p_h (fixed, documented layout).
    """

    t: float
    H: np.ndarray
    tau_los: float
    tau_nlos: np.ndarray
    model: WavefrontModel

    def __post_init__(self) -> None:
        if self.H.ndim != 2:
            raise ValueError(f"H must be a 2-D matrix, got shape {self.H.shape}")
        if not np.all(np.isfinite(self.H.real)) or not np.all(np.isfinite(self.H.imag)):
            raise ValueError("H contains non-finite entries")
        self.H.setflags(write=False)
        self.tau_nlos.setflags(write=False)

    def to_csv(self, path: str | Path) -> None:
        """Write rows (p, q, re, im), 1-based indices, q-major order."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "q", "re", "im"])
            n_q, n_p = self.H.shape
            for qi in range(n_q):
                for pi in range(n_p):
                    v = self.H[qi, pi]
                    writer.writerow([pi + 1, qi + 1, repr(float(v.real)), repr(float(v.imag))])

    def to_binary(self, path: str | Path) -> None:
        """Dump H row-major as little-endian float64 (re, im) pairs.

        Layout: entries iterate q = 1..Q outer, p = 1..P inner; each entry
        contributes 16 bytes (real then imaginary, '<d' each). No header.
        """
        with open(path, "wb") as fh:
            n_q, n_p = self.H.shape
            for qi in range(n_q):
                for pi in range(n_p):
                    v = self.H[qi, pi]
                    fh.write(struct.pack("<dd", float(v.real), float(v.imag)))


def _grid_index(p, cfg: ScenarioConfig) -> tuple[int, int]:
    """Accept a transmit element as a linear index or a (p_h, p_v) pair."""
    if isinstance(p, tuple):
        p_h, p_v = p
        if not (isinstance(p_h, int) and isinstance(p_v, int)):
            raise ValueError(f"element pair must hold integers, got {p!r}")
        if not (1 <= p_h <= cfg.P_h and 1 <= p_v <= cfg.P_v):
            raise ValueError(
                f"element pair {p} out of range for a {cfg.P_h}x{cfg.P_v} array"
            )
        return p_h, p_v
    if isinstance(p, (int, np.integer)):
        return element_rowcol(int(p), cfg.P_h, cfg.P_v)
    raise ValueError(f"element index must be an int or an (p_h, p_v) tuple, got {p!r}")


def rician_weights(K: float) -> tuple[float, float]:
    """Amplitude weights (direct, scattered) for Rice factor K."""
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    return math.sqrt(K / (K + 1.0)), math.sqrt(1.0 / (K + 1.0))


def tau_los(t: float, cfg: ScenarioConfig) -> float:
    """Delay of the direct path between the array midpoints at time t."""
    xi = cfg.bs_midpoint().distance_to(cfg.mr_midpoint(t))
    if xi == 0.0:
        raise GeometryError("receive midpoint coincides with transmit midpoint")
    return xi / cfg.c


def nlos_delays(t, cfg: ScenarioConfig, field: ScattererField) -> np.ndarray:
    """Per-ray delays (xi_T + xi_R(t)) / c, midpoint-to-midpoint legs.

    t is one time (shape (n_rays,)) or a 1-D array of times (one row each).
    """
    pos = field.positions()
    bs = cfg.bs_midpoint()
    mr = np.array([cfg.mr_midpoint(ti).as_tuple() for ti in np.atleast_1d(t).tolist()])
    mx, my, mz = mr.T[:, :, None]
    xi_t = np.sqrt((pos[:, 0] - bs.x) ** 2 + (pos[:, 1] - bs.y) ** 2 + (pos[:, 2] - bs.z) ** 2)
    xi_r = np.sqrt((pos[:, 0] - mx) ** 2 + (pos[:, 1] - my) ** 2 + (pos[:, 2] - mz) ** 2)
    delays = (xi_t + xi_r) / cfg.c
    return delays if np.ndim(t) else delays[0]


def _subarray_center_of(p_h: int, p_v: int, partition: SubarrayPartition) -> Vec3:
    sh, sv = partition.subarray_of_element(p_h, p_v)
    return partition.centers[sh - 1][sv - 1]


def _mr_terms(az_r, el_r, kq, t, cfg: ScenarioConfig):
    """Receive steering and Doppler phase pieces shared by every path type.

    kq is the receive element's k_index. Works elementwise (broadcasting)
    for array-valued angles, kq and t; returns their ordered sum.
    """
    k = TWO_PI / cfg.wavelength
    cos_el = np.cos(el_r)
    term_az = k * kq * cfg.delta_R * np.cos(az_r - cfg.psi_R) * cos_el * math.cos(cfg.theta_R)
    term_el = k * kq * cfg.delta_R * np.sin(el_r) * math.sin(cfg.theta_R)
    term_dop = k * cfg.v_R * t * np.cos(az_r - cfg.eta_R) * cos_el
    return term_az + term_el + term_dop


def los_phase(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, f: float | None = None) -> float:
    """Total direct-path phase for transmit element p, receive element q.

    Departure angles are taken at the tile midpoint containing p toward the
    receive element; arrival angles follow the reverse-bearing relations.
    The bulk term enters as -2*pi*f*tau so that evaluations at different
    frequencies share the exact same code path (f defaults to the carrier).
    """
    partition = model.partition_for(cfg)
    p_h, p_v = _grid_index(p, cfg)
    center = _subarray_center_of(p_h, p_v, partition)
    d_q = mr_element_position(q, t, cfg)
    az_t, el_t = ray_angles(center, d_q, AngleConvention.LOS_DEPARTURE)
    az_r, el_r = los_arrival_angles(az_t, el_t)
    k = TWO_PI / cfg.wavelength
    phase = k * k_index(p_h, cfg.P_h) * cfg.delta_T * math.cos(az_t - cfg.psi_T) * math.cos(el_t)
    phase += k * k_index(p_v, cfg.P_v) * cfg.delta_T * math.sin(el_t)
    phase += _mr_terms(az_r, el_r, k_index(q, cfg.Q), t, cfg)
    freq = cfg.f_c if f is None else f
    phase += -TWO_PI * freq * tau_los(t, cfg)
    return float(phase)


def nlos_phase_table(
    points,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    field: ScattererField,
    f: float | None = None,
) -> np.ndarray:
    """Deterministic per-ray phases (steering + Doppler + bulk) at a batch of points.

    points is a sequence of (p, q, t); the result has one row of n_rays
    phases per point, random phase excluded. Departure angles per ray are
    taken at the tile midpoint containing p; arrival angles at the receive
    element q. Bulk propagation rides the midpoint-to-midpoint legs through
    the per-ray delay, as in los_phase.
    """
    partition = model.partition_for(cfg)
    # The departure part depends on p alone and the arrival part on (q, t)
    # alone, so each is evaluated once per distinct value and the rows are
    # gathered per point; the sum keeps the scalar evaluation's order.
    departures: dict[tuple[int, int], int] = {}
    arrivals: dict[tuple[int, float], int] = {}
    rows = [
        (departures.setdefault(_grid_index(p, cfg), len(departures)), arrivals.setdefault((q, t), len(arrivals)))
        for p, q, t in points
    ]
    i_dep, i_arr = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    dep = [
        (*_subarray_center_of(p_h, p_v, partition).as_tuple(), k_index(p_h, cfg.P_h), k_index(p_v, cfg.P_v))
        for p_h, p_v in departures
    ]
    arr = [(*mr_element_position(q, t, cfg).as_tuple(), k_index(q, cfg.Q), t) for q, t in arrivals]
    # (n, 1) columns broadcast against the (n_rays,) ray coordinates.
    cx, cy, cz, kh, kv = np.array(dep, dtype=float).reshape(-1, 5).T[:, :, None]
    rx, ry, rz, kq, ts = np.array(arr, dtype=float).reshape(-1, 5).T[:, :, None]
    pos = field.positions()

    dx_t = pos[:, 0] - cx
    dy_t = pos[:, 1] - cy
    az_t = np.arctan2(dy_t, dx_t)
    el_t = np.arctan2(pos[:, 2] - cz, np.hypot(dx_t, dy_t))

    dx_r = pos[:, 0] - rx
    dy_r = pos[:, 1] - ry
    az_r = np.arctan2(dy_r, dx_r)
    el_r = np.arctan2(pos[:, 2] - rz, np.hypot(dx_r, dy_r))

    k = TWO_PI / cfg.wavelength
    departure = k * kh * cfg.delta_T * np.cos(az_t - cfg.psi_T) * np.cos(el_t)
    departure += k * kv * cfg.delta_T * np.sin(el_t)
    phase = departure[i_dep] + _mr_terms(az_r, el_r, kq, ts, cfg)[i_arr]
    freq = cfg.f_c if f is None else f
    phase += (-TWO_PI * freq * nlos_delays(ts[:, 0], cfg, field))[i_arr]
    return phase


def nlos_ray_phases(
    p,
    q: int,
    t: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    field: ScattererField,
    f: float | None = None,
) -> np.ndarray:
    """nlos_phase_table at the single point (p, q, t): one phase per ray."""
    return nlos_phase_table([(p, q, t)], cfg, model, field, f)[0]


def cir_los(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel) -> complex:
    """Unit-modulus direct-path coefficient (Rician weight not applied)."""
    return complex(np.exp(1j * los_phase(p, q, t, cfg, model)))


def cir_nlos(
    p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField
) -> complex:
    """Scattered-path coefficient, normalized by 1/sqrt(total ray count).

    The normalization keeps the ensemble mean power at 1 regardless of ray
    count, so the Rician weights alone set the direct/scattered power split.
    """
    phases = nlos_ray_phases(p, q, t, cfg, model, field)
    total = np.exp(1j * (field.phases() + phases)).sum()
    return complex(total / math.sqrt(field.n_rays))


@dataclass(frozen=True, eq=False)
class CirComponents:
    """Weighted direct and scattered coefficients with their delays."""

    los: complex
    nlos: complex
    tau_los: float
    tau_nlos: np.ndarray

    @property
    def combined(self) -> complex:
        return self.los + self.nlos


def cir_total(
    p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField
) -> CirComponents:
    """Rician-weighted direct + scattered coefficients for one antenna pair."""
    w_los, w_nlos = rician_weights(cfg.K)
    return CirComponents(
        los=w_los * cir_los(p, q, t, cfg, model),
        nlos=w_nlos * cir_nlos(p, q, t, cfg, model, field),
        tau_los=tau_los(t, cfg),
        tau_nlos=nlos_delays(t, cfg, field),
    )


def transfer_function(
    p,
    q: int,
    t: float,
    f: float,
    cfg: ScenarioConfig,
    model: WavefrontModel,
    field: ScattererField,
    check_band: bool = True,
) -> complex:
    """Frequency response at f: per-path phasors with bulk phase -2*pi*f*tau.

    Steering and Doppler phases stay anchored at the carrier wavelength;
    only the delay phase sweeps with f, so f = f_c reproduces the combined
    time-domain coefficient exactly. f must stay within half of
    BANDWIDTH_HZ of the carrier unless check_band is disabled.
    """
    if check_band and abs(f - cfg.f_c) > BANDWIDTH_HZ / 2:
        raise ValueError(
            f"f = {f} Hz lies outside the band [f_c - {BANDWIDTH_HZ/2:.0f}, "
            f"f_c + {BANDWIDTH_HZ/2:.0f}] around f_c = {cfg.f_c} Hz"
        )
    w_los, w_nlos = rician_weights(cfg.K)
    los = w_los * complex(np.exp(1j * los_phase(p, q, t, cfg, model, f=f)))
    phases = nlos_ray_phases(p, q, t, cfg, model, field, f=f)
    nlos = w_nlos * complex(
        np.exp(1j * (field.phases() + phases)).sum() / math.sqrt(field.n_rays)
    )
    return los + nlos


def _partition_arrays(cfg: ScenarioConfig, partition: SubarrayPartition):
    """Flattened center coordinates and the element -> tile index map."""
    counts_v = partition.counts_v
    centers = [
        partition.centers[sh][sv]
        for sh in range(partition.counts_h)
        for sv in range(counts_v)
    ]
    cx = np.array([c.x for c in centers])
    cy = np.array([c.y for c in centers])
    cz = np.array([c.z for c in centers])
    p_lin = np.arange(1, cfg.P_h * cfg.P_v + 1)
    p_h = (p_lin - 1) % cfg.P_h + 1
    p_v = (p_lin - 1) // cfg.P_h + 1
    sh = (p_h - 1) // partition.p_max_h
    sv = (p_v - 1) // partition.p_max_v
    s_of_p = sh * counts_v + sv
    kh = (cfg.P_h - 2 * p_h + 1) / 2.0
    kv = (cfg.P_v - 2 * p_v + 1) / 2.0
    return cx, cy, cz, s_of_p, kh, kv


def matrix_parts(
    t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField
):
    """Factored matrix ingredients shared by every draw of the ray phases.

    Returns (H_los, dep_phasors, arr_phases, tau_los, tau_nlos) where
    H_los is the (Q, P) unit-modulus direct-path matrix, dep_phasors is
    the (P, N) per-ray departure phasor table and arr_phases is the (Q, N)
    deterministic arrival + Doppler + delay phase per ray. The scattered
    matrix for ray phases phi is dep_phasors @ exp(j(phi + arr_phases[q]))
    divided by sqrt(N), so redrawing phi reuses everything here.
    """
    partition = model.partition_for(cfg)
    cx, cy, cz, s_of_p, kh, kv = _partition_arrays(cfg, partition)
    k = TWO_PI / cfg.wavelength
    n_p = cfg.P_h * cfg.P_v

    pos = field.positions()
    n_rays = field.n_rays
    delays = nlos_delays(t, cfg, field)
    bulk_nlos = -TWO_PI * cfg.f_c * delays
    t_los = tau_los(t, cfg)
    bulk_los = -TWO_PI * cfg.f_c * t_los

    # Scattered departure factors per tile: (S, N) arrays.
    dx_t = pos[None, :, 0] - cx[:, None]
    dy_t = pos[None, :, 1] - cy[:, None]
    az_dep = np.arctan2(dy_t, dx_t)
    el_dep = np.arctan2(pos[None, :, 2] - cz[:, None], np.hypot(dx_t, dy_t))
    g1 = k * cfg.delta_T * np.cos(az_dep - cfg.psi_T) * np.cos(el_dep)
    g2 = k * cfg.delta_T * np.sin(el_dep)
    dep_phasors = np.exp(1j * (kh[:, None] * g1[s_of_p, :] + kv[:, None] * g2[s_of_p, :]))

    H_los = np.empty((cfg.Q, n_p), dtype=complex)
    arr_phases = np.empty((cfg.Q, n_rays))
    for q in range(1, cfg.Q + 1):
        d_q = mr_element_position(q, t, cfg)

        # Direct path: per-tile angles toward this receive element.
        ddx = d_q.x - cx
        ddy = d_q.y - cy
        az_t = np.arctan2(ddy, ddx)
        el_t = np.arctan2(cz - d_q.z, np.hypot(ddx, ddy))
        az_r = math.pi - az_t
        az_r = np.where(az_r > math.pi, az_r - TWO_PI, az_r)
        el_r = el_t
        a1 = k * cfg.delta_T * np.cos(az_t - cfg.psi_T) * np.cos(el_t)
        a2 = k * cfg.delta_T * np.sin(el_t)
        mr_los = _mr_terms(az_r, el_r, k_index(q, cfg.Q), t, cfg)
        los_phases = kh * a1[s_of_p] + kv * a2[s_of_p] + mr_los[s_of_p] + bulk_los
        H_los[q - 1, :] = np.exp(1j * los_phases)

        # Scattered paths: deterministic arrival factors per ray.
        dx_r = pos[:, 0] - d_q.x
        dy_r = pos[:, 1] - d_q.y
        az_arr = np.arctan2(dy_r, dx_r)
        el_arr = np.arctan2(pos[:, 2] - d_q.z, np.hypot(dx_r, dy_r))
        arr_phases[q - 1, :] = _mr_terms(az_arr, el_arr, k_index(q, cfg.Q), t, cfg) + bulk_nlos

    return H_los, dep_phasors, arr_phases, t_los, delays


def combine_parts(
    parts, rand_phases: np.ndarray, K: float
) -> np.ndarray:
    """Full matrix for one draw of the per-ray random phases."""
    H_los, dep_phasors, arr_phases, _, _ = parts
    w_los, w_nlos = rician_weights(K)
    n_rays = rand_phases.shape[0]
    H = np.empty_like(H_los)
    for row in range(H_los.shape[0]):
        ray_common = np.exp(1j * (rand_phases + arr_phases[row]))
        H[row, :] = w_los * H_los[row] + w_nlos * (
            dep_phasors @ ray_common / math.sqrt(n_rays)
        )
    return H


def channel_matrix(
    t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField
) -> ChannelRealization:
    """Assemble the full Q x (P_h*P_v) narrowband matrix at time t.

    Vectorized equivalent of cir_total over every antenna pair: departure
    factors are computed once per tile and broadcast across the elements
    each tile contains.
    """
    parts = matrix_parts(t, cfg, model, field)
    H = combine_parts(parts, field.phases(), cfg.K)
    return ChannelRealization(
        t=t, H=H, tau_los=parts[3], tau_nlos=parts[4], model=model
    )
