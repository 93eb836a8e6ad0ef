"""Complex channel synthesis under spherical, planar, and subarray wavefronts.

Every model is one partition of the transmit array: directions and propagation
distances are evaluated once per tile midpoint, elements inside a tile see a
linear steering phase. A 1x1 tiling recovers the exact per-element
(spherical) evaluation; a single full-array tile is the far-field planar
baseline. Bulk propagation phase always rides on the midpoint-to-midpoint
path lengths, expressed through the path delay so that the time response at
the carrier and the frequency response agree identically.

The phase formula is coded once, in direction cosines with no per-path trig:
_gains at the transmit end and _receive at the receive end, both under
_direct and _arrival_phases. _tiles is the one element-to-tile mapping: tile
column, tile row and steering offsets kh, kv. point_phases evaluates a batch
of (p, q, t) points, of which los_phase, nlos_ray_phases, cir_* and
transfer_function are one-point views. matrix_parts holds what every draw
of the whole array shares: the receive points of the direct path and the
scattered departure side as real pieces per tile column and row.
combine_parts finishes the matrix in place, one group of element rows at a
time. It forms the departure phasors in blocks of whole tile rows,
_BLOCK_PHASORS per-element phasors at a time, and meets each one-chunk run
of a block with the ray phasors of all receive elements and draws in one
product; then it adds the group's direct phasors, evaluated on the tile grid
of its rows and gathered per element. No (P, N) table and no (Q, P) direct
matrix is held, and every product keeps its shape whatever the block or
group size, so the matrix does not depend on either. A tile's phasors are
products of per-tile horizontal and vertical factors, as its steering phase
is linear; large tiles multiply the factors per tile without expanding them.

Every phasor exp(j*theta) goes through one kernel, _cis: a table-driven
exponential with Cody-Waite range reduction, within 4.5e-16 of numpy's
complex exp at about a third of its cost.
"""

from __future__ import annotations

import csv
import itertools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_open
from .geometry import (
    GeometryError,
    ScenarioConfig,
    SubarrayPartition,
    _digits,
    _index,
    _real,
    element_rowcol,
    k_index,
    make_partition,
    mr_element_position,
)
from .scattering import ScattererField

TWO_PI = 2.0 * math.pi
# Transfer-function evaluations are checked against this half-band around
# the carrier unless explicitly disabled.
BANDWIDTH_HZ = 50e6

_VARIANTS = ("spherical", "planar", "subarray")
# Largest P * (L_clusters * N_rays + Q) * 16 bytes matrix_parts accepts: a complex (D * Q, P) stack of
# phase draws, D * Q <= N, plus one (Q, P) matrix more, a margin over the group buffers of combine_parts that
# keeps the arrays accepted fixed. Refused before anything P-sized exists. The correlation runners hold their
# axis, at harness._AXIS_POINT_BYTES per point, to the same budget.
MATRIX_BUDGET_BYTES = 2**30


@dataclass(frozen=True)
class WavefrontModel:
    """Wavefront treatment of the transmit array.

    spherical: per-element directions/distances (exact reference).
    planar: one direction set at the full-array midpoint.
    subarray: per-tile directions for a tiling with target size (p_max_h, p_max_v).
    """

    variant: str
    p_max_h: int | None = None
    p_max_v: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.variant == "subarray":
            for name in ("p_max_h", "p_max_v"):
                object.__setattr__(self, name, _index(name, getattr(self, name)))
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
            parts = text.removeprefix("subarray:").split("x")
            if len(parts) == 2:
                try:
                    return cls.subarray(_digits(parts[0]), _digits(parts[1]))
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
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "q", "re", "im"])
            for qi, row in enumerate(self.H.tolist(), start=1):
                writer.writerows([pi, qi, repr(v.real), repr(v.imag)] for pi, v in enumerate(row, start=1))

    def to_binary(self, path: str | Path) -> None:
        """Dump H row-major as little-endian float64 (re, im) pairs.

        Layout: entries iterate q = 1..Q outer, p = 1..P inner; each entry
        contributes 16 bytes (real then imaginary, '<d' each). No header.
        """
        with atomic_open(path, binary=True) as fh:
            fh.write(self.H.astype("<c16").tobytes())


def _grid_index(p, cfg: ScenarioConfig) -> tuple[int, int]:
    """Accept a transmit element as a linear index or a (p_h, p_v) pair."""
    if isinstance(p, tuple) and len(p) == 2:
        return _index("p_h", p[0], 1, cfg.P_h), _index("p_v", p[1], 1, cfg.P_v)
    return element_rowcol(p, cfg.P_h, cfg.P_v)


def rician_weights(K: float) -> tuple[float, float]:
    """Amplitude weights (direct, scattered) for Rice factor K."""
    K = _real("K", K, 0)
    return math.sqrt(K / (K + 1.0)), math.sqrt(1.0 / (K + 1.0))


def tau_los(t: float, cfg: ScenarioConfig) -> float:
    """Delay of the direct path between the array midpoints at time t."""
    try:  # mr_midpoint gives Python floats, whose overflowing square raises instead of warning
        xi = cfg.bs_midpoint().distance_to(cfg.mr_midpoint(t))
    except OverflowError:
        xi = math.inf
    if not math.isfinite(xi):
        raise ValueError(
            f"the direct path at t = {float(t)!r} s has no finite length: D_0 = {cfg.D_0!r} m, H_0 = {cfg.H_0!r} m, "
            f"delta_T = {cfg.delta_T!r} m and v_R*t = {cfg.v_R * float(t)!r} m put the array midpoints too far apart"
        )
    if xi == 0.0:
        raise GeometryError("receive midpoint coincides with transmit midpoint")
    return xi / cfg.c


def _midpoints(times, cfg: ScenarioConfig) -> np.ndarray:
    """(len(times), 3) receive-array midpoints at the given times."""
    return np.array([cfg.mr_midpoint(t).as_tuple() for t in times], dtype=float).reshape(-1, 3)


def _path_delays(pos: np.ndarray, mids: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """(xi_T + xi_R) / c per receive midpoint (rows of mids) and ray position (rows of pos).

    Every scattered phase starts from these path lengths, so a ray whose transmit leg overflows is
    refused here with a ValueError naming r_max, before any of its phases is formed.
    """
    bs = cfg.bs_midpoint()
    mx, my, mz = mids.T[:, :, None]
    with np.errstate(over="ignore"):
        xi_t = np.sqrt((pos[:, 0] - bs.x) ** 2 + (pos[:, 1] - bs.y) ** 2 + (pos[:, 2] - bs.z) ** 2)
    if not np.isfinite(xi_t).all():
        raise ValueError(f"r_max = {cfg.r_max!r} m puts a scatterer too far out for a finite path length")
    xi_r = np.sqrt((pos[:, 0] - mx) ** 2 + (pos[:, 1] - my) ** 2 + (pos[:, 2] - mz) ** 2)
    return (xi_t + xi_r) / cfg.c


def nlos_delays(t, cfg: ScenarioConfig, field: ScattererField) -> np.ndarray:
    """Per-ray delays (xi_T + xi_R(t)) / c, midpoint-to-midpoint legs.

    t is one time (shape (n_rays,)) or a 1-D array of times (one row each).
    """
    delays = _path_delays(field.positions(), _midpoints(np.atleast_1d(t).tolist(), cfg), cfg)
    return delays if np.ndim(t) else delays[0]


# _cis reduces theta = k*2pi/1024 + d with |d| <= pi/1024 (Cody-Waite). The step
# 2pi/1024 is split as _CIS_HI + _CIS_LO: _CIS_HI keeps 28 significant bits
# (2**35 * step lies in [2**27, 2**28)), so k*_CIS_HI is exact for |k| < 2**25,
# and _CIS_LO carries the rest, including the tail of 2pi beyond float(2pi).
_CIS_SCALE = 1024 / TWO_PI
_CIS_HI = math.floor(TWO_PI / 1024 * 2**35) / 2**35
_CIS_LO = (TWO_PI / 1024 - _CIS_HI) + 2.4492935982947064e-16 / 1024
_CIS_KMAX = 2.0**25
# Elements per chunk: the kernel's temporaries stay bounded and in cache.
_CIS_CHUNK = 16384
_CIS_BUFFERS = threading.local()  # _cis chunk buffers, one set per thread: callers may run nfmimo in threads


def _cis_libm(theta):
    """exp(j theta) by numpy's complex exp: the source of the table and the kernel's fallback."""
    return np.exp(1j * theta)


def _cis_table() -> np.ndarray:
    """Read-only exp(2*pi*j*m/1024), m = 0..1023, from the first octant by exact quarter-turn symmetries.

    Octant angles are at most pi/4, where their float rounding is finest.
    """
    m = np.arange(129)
    octant = _cis_libm(m * _CIS_HI + m * _CIS_LO)
    quarter = np.concatenate([octant, 1j * octant[127:0:-1].conj()])
    table = np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])
    table.setflags(write=False)
    return table


_CIS_TABLE = _cis_table()


def _cis(theta, out=None) -> np.ndarray:
    """exp(1j*theta) for real theta, the one phasor kernel (Tang's table-driven exponential).

    With theta = k*2pi/1024 + d, the phasor is t = _CIS_TABLE[k mod 1024] times
    the Taylor phasor of d, formed as t + t*(cos d - 1 + j sin d) so that only
    the last addition rounds at full size. It is within 4.5e-16 of numpy's
    complex exp; |k| >= 2**25 (|theta| above about 2e5 rad) and
    non-finite theta go through numpy's exp instead. out, if given, is a
    C-contiguous complex array of theta's shape and is returned.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    elif out.shape != theta.shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {theta.shape}")
    src, dst = theta.reshape(-1), out.reshape(-1)
    if not hasattr(_CIS_BUFFERS, "bufs"):
        _CIS_BUFFERS.bufs = np.empty((3, _CIS_CHUNK)), np.empty(_CIS_CHUNK, complex), np.empty(_CIS_CHUNK, np.intp)
    (k_buf, d_buf, d2_buf), p_buf, i_buf = _CIS_BUFFERS.bufs
    for lo in range(0, src.size, _CIS_CHUNK):
        x, o = src[lo:lo + _CIS_CHUNK], dst[lo:lo + _CIS_CHUNK]
        k, d, d2, p, i = k_buf[:x.size], d_buf[:x.size], d2_buf[:x.size], p_buf[:x.size], i_buf[:x.size]
        np.rint(np.multiply(x, _CIS_SCALE, out=k), out=k)
        far = None
        if not (-_CIS_KMAX < k.min() and k.max() < _CIS_KMAX):  # NaN fails both
            far = ~(np.abs(k) < _CIS_KMAX)
            k[far] = 0.0
        np.subtract(x, np.multiply(k, _CIS_HI, out=d), out=d)
        d -= np.multiply(k, _CIS_LO, out=d2)
        if far is not None:
            d[far] = 0.0  # keeps inf out of the arithmetic below
        np.copyto(i, k, casting="unsafe")
        i &= 1023
        np.take(_CIS_TABLE, i, out=o, mode="clip")  # i is already in 0..1023
        np.multiply(d, d, out=d2)
        # cos d - 1 = d2*(d2/24 - 1/2) and sin d = d + d*d2*(d2/120 - 1/6); |d| <= pi/1024.
        np.multiply(np.subtract(np.multiply(d2, 1 / 24, out=k), 0.5, out=k), d2, out=p.real)
        np.subtract(np.multiply(d2, 1 / 120, out=k), 1 / 6, out=k)
        k *= d2
        k *= d
        np.add(k, d, out=p.imag)
        p *= o
        o += p
        if far is not None:
            o[far] = _cis_libm(x[far])
    return out


def _pieces(dx, dy, dz, cfg: ScenarioConfig):
    """The pieces of the gains: u = dx cos psi_T + dy sin psi_T and hh = dx*dx + dy*dy, then dz and dz*dz."""
    return dx * math.cos(cfg.psi_T) + dy * math.sin(cfg.psi_T), dx * dx + dy * dy, dz, dz * dz


def _gains(u, hh, dz, dz2, cfg: ScenarioConfig, out=(None, None)):
    """Tile steering slopes g1, g2 toward displacements d: grid offsets (kh, kv) steer by kh*g1 + kv*g2.

    g1 = k*delta_T*(ux cos psi_T + uy sin psi_T) and g2 = k*delta_T*uz with u = d/|d|,
    i.e. k*delta_T*cos(az - psi_T)*cos(el) and k*delta_T*sin(el), from the _pieces of d,
    which broadcast against each other; out, full-shape, takes g1, g2. A zero displacement
    takes u = +x, the direction of the angles arctan2(0, 0) = 0 (never NaN).
    """
    g1, g2 = out
    r = np.sqrt(np.add(hh, dz2, out=g2), out=g2)
    if not r.all():
        zero = r == 0.0
        r, u = np.where(zero, 1.0, r), u + zero * math.cos(cfg.psi_T)
    scale = np.divide(TWO_PI / cfg.wavelength * cfg.delta_T, r, out=g2)
    return np.multiply(u, scale, out=g1), np.multiply(dz, scale, out=g2)


def _tile_pieces(pos: np.ndarray, cfg: ScenarioConfig, partition: SubarrayPartition, sh=slice(None), sv=slice(None)):
    """_pieces toward the rays (rows of pos): u, hh (columns, N) of tile columns sh, dz, dz2 (rows, N) of tile rows sv."""
    x, y, z = partition.x[sh, None], partition.y[sh, None], partition.z[sv, None]
    return _pieces(pos[:, 0] - x, pos[:, 1] - y, pos[:, 2] - z, cfg)


def _tiles(p_h, p_v, cfg: ScenarioConfig, partition: SubarrayPartition):
    """0-based tile column sh and row sv and steering offsets kh, kv of elements (p_h, p_v), 1-based, broadcasting."""
    sh, sv = (p_h - 1) // partition.p_max_h, (p_v - 1) // partition.p_max_v
    return sh, sv, (cfg.P_h - 2 * p_h + 1) / 2.0, (cfg.P_v - 2 * p_v + 1) / 2.0


def _receivers(qts, cfg: ScenarioConfig) -> np.ndarray:
    """(5, M) rows x, y, z, k_index, t of the receive elements at the (q, t) pairs.

    _receive squares displacements of about an element's coordinates and multiplies them by its
    steering and Doppler weights k*delta_R*k_index and k*v_R*t. An element for which either
    overflows is refused here with a ValueError, since its receive phases would be NaN.
    """
    rows = [(*mr_element_position(q, t, cfg).as_tuple(), k_index(q, cfg.Q), t) for q, t in qts]
    rx = np.array(rows, dtype=float).reshape(-1, 5).T
    reach = np.abs(rx[:3]).max(axis=0, initial=0.0)
    with np.errstate(over="ignore"):
        weight = TWO_PI / cfg.wavelength * (cfg.delta_R * np.abs(rx[3]) + cfg.v_R * rx[4])
        fits = np.isfinite(4.0 * reach * (reach + weight))  # 4: three summed terms, with room for rounding
    if not fits.all():
        q, t = next(qt for qt, ok in zip(qts, fits.tolist()) if not ok)
        raise ValueError(
            f"delta_R = {cfg.delta_R!r} m and v_R*t = {cfg.v_R * t!r} m put receive element {q} at t = {t!r} s "
            "too far out for a finite receive phase"
        )
    return rx


def _receive(dx, dy, dz, kq, t, cfg: ScenarioConfig):
    """Receive steering + Doppler phase of receive elements kq (k_index) at times t toward displacements d (broadcast).

    k*delta_R*kq*((ux cos psi_R + uy sin psi_R) cos theta_R + uz sin theta_R) + k*v_R*t*(ux cos eta_R + uy sin eta_R)
    with u = d/|d|, the direction cosines of _gains; a zero displacement takes u = +x, as there.
    """
    k, cos_tilt = TWO_PI / cfg.wavelength, math.cos(cfg.theta_R)
    a, b = k * cfg.delta_R * kq, k * cfg.v_R * t  # steering and Doppler weights
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if not r.all():
        zero = r == 0.0
        r[zero], dx = 1.0, dx + zero
    phase = (a * (math.cos(cfg.psi_R) * cos_tilt) + b * math.cos(cfg.eta_R)) * dx + a * math.sin(cfg.theta_R) * dz
    phase += (a * (math.sin(cfg.psi_R) * cos_tilt) + b * math.sin(cfg.eta_R)) * dy
    return np.divide(phase, r, out=phase)


def _direct(sh, sv, rx, cfg: ScenarioConfig, partition: SubarrayPartition):
    """Direct-path gains a1, a2 and receive terms mr from tiles (sh, sv) to receive points rx (rows x, y, z, kq, t).

    All broadcast; an element's phase is kh*a1 + kv*a2 + mr + bulk. The departure displacement d has the
    drop as its z; arrival is the reverse bearing at the same elevation, the mirrored d = (-dx, dy, dz).
    """
    x, y, z, kq, t = rx
    dx, dy, dz = x - partition.x[sh], y - partition.y[sh], partition.z[sv] - z
    return *_gains(*_pieces(dx, dy, dz, cfg), cfg), _receive(-dx, dy, dz, kq, t, cfg)


def _arrival_phases(pos: np.ndarray, rx: np.ndarray, bulk: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Per-ray arrival + Doppler + bulk phase (M, N) per receive point; bulk is -2*pi*f times the per-ray delays."""
    x, y, z, kq, t = rx[:, :, None]
    phases = _receive(pos[:, 0] - x, pos[:, 1] - y, pos[:, 2] - z, kq, t, cfg)
    phases += bulk
    return phases


def _bulk(freq, delays) -> np.ndarray:
    """The delay phases -2*pi*f*tau; a ValueError when f is not finite or overflows one of them."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(bulk := -TWO_PI * freq * delays).all():
            raise ValueError(f"f = {freq!r} Hz gives a non-finite delay phase -2*pi*f*tau")
    return bulk


def point_phases(points, cfg: ScenarioConfig, model: WavefrontModel, f: float | None = None):
    """Path phases at a batch of (p, q, t) points, with the bulk delay phase at f (default f_c).

    Returns (direct, scattered): the direct-path phase per point, and a
    function of a scatterer field giving the (n_points, n_rays)
    deterministic per-ray phases (random phase excluded). The geometry
    that does not depend on the field is evaluated here once, so a sweep
    makes one call and evaluates scattered once per field. An f that
    makes a delay phase non-finite is a ValueError.
    """
    freq = cfg.f_c if f is None else f
    # Each point indexes its distinct element and its distinct (q, t) pair.
    elements: dict[tuple[int, int], int] = {}
    receivers: dict[tuple[int, float], int] = {}
    rows = [
        (elements.setdefault(_grid_index(p, cfg), len(elements)), receivers.setdefault((q, t), len(receivers)))
        for p, q, t in points
    ]
    i_el, i_rx = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    p_h, p_v = np.array(list(elements), dtype=np.intp).reshape(-1, 2).T
    sh, sv, kh, kv = _tiles(p_h, p_v, cfg, partition := model.partition_for(cfg))
    bulk = _bulk(freq, np.array([tau_los(t, cfg) for _, t in receivers]))
    rx = _receivers(receivers, cfg)
    mids = _midpoints([t for _, t in receivers], cfg)
    a1, a2, mr = _direct(sh[i_el], sv[i_el], rx[:, i_rx], cfg, partition)
    direct = kh[i_el] * a1 + kv[i_el] * a2 + mr + bulk[i_rx]

    def scattered(field: ScattererField) -> np.ndarray:
        pos = field.positions()
        arr = _arrival_phases(pos, rx, _bulk(freq, _path_delays(pos, mids, cfg)), cfg)
        g1, g2 = _gains(*_tile_pieces(pos, cfg, partition, sh, sv), cfg)
        return (kh[:, None] * g1 + kv[:, None] * g2)[i_el] + arr[i_rx]

    return direct, scattered


def los_phase(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, f: float | None = None) -> float:
    """Direct-path phase of transmit element p and receive element q at f (default f_c): point_phases at one point."""
    return float(point_phases([(p, q, t)], cfg, model, f)[0][0])


def nlos_ray_phases(
    p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField, f: float | None = None
) -> np.ndarray:
    """Deterministic per-ray phases (steering + Doppler + bulk) at (p, q, t): point_phases at one point."""
    return point_phases([(p, q, t)], cfg, model, f)[1](field)[0]


def _pair_coefficients(p, q, t, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField, f=None):
    """Unit-modulus direct and normalized scattered coefficient of one antenna pair, bulk phase at f."""
    direct, scattered = point_phases([(p, q, t)], cfg, model, f)
    nlos = _cis(field.phases() + scattered(field)[0]).sum() / math.sqrt(field.n_rays)
    return complex(_cis(direct[0])), complex(nlos)


def cir_los(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel) -> complex:
    """Unit-modulus direct-path coefficient (Rician weight not applied)."""
    return complex(_cis(los_phase(p, q, t, cfg, model)))


def cir_nlos(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField) -> complex:
    """Scattered-path coefficient, normalized by 1/sqrt(total ray count).

    The normalization keeps the ensemble mean power at 1 regardless of ray
    count, so the Rician weights alone set the direct/scattered power split.
    """
    return _pair_coefficients(p, q, t, cfg, model, field)[1]


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


def cir_total(p, q: int, t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField) -> CirComponents:
    """Rician-weighted direct + scattered coefficients for one antenna pair."""
    w_los, w_nlos = rician_weights(cfg.K)
    los, nlos = _pair_coefficients(p, q, t, cfg, model, field)
    return CirComponents(
        los=w_los * los, nlos=w_nlos * nlos, tau_los=tau_los(t, cfg), tau_nlos=nlos_delays(t, cfg, field)
    )


def transfer_function(
    p, q: int, t: float, f: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField,
    check_band: bool = True,
) -> complex:
    """Frequency response at f: per-path phasors with bulk phase -2*pi*f*tau.

    Steering and Doppler phases stay anchored at the carrier wavelength;
    only the delay phase sweeps with f, so f = f_c reproduces the combined
    time-domain coefficient exactly. f must stay within half of
    BANDWIDTH_HZ of the carrier unless check_band is disabled.
    """
    if check_band and not abs(f - cfg.f_c) <= BANDWIDTH_HZ / 2:  # a NaN f fails it too
        raise ValueError(
            f"f = {f} Hz lies outside the band [f_c - {BANDWIDTH_HZ/2:.0f}, "
            f"f_c + {BANDWIDTH_HZ/2:.0f}] around f_c = {cfg.f_c} Hz"
        )
    w_los, w_nlos = rician_weights(cfg.K)
    los, nlos = _pair_coefficients(p, q, t, cfg, model, field, f)
    return w_los * los + w_nlos * nlos


_FACTORED_AREA = 64  # tile area from which factors beat expanded phasors (measured, CHANGES.md)
# Per-element phasors (1x1 and expanded tiles) formed at once; factored tiles time faster at _CIS_CHUNK.
_BLOCK_PHASORS = 2 * _CIS_CHUNK
# Direct-path phasors formed at once; a group of element rows holds about this many matrix entries.
_GROUP_PHASORS = _CIS_CHUNK


def _runs(partition: SubarrayPartition, n: int) -> tuple[bool, int, int]:
    """(factored, run, step) of _departure_blocks for n rays: factors or not, tile rows per run and per block."""
    n_h, ph, pv = partition.counts_h, partition.p_max_h, partition.p_max_v
    factored = ph * pv >= _FACTORED_AREA
    per_row = n_h * (ph + pv if factored else ph * pv) * n  # phasors held per tile row
    run = max(1, _CIS_CHUNK // per_row)
    return factored, run, run if factored else run * max(1, _BLOCK_PHASORS // (run * per_row))


def _departure_blocks(cfg: ScenarioConfig, partition: SubarrayPartition, u, hh, dz, dz2):
    """Departure phasors from matrix_parts' pieces, by runs of whole tile rows of about _CIS_CHUNK phasors.

    Yields (v0, a, b) from element row v0 (0-based), padded past the array edge by short trailing tiles.
    Below _FACTORED_AREA, a is (rows, counts_h * p_max_h, N) per-element phasors in one reused buffer and
    b None: exp(j(kh g1 + kv g2)) for 1x1 tiles, else A * B with A = exp(j kh g1), B = exp(j kv g2).
    These are formed for several runs at once, up to _BLOCK_PHASORS, and yielded run by run: a product's
    rounding may depend on its shape, so each run keeps the shape it has at a one-chunk budget.
    Larger tiles give the factors of their k tile rows, a = A (k, counts_h, p_max_h, N), b = B (k, p_max_v, counts_h, N).
    """
    n_h, n_v, ph, pv, n = partition.counts_h, partition.counts_v, partition.p_max_h, partition.p_max_v, u.shape[-1]
    _, _, kh, kv = _tiles(np.arange(1, n_h * ph + 1), np.arange(1, n_v * pv + 1), cfg, partition)
    factored, run, step = _runs(partition, n)
    buf = None if factored else np.empty((step * pv, n_h * ph, n), dtype=complex)
    gains = np.empty((2, step, n_h, n))  # g1, g2 of a block, formed in place
    for s0 in range(0, n_v, step):
        s = slice(s0, s0 + step)
        g1, g2 = _gains(u, hh, dz[s, None], dz2[s, None], cfg, out=gains[:, :len(dz[s])])
        if ph == pv == 1:  # kh * g1 + kv * g2
            np.add(np.multiply(kh[:, None], g1, out=g1), np.multiply(kv[s, None, None], g2, out=g2), out=g1)
            block = _cis(g1, out=buf[:len(g1)])
        else:
            a, b = _cis(kh.reshape(n_h, ph, 1) * g1[:, :, None]), _cis(kv.reshape(n_v, pv, 1, 1)[s] * g2[:, None])
            if factored:
                yield s0 * pv, a, b
                continue
            block = buf[:len(a) * pv]
            np.multiply(a[:, None], b[..., None, :], out=block.reshape(len(a), pv, n_h, ph, n))
            del a, b  # the factors are not needed while the block's runs are used
        for v in range(0, len(block), run * pv):
            yield s0 * pv + v, block[v:v + run * pv], None


def matrix_parts(t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField):
    """Matrix ingredients shared by every draw of the ray phases.

    Returns (direct, dep, arr_phases, tau_los, tau_nlos): the direct path as (cfg, partition, rx, bulk),
    the receive points (rows x, y, z, kq, t) and delay phase from which _direct_phasors forms its
    phasors group by group, the departure side of the scattered paths as (cfg, partition, u, hh, dz,
    dz2), the _tile_pieces from which _departure_blocks forms its phasors, and the (Q, N) arrival +
    Doppler + delay phase per ray.
    Arrays over MATRIX_BUDGET_BYTES are refused with a ValueError naming P_h and P_v.
    """
    if (need := cfg.P_h * cfg.P_v * (cfg.L_clusters * cfg.N_rays + cfg.Q) * 16) > MATRIX_BUDGET_BYTES:
        raise ValueError(
            f"a P_h x P_v = {cfg.P_h}x{cfg.P_v} array needs {need / 2**30:.2f} GiB for its phase-draw stack "
            f"and matrix, over the {MATRIX_BUDGET_BYTES / 2**30:g} GiB budget (channel.MATRIX_BUDGET_BYTES)"
        )
    partition = model.partition_for(cfg)
    t_los = tau_los(t, cfg)
    rx = _receivers([(q, t) for q in range(1, cfg.Q + 1)], cfg)
    delays = nlos_delays(t, cfg, field)
    pos = field.positions()
    direct = (cfg, partition, rx, _bulk(cfg.f_c, t_los))
    dep = (cfg, partition, *_tile_pieces(pos, cfg, partition))
    return direct, dep, _arrival_phases(pos, rx, _bulk(cfg.f_c, delays), cfg), t_los, delays


def _direct_phasors(cfg: ScenarioConfig, partition: SubarrayPartition, rx, bulk, v0: int, v1: int) -> np.ndarray:
    """Direct-path phasors (M, v1 - v0, P_h) of element rows v0:v1 (0-based) toward the M receive points rx.

    rx has rows x, y, z, kq, t, and bulk is their delay phase, as in matrix_parts' direct slot. The
    gains are evaluated on the tile grid of those rows, then gathered per element into two buffers
    that sum kh*a1 + kv*a2 + mr + bulk in place.
    """
    n_h, ph, pv = partition.counts_h, partition.p_max_h, partition.p_max_v
    s0 = v0 // pv  # first tile row; the grid is (M, tile rows, tile columns)
    a1, a2, mr = _direct(np.arange(n_h), np.arange(s0, (v1 - 1) // pv + 1)[:, None], rx[:, :, None, None], cfg, partition)
    _, _, kh, kv = _tiles(np.arange(1, cfg.P_h + 1), np.arange(v0 + 1, v1 + 1), cfg, partition)
    if ph == pv == 1:  # the tile grid is the element grid
        phase, term = a1, a2
    else:
        tile = (np.arange(v0, v1) // pv - s0)[:, None] * n_h + np.arange(cfg.P_h) // ph
        phase, term = (np.take(g.reshape(len(g), -1), tile, axis=1, mode="clip") for g in (a1, a2))
    phase *= kh
    term *= kv[:, None]
    phase += term
    phase += mr if ph == pv == 1 else np.take(mr.reshape(len(mr), -1), tile, axis=1, out=term, mode="clip")
    phase += bulk
    return _cis(phase)


def _matrix_groups(parts, rand_phases: np.ndarray, K: float, out=None):
    """Finish the matrices of parts for the draws rand_phases, one group of element rows at a time.

    Yields (rows, v0, region): region, (m, h, P_h), is the finished block of element rows v0:v0 + h
    (0-based) of the m receive rows `rows`, a slice of the D * Q rows of the draw stack. It is a
    view of out, (D * Q, P_v, P_h), when out is given, else of one buffer that the next group
    reuses. A group holds whole runs of _departure_blocks and about _GROUP_PHASORS entries per draw.
    Each run stores its scattered sums in the group: the ray phasors of all draws and receive
    elements form one (D * Q, N) matrix c, which meets a per-element run in one product, while
    factored tiles give (A * c_i) @ B^T per row c_i of c, and a run of them too tall for one group
    is finished one receive element at a time. The group is then divided by sqrt(N), weighted by
    w_nlos and given w_los times its direct phasors, formed _GROUP_PHASORS at a time and shared by
    the draws; the last group forms them once the departure buffers are gone.
    """
    (cfg, partition, rx, bulk), (_, _, *pieces), arr_phases = parts[:3]
    w_los, w_nlos = rician_weights(K)
    n_rays, n_q, n_h, pv = rand_phases.shape[-1], cfg.Q, cfg.P_h, partition.p_max_v
    c = _cis(rand_phases[..., None, :] + arr_phases).reshape(-1, n_rays)
    factored, run, _ = _runs(partition, n_rays)
    rows = run * pv  # element rows per run
    height = rows * max(1, _GROUP_PHASORS // (n_q * n_h * rows))  # element rows per group
    one_by_one = factored and n_q * n_h * rows > _GROUP_PHASORS
    receive = [slice(q, None, n_q) for q in range(n_q)] if one_by_one else [slice(None)]
    scratch = ab = prod = None
    if out is None:
        scratch = np.empty((len(c) // len(receive), min(height, cfg.P_v), n_h), dtype=complex)

    def fill(region, group, cs, v0):
        """Store in region, from element row v0, the scattered sums of the runs of group for the rows cs of c."""
        nonlocal ab, prod
        for v, a, b in group:
            if b is None:
                r = np.matmul(cs, a.reshape(-1, n_rays).T).reshape(len(cs), -1, partition.counts_h * partition.p_max_h)
                region[:, v - v0:v - v0 + r.shape[1]] = r[:, :cfg.P_v - v, :n_h]  # both slices stop at the array edge
                continue
            if ab is None:  # the first run is the tallest
                ab, prod = np.empty(a.shape, dtype=complex), np.empty((*a.shape[:3], pv), dtype=complex)
            k, bt = len(a), b.transpose(0, 2, 3, 1)
            for ci, dst in zip(cs, region[:, v - v0:]):  # the (k, counts_h, p_max_h, p_max_v) tile products of ci
                p = np.matmul(np.multiply(a, ci, out=ab[:k]), bt, out=prod[:k])
                # the element rows of the k tile rows in element order, up to the array edge
                dst[:k * pv] = p.transpose(0, 3, 1, 2).reshape(k * pv, -1)[:len(dst), :n_h]

    def finish(region, qs, v0):
        """Divide region by sqrt(N), weight it by w_nlos and add w_los times the direct phasors of its rows."""
        region /= math.sqrt(n_rays)
        region *= w_nlos
        rxs, h = rx[:, qs], region.shape[1]
        view = region.reshape(-1, rxs.shape[1], h, n_h)  # (D, M, h, P_h) for the M receive points of rxs
        step = max(1, _GROUP_PHASORS // (rxs.shape[1] * n_h))
        for lo in range(0, h, step):
            phasors = _direct_phasors(cfg, partition, rxs, bulk, v0 + lo, v0 + min(h, lo + step))
            view[:, :, lo:lo + step] += np.multiply(w_los, phasors, out=phasors)

    runs = _departure_blocks(cfg, partition, *pieces)
    for g0 in range(0, cfg.P_v, height):
        h = min(height, cfg.P_v - g0)
        group = itertools.islice(runs, -(-h // rows))
        if one_by_one:  # one run, used once per receive element
            group = list(group)
        for qs in receive:
            region = out[qs, g0:g0 + h] if scratch is None else scratch[:, :h]
            fill(region, group, c[qs], g0)
            if g0 + h == cfg.P_v and qs is receive[-1]:  # the departure buffers go before the last direct phasors
                runs.close()
                group = ab = prod = c = None
            finish(region, qs, g0)
            yield qs, g0, region


def combine_parts(parts, rand_phases: np.ndarray, K: float) -> np.ndarray:
    """Full (Q, P) matrix for one draw of the per-ray random phases; a (D, N) stack of draws gives (D, Q, P).

    The matrix is finished in place by _matrix_groups, one group of element rows at a time.
    """
    cfg = parts[0][0]
    draws = rand_phases.shape[:-1]
    H = np.empty((math.prod(draws) * cfg.Q, cfg.P_v, cfg.P_h), dtype=complex)
    for _ in _matrix_groups(parts, rand_phases, K, H):
        pass
    return H.reshape(*draws, cfg.Q, -1)


def channel_matrix(t: float, cfg: ScenarioConfig, model: WavefrontModel, field: ScattererField) -> ChannelRealization:
    """Assemble the full Q x (P_h*P_v) narrowband matrix at time t.

    Vectorized equivalent of cir_total over every antenna pair: directions and
    distances are evaluated once per tile and steered across its elements.
    """
    parts = matrix_parts(t, cfg, model, field)
    H = combine_parts(parts, field.phases(), cfg.K)
    return ChannelRealization(t=t, H=H, tau_los=parts[3], tau_nlos=parts[4], model=model)
