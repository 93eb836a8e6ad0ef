"""Random scatterer fields: circular angle statistics, ray placement, random phases.

Ray directions leave the transmit-array midpoint with von Mises distributed
azimuth and elevation; radial distances are uniform over a configured range.
Rays keep a cluster structure: each cluster draws its own mean direction and
its rays scatter around it. A field is a pure function of (config, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_open
from .geometry import ScenarioConfig, Vec3, _digits, _index, _real

_MAX_PLACEMENT_ATTEMPTS = 100
_TWO_PI = 2.0 * math.pi


def von_mises_pdf(alpha, mu: float, kappa: float):
    """Circular density exp(kappa cos(alpha - mu)) / (2 pi I0(kappa)).

    alpha may be a scalar or array; kappa = 0 gives the uniform density
    1/(2 pi). Integrates to 1 over any interval of length 2 pi.
    """
    mu, kappa = _real("mu", mu), _real("kappa", kappa, 0)
    alpha = np.asarray(alpha, dtype=float)
    out = np.exp(kappa * np.cos(alpha - mu)) / (2.0 * np.pi * np.i0(kappa))
    if out.ndim == 0:
        return float(out)
    return out


def sample_von_mises(mu: float, kappa: float, rng: np.random.Generator, size=None):
    """Draw angles in [-pi, pi) from the von Mises law centred at mu.

    Uses the generator's wrapped-Cauchy rejection sampler (exact, no
    truncation bias); kappa = 0 degenerates to the uniform circle law.
    Deterministic for a seeded generator.
    """
    raw = rng.vonmises(_real("mu", mu), _real("kappa", kappa, 0), size=size)
    # numpy wraps into [-pi, pi]; fold the closed upper endpoint back.
    if size is None:  # one draw comes as a Python float
        return raw - _TWO_PI if raw >= math.pi else raw
    raw = np.asarray(raw)
    return np.where(raw >= np.pi, raw - 2.0 * np.pi, raw)


@dataclass(frozen=True, slots=True)
class Ray:
    """One scattered path: a scatterer position and its random phase."""

    position: Vec3
    phase: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", float(_real("phase", self.phase, -math.pi)))
        if not self.phase < math.pi:
            raise ValueError(f"phase must lie in [-pi, pi), got {self.phase!r}")


class ScattererField:
    """L clusters of rays, immutable once generated.

    Stored as read-only arrays in cluster-major order: positions (n_rays, 3),
    phases (n_rays,), and the ray count of each cluster. The Ray view in
    `clusters` is built on first use. seed records the integer seed when the
    field came from one; fields rebuilt from external data carry seed = None.
    """

    def __init__(self, clusters: tuple[tuple[Ray, ...], ...], seed: int | None = None) -> None:
        if len(clusters) == 0 or any(len(c) == 0 for c in clusters):
            raise ValueError("a scatterer field needs at least one ray in every cluster")
        rays = [r for c in clusters for r in c]
        self._set([r.position.as_tuple() for r in rays], [r.phase for r in rays], tuple(map(len, clusters)), seed)
        self._clusters = tuple(tuple(c) for c in clusters)

    @classmethod
    def _from_arrays(cls, positions, phases, cluster_sizes: tuple[int, ...], seed: int | None) -> "ScattererField":
        """Field from already valid cluster-major positions and phases; the Ray view is built on demand."""
        field = cls.__new__(cls)
        field._set(positions, phases, cluster_sizes, seed)
        return field

    def _set(self, positions, phases, sizes: tuple[int, ...], seed: int | None) -> None:
        self._positions = np.array(positions, dtype=float).reshape(-1, 3)
        self._phases = np.array(phases, dtype=float)
        self._positions.setflags(write=False)
        self._phases.setflags(write=False)
        self._sizes, self.seed, self._clusters = sizes, seed, None

    @property
    def clusters(self) -> tuple[tuple[Ray, ...], ...]:
        if self._clusters is None:
            rays = iter([Ray(Vec3(*xyz), ph) for xyz, ph in zip(self._positions.tolist(), self._phases.tolist())])
            self._clusters = tuple(tuple(next(rays) for _ in range(n)) for n in self._sizes)
        return self._clusters

    @property
    def n_clusters(self) -> int:
        return len(self._sizes)

    @property
    def n_rays(self) -> int:
        return len(self._phases)

    def rays(self) -> tuple[Ray, ...]:
        return tuple(r for cluster in self.clusters for r in cluster)

    def positions(self) -> np.ndarray:
        """All ray positions as a read-only (n_rays, 3) array, cluster-major order."""
        return self._positions

    def phases(self) -> np.ndarray:
        """All random ray phases as a read-only (n_rays,) array, cluster-major order."""
        return self._phases

    def to_csv(self, path: str | Path) -> None:
        """Write rows (cluster, ray, x, y, z, phase) with 1-based indices, atomically."""
        index = [(li, ni) for li, n in enumerate(self._sizes, start=1) for ni in range(1, n + 1)]
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "ray", "x_m", "y_m", "z_m", "phase_rad"])
            for (li, ni), xyz, phase in zip(index, self.positions().tolist(), self.phases().tolist()):
                writer.writerow([li, ni, *map(repr, xyz), repr(phase)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScattererField":
        """The field of a to_csv file: clusters in cluster order, each cluster's rays in ray order."""
        groups: dict[int, list[tuple[int, Ray]]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                ray = Ray(Vec3(float(row["x_m"]), float(row["y_m"]), float(row["z_m"])), float(row["phase_rad"]))
                groups.setdefault(_csv_index(row, "cluster"), []).append((_csv_index(row, "ray"), ray))
        return cls(
            tuple(tuple(ray for _, ray in sorted(groups[li], key=lambda item: item[0])) for li in sorted(groups))
        )


def _csv_index(row: dict, column: str) -> int:
    """A 1-based index cell of a field CSV, ASCII digits only; int() would also take "1_0", "+1" and " 2 "."""
    try:
        return _digits(row[column])
    except ValueError as exc:
        raise ValueError(f"column {column}: {exc}") from None


def _place_ray(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    mean_az: float,
    mean_el: float,
    origin: Vec3,
) -> tuple[float, float, float]:
    """Draw one scatterer position; resample below-ground draws.

    Draw order per attempt: azimuth, elevation, radius. The position must
    sit at or above ground.
    """
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        az = sample_von_mises(mean_az, cfg.kappa, rng)
        el = sample_von_mises(mean_el, cfg.kappa, rng)
        # rng.uniform(r_min, r_max) computed the same way, without its per-call overhead
        r = cfg.r_min + (cfg.r_max - cfg.r_min) * rng.random()
        x = origin.x + r * math.cos(el) * math.cos(az)
        y = origin.y + r * math.cos(el) * math.sin(az)
        z = origin.z + r * math.sin(el)
        if z >= 0.0:
            return x, y, z
    raise ValueError(
        "could not place a scatterer above ground after "
        f"{_MAX_PLACEMENT_ATTEMPTS} attempts; the angle configuration "
        "(mu_beta, kappa) pushes rays below ground"
    )


def generate_scatterers(cfg: ScenarioConfig, rng: int | np.random.Generator) -> ScattererField:
    """Generate the full scatterer field for a scenario.

    Per cluster: when cfg.cluster_level_angles is set, a cluster mean
    direction is drawn first (azimuth then elevation, von Mises around
    mu_alpha / mu_beta); rays then scatter around that mean with the same
    concentration. Otherwise every ray draws around the global means. Each
    ray draws azimuth, elevation, radius (resampling on rejection), then its
    phase uniform on [-pi, pi). Passing an integer seeds a fresh generator
    and records the seed on the field.
    """
    seed: int | None = None
    if not isinstance(rng, np.random.Generator):
        seed = _index("rng", rng, 0)
        rng = np.random.default_rng(seed)
    origin = cfg.bs_midpoint()
    coords: list[tuple[float, float, float]] = []
    phases: list[float] = []
    for _ in range(cfg.L_clusters):
        if cfg.cluster_level_angles:
            mean_az = sample_von_mises(cfg.mu_alpha, cfg.kappa, rng)
            mean_el = sample_von_mises(cfg.mu_beta, cfg.kappa, rng)
        else:
            mean_az = cfg.mu_alpha
            mean_el = cfg.mu_beta
        for _ in range(cfg.N_rays):
            coords.append(_place_ray(cfg, rng, mean_az, mean_el, origin))
            # rng.uniform(-pi, pi) computed the same way: half-open, so in [-pi, pi)
            phases.append(-math.pi + _TWO_PI * rng.random())
    return ScattererField._from_arrays(coords, phases, (cfg.N_rays,) * cfg.L_clusters, seed)


def field_for_realization(cfg: ScenarioConfig, master_seed: int, index: int) -> ScattererField:
    """Field for one Monte Carlo realization.

    Each realization owns a private stream derived from (master seed,
    index), so ensembles reproduce identically regardless of evaluation
    order or thread scheduling. Both must be non-negative integers; every
    such pair, however large, has its own stream.
    """
    master_seed, index = _index("master_seed", master_seed, 0), _index("index", index, 0)
    field = generate_scatterers(cfg, np.random.default_rng([master_seed, index]))
    field.seed = master_seed
    return field
