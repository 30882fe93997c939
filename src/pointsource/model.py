"""Domain, coefficient, source, sensor and scenario types shared by the toolkit.

Scenario JSON schema (version 1)
--------------------------------
A scenario file is a single JSON object::

    {
      "schema_version": 1,
      "domain": {"type": "interval", "a": 0.0, "b": 1.0,
                 "bc_left":  {"type": "dirichlet", "g": 0.0},
                 "bc_right": {"type": "robin", "sigma": 0.5, "g": [..]}}
              | {"type": "free_space", "n": 3, "lambda0": 0.0},
      "coefficients":
                {"type": "field1d", "a": 0.0, "b": 1.0,
                 "a2": [..], "a1": [..], "a0": [..]}
              | {"type": "constant1d", "a2": 1.0, "a1": 0.0, "a0": 0.0,
                 "a": 0.0, "b": 1.0}
              | {"type": "drift_nd", "n": 2, "constant": [1.0, 0.0]}
              | null,
      "sources": [{"location": [0.3], "intensity": 1.0},
                  {"location": [0.2, 0.1, -0.3], "intensity": [..samples..]}],
      "sensors": [[0.0], [1.0]],
      "time_grid": {"tau": 1e-3, "num_steps": 10000},
      "noise": {"sigma": 0.0, "seed": 0},
      "f0": [..samples on the coefficient grid..]      # optional, 1D only
    }

Boundary ``g`` values and sampled intensities are either a constant or an
array of ``num_steps + 1`` samples on the uniform time grid.  ``f0`` is a
time-independent volumetric source sampled on the coefficient grid.  All
of these must be finite.  An interval takes ``field1d`` or ``constant1d``
coefficients, always evaluated as cubic splines (a ``"degree"`` key, which
older files carry, is ignored); a2 must stay positive on its spline, not
only at its samples.  Free space takes ``null`` (unit
diffusivity) or ``drift_nd``, a constant drift velocity that only
``diagnose`` uses, to weight the nearest-source visibility matrix;
``simulate`` and ``identify`` model no drift and reject a nonzero one.

Sensor series interchange is a CSV file with header ``t,psi_1,...,psi_s``
and one row per time sample; floats are written with 17 significant digits
so that files round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "TimeGrid",
    "Dirichlet",
    "Robin",
    "BoundaryCondition",
    "Interval1D",
    "FreeSpace",
    "SpatialDomain",
    "CoefficientField1D",
    "DriftFieldND",
    "PointSource",
    "Scenario",
    "validate_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "write_sensor_csv",
    "read_sensor_csv",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform time grid t_k = k*tau, k = 0..num_steps."""

    tau: float
    num_steps: int

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("time step tau must be positive and finite")
        if self.num_steps < 2:
            raise ValueError("time grid needs at least 2 steps")

    @property
    def horizon(self) -> float:
        return self.tau * self.num_steps

    @property
    def num_samples(self) -> int:
        return self.num_steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.num_samples) * self.tau


@dataclass(frozen=True, eq=False)
class Dirichlet:
    """Boundary value u = g(t); g is a constant or a series on the time grid."""

    g: Union[float, np.ndarray] = 0.0


@dataclass(frozen=True, eq=False)
class Robin:
    """Boundary value u_x + sigma*u = g(t) (one-sided derivative in x)."""

    sigma: float = 0.0
    g: Union[float, np.ndarray] = 0.0


BoundaryCondition = Union[Dirichlet, Robin]


@dataclass(frozen=True, eq=False)
class Interval1D:
    a: float
    b: float
    bc_left: BoundaryCondition = Dirichlet()
    bc_right: BoundaryCondition = Dirichlet()

    @property
    def n(self) -> int:
        return 1


@dataclass(frozen=True, eq=False)
class FreeSpace:
    """Whole-space domain with constant unit diffusivity and reaction lambda0."""

    n: int
    lambda0: float = 0.0


SpatialDomain = Union[Interval1D, FreeSpace]


class CoefficientField1D:
    """Sampled variable coefficients of a2*u_xx - a1*u_x - a0*u on [a, b].

    Coefficients are stored as uniform samples and evaluated through a cubic
    spline, so a2 has a usable first derivative.  Units: a2 length^2/time,
    a1 length/time, a0 1/time.

    Derived quantities:
      slowness(x)          = 1/sqrt(a2(x)), the travel-metric density whose
                             line integral converts length to arrival scale;
      amplitude_density(x) = a2'(x)/(4 a2(x)) + a1(x)/(2 a2(x)), the
                             first-order log-amplitude correction density.
    """

    def __init__(self, a: float, b: float, a2, a1, a0):
        from scipy.interpolate import CubicSpline

        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError("coefficient interval must be finite with a < b")
        a2 = np.atleast_1d(np.asarray(a2, dtype=float))
        a1 = np.atleast_1d(np.asarray(a1, dtype=float))
        a0 = np.atleast_1d(np.asarray(a0, dtype=float))
        # size-1 arrays are constants; all-constant input gets 4 samples
        sizes = {a2.size, a1.size, a0.size} - {1}
        if len(sizes) > 1:
            raise ValueError("coefficient sample arrays must share a length")
        m = sizes.pop() if sizes else 4

        def expand(v):
            return np.full(m, v[0]) if v.size == 1 else v

        self.a = float(a)
        self.b = float(b)
        self.a2 = expand(a2)
        self.a1 = expand(a1)
        self.a0 = expand(a0)
        self.grid = np.linspace(a, b, m)
        self._s2 = CubicSpline(self.grid, self.a2)
        self._s1 = CubicSpline(self.grid, self.a1)
        self._s0 = CubicSpline(self.grid, self.a0)
        self._d2 = self._s2.derivative()

    @classmethod
    def constant(cls, a2: float, a1: float = 0.0, a0: float = 0.0,
                 interval: tuple[float, float] = (0.0, 1.0)) -> "CoefficientField1D":
        return cls(interval[0], interval[1], [a2], [a1], [a0])

    @property
    def ellipticity_bounds(self) -> tuple[float, float]:
        """Least and greatest a2 on [a, b], read from the spline every
        evaluation goes through: its extremes lie at the knots or where its
        derivative vanishes (a constant piece reports NaN roots)."""
        roots = self._d2.roots(extrapolate=False)
        values = self._s2(np.concatenate([self.grid, roots[~np.isnan(roots)]]))
        return float(values.min()), float(values.max())

    def diffusion(self, x):
        return self._s2(x)

    def drift(self, x):
        return self._s1(x)

    def reaction(self, x):
        return self._s0(x)

    def slowness(self, x):
        return 1.0 / np.sqrt(self._s2(x))

    def amplitude_density(self, x):
        a2 = self._s2(x)
        return self._d2(x) / (4.0 * a2) + self._s1(x) / (2.0 * a2)


@dataclass(frozen=True, eq=False)
class DriftFieldND:
    """Constant drift velocity a of -Delta u + a . grad u on R^n, n in {2, 3}.

    Only ``diagnose`` reads it: the nearest-source visibility matrix
    weights sensor j's view of source i by exp(-(1/2) a . (x_i - b_j)).
    The free-space oracle and the 2D/3D locator model no drift, so
    ``simulate`` and ``identify`` reject a nonzero one.
    """

    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "velocity",
                           np.atleast_1d(np.asarray(self.velocity, dtype=float)))

    @property
    def n(self) -> int:
        return self.velocity.size


@dataclass(frozen=True, eq=False)
class PointSource:
    """Point source q(t)*delta(x - location); intensity constant or sampled."""

    location: np.ndarray
    intensity: Union[float, np.ndarray] = 1.0

    def __post_init__(self):
        object.__setattr__(self, "location",
                           np.atleast_1d(np.asarray(self.location, dtype=float)))
        if isinstance(self.intensity, (list, tuple, np.ndarray)):
            object.__setattr__(self, "intensity",
                               np.asarray(self.intensity, dtype=float))

    def intensity_samples(self, grid: TimeGrid) -> np.ndarray:
        if isinstance(self.intensity, np.ndarray):
            return self.intensity
        return np.full(grid.num_samples, float(self.intensity))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete forward-simulation setup: where, what, and how it is measured."""

    domain: SpatialDomain
    sources: tuple
    sensors: tuple
    grid: TimeGrid
    coefficients: Union[CoefficientField1D, DriftFieldND, None] = None
    noise_sigma: float = 0.0
    seed: int = 0
    f0: Union[np.ndarray, None] = None

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(
            self, "sensors",
            tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in self.sensors))
        if self.f0 is not None:
            object.__setattr__(self, "f0", np.asarray(self.f0, dtype=float))

    @property
    def dimension(self) -> int:
        return self.domain.n

    def source_points(self) -> np.ndarray:
        return np.array([s.location for s in self.sources], dtype=float)

    def sensor_points(self) -> np.ndarray:
        return np.array(self.sensors, dtype=float)


def _point_in_domain(p: np.ndarray, domain: SpatialDomain, strict: bool) -> bool:
    if isinstance(domain, FreeSpace):
        return p.size == domain.n and bool(np.all(np.isfinite(p)))
    if p.size != 1:
        return False
    x = float(p[0])
    if strict:
        return domain.a < x < domain.b
    return domain.a <= x <= domain.b


def _check_series(g, grid: TimeGrid) -> bool:
    """A finite constant, or a series of num_steps+1 finite samples."""
    if isinstance(g, np.ndarray) and g.size != grid.num_samples:
        return False
    return bool(np.all(np.isfinite(g)))


def validate_scenario(s: Scenario) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the scenario is well formed.  Violations are data,
    not exceptions: each message names the offending field and the rule.
    """
    out: list[str] = []
    dom = s.domain

    if isinstance(dom, Interval1D):
        if not (np.isfinite(dom.a) and np.isfinite(dom.b) and dom.a < dom.b):
            out.append("domain: interval requires finite a < b")
        for side, bc in (("bc_left", dom.bc_left), ("bc_right", dom.bc_right)):
            if isinstance(bc, Robin) and not np.isfinite(bc.sigma):
                out.append(f"domain.{side}: Robin sigma must be finite")
            if not _check_series(bc.g, s.grid):
                out.append(f"domain.{side}.g: must be finite; a series needs "
                           f"num_steps+1 samples")
        if s.coefficients is None or not isinstance(s.coefficients, CoefficientField1D):
            out.append("coefficients: interval domain requires a CoefficientField1D")
        else:
            m1, _ = s.coefficients.ellipticity_bounds
            if not m1 > 0.0:
                out.append(f"coefficients.a2: ellipticity lower bound M1 > 0 "
                           f"violated (its spline reaches {m1:.3g})")
            # each end may fall short of the domain's by 1e-12
            if s.coefficients.a > dom.a + 1e-12 or s.coefficients.b < dom.b - 1e-12:
                out.append("coefficients: sample interval must cover the domain")
    elif isinstance(dom, FreeSpace):
        if dom.n not in (1, 2, 3):
            out.append("domain.n: free-space dimension must be 1, 2, or 3")
        if not (np.isfinite(dom.lambda0) and dom.lambda0 >= 0.0):
            out.append("domain.lambda0: reaction coefficient must be finite "
                       "and nonnegative")
        if isinstance(s.coefficients, DriftFieldND):
            if s.coefficients.n != dom.n:
                out.append("coefficients: drift dimension must match the "
                           "domain")
            if not np.all(np.isfinite(s.coefficients.velocity)):
                out.append("coefficients.constant: drift components must be "
                           "finite")
        if isinstance(s.coefficients, CoefficientField1D):
            out.append("coefficients: free-space domains take null or "
                       "drift_nd; a coefficient field needs an interval")
    else:
        out.append("domain: unknown domain variant")

    if not s.sources:
        out.append("sources: at least one source is required")
    for i, src in enumerate(s.sources):
        if not _point_in_domain(src.location, dom, strict=True):
            out.append(f"sources[{i}].location: must lie strictly inside the domain")
        if not _check_series(src.intensity, s.grid):
            out.append(f"sources[{i}].intensity: must be finite; a series "
                       f"must match the time grid")

    if not s.sensors:
        out.append("sensors: at least one sensor is required")
    for j, p in enumerate(s.sensors):
        if not _point_in_domain(p, dom, strict=False):
            out.append(f"sensors[{j}]: must lie in the domain")
    pts = [tuple(p) for p in s.sensors]
    if len(set(pts)) != len(pts):
        out.append("sensors: locations must be pairwise distinct")
    for i, src in enumerate(s.sources):
        for j, p in enumerate(s.sensors):
            if src.location.size == p.size and \
                    float(np.linalg.norm(src.location - p)) == 0.0:
                out.append(f"sensors[{j}]: coincides with sources[{i}]")

    if not (np.isfinite(s.noise_sigma) and s.noise_sigma >= 0.0):
        out.append("noise.sigma: must be finite and nonnegative")
    if s.seed < 0:
        out.append("noise.seed: must be nonnegative")
    if s.f0 is not None:
        if not isinstance(dom, Interval1D):
            out.append("f0: volumetric background source is 1D-interval only")
        elif not np.all(np.isfinite(s.f0)):
            out.append("f0: samples must be finite")
        elif isinstance(s.coefficients, CoefficientField1D) and \
                s.f0.size != s.coefficients.grid.size:
            out.append("f0: must be sampled on the coefficient grid")
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _num(x):
    return x.tolist() if isinstance(x, np.ndarray) else float(x)


def _object(d, name: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object")
    return d


def _integer(x, name: str) -> int:
    if not (isinstance(x, int) or float(x).is_integer()):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _bc_to_dict(bc: BoundaryCondition) -> dict:
    if isinstance(bc, Dirichlet):
        return {"type": "dirichlet", "g": _num(bc.g)}
    return {"type": "robin", "sigma": float(bc.sigma), "g": _num(bc.g)}


def _bc_from_dict(dd: dict, side: str) -> BoundaryCondition:
    d = _object(dd.get(side, {"type": "dirichlet"}), f"domain.{side}")
    g = d.get("g", 0.0)
    g = np.asarray(g, dtype=float) if isinstance(g, list) else float(g)
    if d["type"] == "dirichlet":
        return Dirichlet(g=g)
    if d["type"] == "robin":
        return Robin(sigma=float(d.get("sigma", 0.0)), g=g)
    raise ValueError(f"unknown boundary condition type {d['type']!r}")


def scenario_to_dict(s: Scenario) -> dict:
    dom = s.domain
    if isinstance(dom, Interval1D):
        domain = {"type": "interval", "a": dom.a, "b": dom.b,
                  "bc_left": _bc_to_dict(dom.bc_left),
                  "bc_right": _bc_to_dict(dom.bc_right)}
    else:
        domain = {"type": "free_space", "n": dom.n, "lambda0": dom.lambda0}

    co = s.coefficients
    if co is None:
        coeff = None
    elif isinstance(co, CoefficientField1D):
        coeff = {"type": "field1d", "a": co.a, "b": co.b,
                 "a2": co.a2.tolist(), "a1": co.a1.tolist(),
                 "a0": co.a0.tolist()}
    else:
        coeff = {"type": "drift_nd", "n": co.n, "constant": co.velocity.tolist()}

    return {
        "schema_version": SCHEMA_VERSION,
        "domain": domain,
        "coefficients": coeff,
        "sources": [{"location": src.location.tolist(),
                     "intensity": _num(src.intensity)} for src in s.sources],
        "sensors": [p.tolist() for p in s.sensors],
        "time_grid": {"tau": s.grid.tau, "num_steps": s.grid.num_steps},
        "noise": {"sigma": s.noise_sigma, "seed": s.seed},
        "f0": None if s.f0 is None else s.f0.tolist(),
    }


def scenario_from_dict(d: dict) -> Scenario:
    d = _object(d, "scenario")
    if d.get("schema_version", 1) != SCHEMA_VERSION:
        raise ValueError("unsupported scenario schema version")
    dd = d["domain"]
    if dd["type"] == "interval":
        domain: SpatialDomain = Interval1D(
            a=float(dd["a"]), b=float(dd["b"]),
            bc_left=_bc_from_dict(dd, "bc_left"),
            bc_right=_bc_from_dict(dd, "bc_right"))
    elif dd["type"] == "free_space":
        domain = FreeSpace(n=_integer(dd["n"], "domain.n"),
                           lambda0=float(dd.get("lambda0", 0.0)))
    else:
        raise ValueError(f"unknown domain type {dd['type']!r}")

    cd = d.get("coefficients")
    coefficients: Union[CoefficientField1D, DriftFieldND, None]
    if cd is None:
        coefficients = None
    elif cd["type"] == "field1d":
        coefficients = CoefficientField1D(cd["a"], cd["b"], cd["a2"], cd["a1"],
                                          cd["a0"])
    elif cd["type"] == "constant1d":
        coefficients = CoefficientField1D.constant(
            cd["a2"], cd.get("a1", 0.0), cd.get("a0", 0.0),
            interval=(cd["a"], cd["b"]))
    elif cd["type"] == "drift_nd":
        coefficients = DriftFieldND(cd["constant"])
    else:
        raise ValueError(f"unknown coefficient type {cd['type']!r}")

    sources = tuple(
        PointSource(location=np.asarray(sd["location"], dtype=float),
                    intensity=(np.asarray(sd["intensity"], dtype=float)
                               if isinstance(sd["intensity"], list)
                               else float(sd["intensity"])))
        for sd in d["sources"])
    noise = _object(d.get("noise", {}), "noise")
    f0 = d.get("f0")
    return Scenario(
        domain=domain,
        coefficients=coefficients,
        sources=sources,
        sensors=tuple(np.asarray(p, dtype=float) for p in d["sensors"]),
        grid=TimeGrid(tau=float(d["time_grid"]["tau"]),
                      num_steps=_integer(d["time_grid"]["num_steps"],
                                         "time_grid.num_steps")),
        noise_sigma=float(noise.get("sigma", 0.0)),
        seed=_integer(noise.get("seed", 0), "noise.seed"),
        f0=None if f0 is None else np.asarray(f0, dtype=float),
    )


def save_scenario(path, s: Scenario) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Sensor CSV interchange: header t,psi_1,...,psi_s


def write_sensor_csv(path, times: np.ndarray, series: np.ndarray) -> None:
    """Write series (shape (num_samples, s)) with 17-significant-digit floats."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[0] != times.size:
        raise ValueError("series must have shape (num_samples, s)")
    header = ",".join(["t"] + [f"psi_{j + 1}" for j in range(series.shape[1])])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        np.savetxt(fh, np.column_stack([times, series]), fmt="%.17g",
                   delimiter=",", newline="\r\n")


def read_sensor_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a sensor CSV; returns (times, series) with series (num_samples, s).

    A bad header, a non-numeric or non-finite cell or a ragged row raises
    ValueError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if len(header) < 2 or header[0] != "t":
            raise ValueError("sensor CSV must start with header t,psi_1,...")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"sensor CSV rows hold {data.shape[1]} values, the "
                         f"header names {len(header)} columns")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"line {i + 2}, column {header[j]}: {data[i, j]} is "
                         f"not finite")
    return data[:, 0], data[:, 1:]
