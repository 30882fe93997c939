"""Multidimensional (n = 2, 3) single-source localization and diagnostics.

Both identify steps take the sensor data as one (N+1, s) matrix, column
j measured at sensor point j.  For one source the sensor transforms
factorize exactly into the intensity transform times the free-space
resolvent Green function of the source-sensor distance.
``locate_source_nd`` transforms all columns in one call, removes the
intensity factor by taking the per-lambda sensor mean out of the
log-transforms and fits the location to all sensors and all trustworthy
lambdas in one weighted least-squares problem; the Jacobian at the
solution gives the location covariance.  ``recover_intensity_nd`` then
fits one intensity to all columns jointly, each through its own arrival
kernel.

Also here: the geometric general-position check (no collinear triples /
coplanar quadruples of sensors), the nearest-source visibility matrix
and its determinant, sensor-count sufficiency for constant-intensity
multi-source recovery, and evaluators for the two built-in
non-uniqueness configurations used by the CLI.  The visibility matrix
is the one consumer of a scenario's constant drift velocity
(``DriftFieldND``), which enters in closed form as
exp(-(1/2) a . (x_i - b_j)); the location fit and the intensity
deconvolution model no drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Union

import numpy as np
from scipy import optimize, special

from .forward import duhamel_masses, resolvent_green
from .laplace import DeconvolutionResult, laplace_grid, volterra_deconvolve
from .model import DriftFieldND, TimeGrid, sensor_source_distances

__all__ = [
    "in_general_position",
    "RecoveryND",
    "locate_source_nd",
    "IntensityFitND",
    "recover_intensity_nd",
    "NearestSourceMatrix",
    "nearest_source_matrix",
    "sensor_count_sufficient",
    "DiscrepancyReport",
    "nonuniqueness_discrepancy",
]

# a transform must exceed the noise floor this many times over: near the
# floor the log-transform is biased and its error is no longer Gaussian
NOISE_HEADROOM = 30.0
MIN_LAMBDAS = 4
# sensor subsets tested per batched determinant call
SUBSET_CHUNK = 8192


def in_general_position(points, n: int) -> tuple[bool, Union[tuple, None]]:
    """No collinear triple (n = 2) / no coplanar quadruple (n = 3).

    Returns (ok, witness); the witness is the index tuple of the
    lexicographically first violating subset.  Degeneracy is tested against
    1e-12 of the cloud scale, so exactly symmetric layouts are detected
    reliably.  Subsets are tested SUBSET_CHUNK at a time.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if n not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if pts.shape[1] != n:
        raise ValueError("points do not match the dimension")
    k = n + 1
    if pts.shape[0] < k:
        raise ValueError(f"need at least {k} points")
    scale = max(float(np.ptp(pts)), 1e-300)
    subsets = combinations(range(pts.shape[0]), k)
    while (idx := np.fromiter(islice(subsets, SUBSET_CHUNK),
                              dtype=(np.intp, k))).size:
        vol = np.abs(np.linalg.det(pts[idx[:, 1:]] - pts[idx[:, :1]]))
        bad = np.flatnonzero(vol <= 1e-12 * scale ** n)
        if bad.size:
            return False, tuple(idx[bad[0]].tolist())
    return True, None


@dataclass(frozen=True, eq=False)
class RecoveryND:
    """Location fit of one source seen by s >= n+1 sensors.

    ``x1_cov`` is the Gauss-Newton covariance (J^T J)^-1 of the weighted
    fit at its solution.  It treats the log-transform errors at different
    lambdas as independent, but transforms of one noisy series are
    correlated across lambda, so it understates the error by a factor of
    a few.  ``diagnostics`` holds ``{code, ...}`` records.
    """

    x1_hat: np.ndarray
    alpha_hat: np.ndarray
    x1_cov: np.ndarray
    lambdas: np.ndarray
    residual_norm: float
    diagnostics: tuple


def _log_green(n: int, r: np.ndarray, mu: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """log G_n(r, mu) and its r-derivative (exponentially scaled Bessels
    keep the plane case finite at large mu*r)."""
    z = mu * r
    if n == 3:
        return -z - np.log(4.0 * np.pi * r), -mu - 1.0 / r
    k0e = special.k0e(z)
    return np.log(k0e / (2.0 * np.pi)) - z, -mu * special.k1e(z) / k0e


def _asymptotic_start(sensors: np.ndarray, mu: np.ndarray,
                      target: np.ndarray, wts: np.ndarray, n: int
                      ) -> np.ndarray:
    """Closed-form location from the large-mu form of the log-transforms.

    log G_n(r, mu) = -mu r - p log r + c_n(mu) + o(1) with p = (n-1)/2,
    exactly so for n = 3.  A weighted line fit of each sensor's
    mean-removed log-transforms against mu thus has slope -(r_j - mean r)
    and intercept -p (log r_j - mean log r): the intercepts give the
    distances up to a common factor, the slopes fix the factor, and the
    linearized sphere equations give the location.
    """
    design = np.column_stack([np.ones_like(mu), mu])
    coef = np.array([np.linalg.lstsq(design * w[:, None], y * w,
                                     rcond=None)[0]
                     for y, w in zip(target, wts)])
    shape = np.exp(-coef[:, 0] / (0.5 * (n - 1)))
    factor = np.linalg.lstsq((shape - shape.mean())[:, None], -coef[:, 1],
                             rcond=None)[0]
    r2 = (factor * shape) ** 2
    b2 = np.sum(sensors ** 2, axis=1)
    return np.linalg.lstsq(2.0 * (sensors[1:] - sensors[0]),
                           b2[1:] - b2[0] - (r2[1:] - r2[0]), rcond=None)[0]


def locate_source_nd(psi: np.ndarray, sensors, grid: TimeGrid, n: int,
                     lambdas, lambda0: float = 0.0,
                     noise_sigma: float = 0.0) -> RecoveryND:
    """Weighted least-squares fit of the source location to all transforms.

    ``psi`` holds the background-subtracted series of the s sensors, shape
    (N+1, s) on ``grid``; row j of ``sensors`` (shape (s, n)) is where
    column j was measured.  ``lambdas`` is the increasing grid of
    transform parameters; all s series are transformed in one
    ``laplace_grid`` call.

    For one source the transform factorizes exactly,
    Phi_j(lam) = Q(lam) * G_n(|x - b_j|, sqrt(lam + lambda0)) with
    G_3 = exp(-mu r)/(4 pi r) and G_2 = K0(mu r)/(2 pi).  Taking the
    per-lambda sensor mean out of log Phi_j removes the unknown intensity
    transform Q; x is then fitted over all sensors and lambdas, once from
    the sensor centroid and once from the closed-form large-mu solution,
    keeping the smaller misfit.  Each log-value is weighted by |Phi| over
    its error: truncation plus discretization bound plus the noise floor
    sigma*sqrt(tau/(2 lam)) of iid per-sample noise of scale
    ``noise_sigma``.

    Lambdas where a transform fails the truncation guard, or does not
    clear the noise floor by NOISE_HEADROOM, are dropped and reported; if
    fewer than MIN_LAMBDAS remain, the call fails with that diagnosis.
    """
    if n not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    sensors = np.atleast_2d(np.asarray(sensors, dtype=float))
    s = sensors.shape[0]
    if s < n + 1:
        raise ValueError(f"need at least {n + 1} sensors, got {s}")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.num_samples, s):
        raise ValueError("need one series column per sensor on the time grid")
    ok, witness = in_general_position(sensors, n)
    if not ok:
        raise ValueError(f"sensors fail general position; witness indices "
                         f"{witness}")
    lambdas = np.asarray(lambdas, dtype=float)
    phi = laplace_grid(psi, grid, lambdas)
    # one row per sensor from here on
    values = np.ascontiguousarray(phi.values.T)
    noise = noise_sigma * np.sqrt(grid.tau / (2.0 * lambdas))
    err = phi.bounds.T + noise
    guards = {
        "truncation": np.all(phi.truncation_ok(), axis=1),
        "noise_floor": np.all(values > NOISE_HEADROOM * noise, axis=0),
    }
    keep = np.ones(lambdas.size, dtype=bool)
    diagnostics = []
    for guard, passed in guards.items():
        if np.any(keep & ~passed):
            diagnostics.append({"code": "lambdas_dropped", "guard": guard,
                                "lambdas": lambdas[keep & ~passed].tolist()})
        keep &= passed
    if np.count_nonzero(keep) < MIN_LAMBDAS:
        raise ValueError(
            f"fewer than {MIN_LAMBDAS} trustworthy lambdas "
            f"({np.count_nonzero(keep)} of {lambdas.size} pass the transform "
            f"guards); extend the horizon or reduce the noise")
    lambdas, values, err = lambdas[keep], values[:, keep], err[:, keep]

    mu = np.sqrt(lambdas + lambda0)
    wts = values / err
    log_phi = np.log(values)
    target = log_phi - log_phi.mean(axis=0)

    def model(x):
        diff = x[None, :] - sensors
        r = np.linalg.norm(diff, axis=1)[:, None]
        log_g, dlog_g = _log_green(n, r, mu)
        return log_g - log_g.mean(axis=0), dlog_g, diff / r

    def residuals(x):
        return (wts * (model(x)[0] - target)).ravel()

    def jacobian(x):
        _, dlog_g, unit = model(x)
        d = dlog_g[:, :, None] * unit[:, None, :]
        return (wts[:, :, None] * (d - d.mean(axis=0))).reshape(-1, n)

    # from the centroid alone the fit can stall in a spurious minimum when
    # the source lies outside the sensor hull
    starts = (_asymptotic_start(sensors, mu, target, wts, n),
              sensors.mean(axis=0))
    fit = min((optimize.least_squares(residuals, x0, jac=jacobian,
                                      xtol=1e-15, ftol=1e-15, gtol=1e-15)
               for x0 in starts), key=lambda f: f.cost)
    return RecoveryND(
        x1_hat=fit.x, alpha_hat=np.linalg.norm(sensors - fit.x, axis=1),
        x1_cov=np.linalg.inv(fit.jac.T @ fit.jac), lambdas=lambdas,
        residual_norm=float(np.linalg.norm(fit.fun)),
        diagnostics=tuple(diagnostics))


@dataclass(frozen=True, eq=False)
class IntensityFitND:
    """The intensity fitted jointly to all sensors; the per-sensor misfits
    are on the deconvolution result."""

    q: np.ndarray
    deconvolution: DeconvolutionResult


def recover_intensity_nd(psi: np.ndarray, grid: TimeGrid, alphas, n: int,
                         eps: Union[float, str] = 0.0,
                         lambda0: float = 0.0,
                         sigma: Union[float, None] = None) -> IntensityFitND:
    """Deconvolve all sensor series jointly by their arrival kernels.

    ``psi`` holds the background-subtracted series, shape (N+1, s) on
    ``grid``, and ``alphas`` the s source-sensor distances.  Every sensor
    sees the same intensity through its own free-space kernel, so one q
    is fitted to the s stacked convolution systems
    (``volterra_deconvolve`` with one column per sensor): one Gram
    sum_j A_j^T A_j, one eps search whose eps="auto" target is
    sigma*sqrt(s*N), and one factorization per trial eps.  Cross-sensor
    consistency is reported as each sensor's relative residual, the
    deconvolution's ``misfit``.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0.0):
        raise ValueError("distances must be positive")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.num_samples, alphas.size):
        raise ValueError("need one series column per distance on the time "
                         "grid")
    if lambda0 != 0.0:
        psi = psi * np.exp(lambda0 * grid.times())[:, None]
    masses = np.column_stack([duhamel_masses(n, float(a), grid)
                              for a in alphas])
    dec = volterra_deconvolve(psi, masses, grid, eps=eps, sigma=sigma)
    q = dec.q
    if lambda0 != 0.0:
        q = q * np.exp(-lambda0 * grid.times())
    return IntensityFitND(q=q, deconvolution=dec)


# ---------------------------------------------------------------------------
# Identifiability diagnostics


@dataclass(frozen=True, eq=False)
class NearestSourceMatrix:
    """Visibility matrix of nearest sources with drift weighting.

    Entry (j, i) is exp(-(1/2) a . (x_i - b_j)) for a constant drift a
    when source i attains sensor j's minimal distance, and 0 otherwise.
    A vanishing determinant signals that the leading asymptotics cannot
    separate the sources.
    """

    matrix: np.ndarray
    determinant: Union[float, None]
    near_singular: Union[bool, None]


def nearest_source_matrix(sources, sensors, drift: Union[DriftFieldND, None]
                          ) -> NearestSourceMatrix:
    xs = np.atleast_2d(np.asarray(sources, dtype=float))
    bs = np.atleast_2d(np.asarray(sensors, dtype=float))
    table = sensor_source_distances(xs, bs)
    velocity = np.zeros(xs.shape[1]) if drift is None else drift.velocity
    # the drift line integral from sensor j to source i, shape (s, r)
    exponent = -0.5 * (xs[None] - bs[:, None]) @ velocity
    mat = np.zeros_like(exponent)
    for j, nearest in enumerate(table.nearest):
        mat[j, nearest] = np.exp(exponent[j, nearest])
    if mat.shape[0] != mat.shape[1]:
        return NearestSourceMatrix(matrix=mat, determinant=None,
                                   near_singular=None)
    det = float(np.linalg.det(mat))
    row_norms = np.linalg.norm(mat, axis=1)
    hadamard = float(np.prod(np.where(row_norms > 0.0, row_norms, 1.0)))
    near_singular = bool(abs(det) <= 1e-10 * hadamard)
    return NearestSourceMatrix(matrix=mat, determinant=det,
                               near_singular=near_singular)


def sensor_count_sufficient(r: int, s: int, n: int) -> bool:
    """Sensor count sufficient to pin down up to r constant sources.

    Requires s >= 2r+1 in the plane and s >= 3r+1 in space; below the
    bound there are explicit configurations two different source sets
    cannot be told apart from.
    """
    if n == 2:
        return s >= 2 * r + 1
    if n == 3:
        return s >= 3 * r + 1
    raise ValueError("dimension must be 2 or 3")


# ---------------------------------------------------------------------------
# Built-in non-uniqueness configurations


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """Transform-domain discrepancies over probes and lambdas."""

    case: int
    probes: np.ndarray
    lambdas: np.ndarray
    table: np.ndarray          # |discrepancy|, shape (probes, lambdas)
    max_discrepancy: float
    reference: float           # comparable off-symmetry magnitude


def _bisector_probes(x1: np.ndarray, x2: np.ndarray, count: int,
                     extent: float, seed: int = 7) -> np.ndarray:
    """Points on the hyperplane bisecting segment [x1, x2]."""
    n = x1.size
    mid = 0.5 * (x1 + x2)
    axis = x2 - x1
    axis = axis / np.linalg.norm(axis)
    basis = []
    for e in np.eye(n):
        v = e - np.dot(e, axis) * axis
        for u in basis:
            v = v - np.dot(v, u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            basis.append(v / norm)
    basis = np.array(basis)
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-extent, extent, size=(count, basis.shape[0]))
    return mid[None, :] + coef @ basis


def _signed_field(n: int, sources: np.ndarray, signs: np.ndarray,
                  probes: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """|sum_i sign_i G_n(|p - x_i|, lam)| for every probe p (rows) and
    lambda (columns)."""
    r = np.linalg.norm(probes[:, None, :] - sources[None, :, :], axis=2)
    if np.any(r == 0.0):
        raise ValueError("probe coincides with a source")
    green = resolvent_green(n, r[:, None, :], lambdas[None, :, None])
    return np.abs((signs * green).sum(axis=2))


def nonuniqueness_discrepancy(case: int, a: float = 1.0, m_dist: float = 3.0,
                              lambdas=(1.0, 10.0, 100.0), n: int = 3,
                              probes=None, num_probes: int = 20
                              ) -> DiscrepancyReport:
    """Evaluate one of the built-in indistinguishable configurations.

    case 1: opposite-sign sources at distance 2a; on the bisecting plane
    (line for n = 2) the transforms cancel identically, so no number of
    sensors there can see the pair.  case 2 (n = 3 only): two different
    same-sign source pairs on the diagonals of a square of half-side a;
    their transforms coincide at the six axis probes at distance m_dist,
    so six sensors cannot separate the configurations while a generic
    seventh probe can.  Each case is a set of signed sources whose
    transform difference is tabulated at the probes; the reference is the
    same difference at a point where nothing cancels.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if case == 1:
        sources = np.zeros((2, n))
        sources[:, 0] = a, -a
        signs = np.array([1.0, -1.0])
        x1, x2 = sources
        if probes is None:
            probes = _bisector_probes(x1, x2, num_probes, extent=m_dist)
        probes = np.atleast_2d(np.asarray(probes, dtype=float))
        # reference probe at the same distance from x1 as the first bisector
        # probe, but on the x1 side of the axis where nothing cancels
        axis = (x1 - x2) / np.linalg.norm(x1 - x2)
        ref_p = x1 + np.linalg.norm(probes[0] - x1) * axis
    elif case == 2:
        if n != 3:
            raise ValueError("case 2 is a spatial (n=3) configuration")
        # pair A (+) on one diagonal, pair B (-) on the other
        sources = np.array([[a, a, 0.0], [-a, -a, 0.0],
                            [a, -a, 0.0], [-a, a, 0.0]])
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        if probes is None:
            m = m_dist
            probes = np.array([[m, 0, 0], [-m, 0, 0], [0, m, 0],
                               [0, -m, 0], [0, 0, m], [0, 0, -m]],
                              dtype=float)
        probes = np.atleast_2d(np.asarray(probes, dtype=float))
        ref_p = np.array([1.0, 2.0, 0.0])
    else:
        raise ValueError("case must be 1 or 2")
    table = _signed_field(n, sources, signs, probes, lambdas)
    reference = float(_signed_field(n, sources, signs, ref_p[None],
                                    lambdas).max())
    return DiscrepancyReport(case=case, probes=probes, lambdas=lambdas,
                             table=table,
                             max_discrepancy=float(table.max()),
                             reference=reference)
