"""1D source identification from the transforms of a scenario's sensors.

The locator takes the transforms of every sensor series from one
``laplace_grid`` call and the scenario they were measured in, and reads
the two outermost sensors b1 < b2.  Location recovery uses the
large-parameter behaviour of their transform ratio: for a single source
between them,

    log(Phi_1/Phi_2)(lam) = -mu * (travel(b1, x1) - travel(x1, b2))
                            - amp(b1, b2) + O(1/mu),

with mu = sqrt(lam + lambda0), where travel integrates the slowness
1/sqrt(a2) and amp integrates the first-order amplitude density of the
scenario's coefficients (unit constants in free space).  Only free space
has a reaction lambda0 (zero on an interval); on the free line the
relation is exact, since Phi_j = Q(lam) exp(-mu |x1 - b_j|)/(2 mu).
Solving for the travel distance from b1 and inverting the (strictly
monotone) travel integral yields the source coordinate.  A sensor on a
reflecting end of an interval sees the image source, which doubles its
transform; the locator works out that branch from the domain's boundary
conditions.  Scaled by 1/(2 mu), the same log-ratio tends to the
midpoint offset at large lambda, which the admissibility check reads.
The locator's ``used`` mask is the one range rule: only travel distances
strictly inside the sensor bracket reach the travel inversion.
The intensity at the recovered location comes from
``laplace.recover_intensity``, the path every dimension shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import travel_integrals
from .laplace import LaplaceSamples
from .model import CoefficientField1D, Dirichlet, Interval1D, Scenario

__all__ = [
    "LocationFit1D",
    "locate_source_1d",
    "alternation_findings",
]


def _log_ratio(phi: LaplaceSamples) -> tuple[np.ndarray, np.ndarray]:
    """The mask of trustworthy lambdas and log(Phi_1/Phi_2) on that mask
    (NaN elsewhere), from the two columns of ``phi``.

    Points where either value sits below its own truncation bound are
    treated as (near-)zeros and skipped; the two series vanish together
    for consistent data, so isolated skips are expected.  A single source
    gives a positive ratio at every kept point, so any other sign rejects
    the data.
    """
    ok = np.all(phi.truncation_ok() & (phi.values != 0.0), axis=1)
    if np.count_nonzero(ok) < 3:
        raise ValueError("need at least 3 trustworthy lambda points")
    ratio = phi.values[ok, 0] / phi.values[ok, 1]
    if (ratio > 0.0).any() and (ratio < 0.0).any():
        raise ValueError("transform ratio changes sign across the window; "
                         "sensor data inconsistent with a single source")
    if not (ratio > 0.0).all():
        raise ValueError("transform ratio is nonpositive across the window")
    logr = np.full(phi.lambdas.shape, np.nan)
    logr[ok] = np.log(ratio)
    return ok, logr


def _invert_travel(coeffs: CoefficientField1D, b1: float,
                   m: np.ndarray) -> np.ndarray:
    """The points x with int_{b1}^{x} slowness = m, for an array of
    positive travel distances m whose points lie inside the coefficient
    interval (the locator's ``used`` mask keeps them there).

    x(m) solves dx/dm = sqrt(a2(x)) with x(0) = b1, so one DOP853
    integration through the sorted targets (rtol = atol = 1e-13) inverts
    them all; the slowness is strictly positive, so each root is unique.
    """
    from scipy.integrate import solve_ivp

    targets, inverse = np.unique(m, return_inverse=True)
    sol = solve_ivp(lambda _, y: np.sqrt(coeffs.diffusion(y)),
                    (0.0, targets[-1]), [float(b1)], method="DOP853",
                    t_eval=targets, rtol=1e-13, atol=1e-13)
    return sol.y[0][inverse]


@dataclass(frozen=True, eq=False)
class LocationFit1D:
    """Per-lambda and aggregate source-location estimates.

    ``x1_per_lambda`` is NaN where ``used`` is false: at lambdas whose
    transforms failed the guards or whose travel distance fell outside
    the sensor bracket.  ``offset`` is the large-lambda limit of
    log(Phi_1/Phi_2)/(2 mu): how far the source travel-coordinate
    sits from the sensor midpoint, with ``offset_residual`` the rms
    residual of its fit.  ``diagnostics`` holds ``{code, ...}`` records.
    """

    x1_hat: float
    lambdas: np.ndarray
    x1_per_lambda: np.ndarray
    travel_per_lambda: np.ndarray
    weights: np.ndarray
    used: np.ndarray
    branch: str
    travel_total: float
    amp_total: float
    offset: float
    offset_residual: float
    admissible: bool
    diagnostics: tuple


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    c = np.cumsum(w)
    return float(v[np.searchsorted(c, 0.5 * c[-1])])


def _boundary_branch(scenario: Scenario, b1: float, b2: float
                     ) -> tuple[str, list[dict]]:
    """The boundary branch of the outermost sensors b1 < b2, and a note
    when both sit on reflecting ends.

    A sensor on a reflecting (Robin) end of an interval sees the image
    source, which doubles its transform: "left_boundary" for b1 there,
    "right_boundary" for b2.  When both do, the two factors cancel in the
    ratio and the interior formula applies.  A sensor on an absorbing
    (Dirichlet) end measures zero and is rejected.
    """
    dom = scenario.domain
    if not isinstance(dom, Interval1D):
        return "interior", []
    on_left, on_right = b1 == dom.a, b2 == dom.b
    if (on_left and isinstance(dom.bc_left, Dirichlet)) or \
            (on_right and isinstance(dom.bc_right, Dirichlet)):
        raise ValueError(
            "a sensor sits on an absorbing (Dirichlet) boundary and "
            "measures zero; move it inside or use a derivative boundary")
    if on_left and on_right:
        return "interior", [{"code": "both_sensors_reflecting",
                             "sensors": [float(b1), float(b2)]}]
    if on_left:
        return "left_boundary", []
    if on_right:
        return "right_boundary", []
    return "interior", []


def locate_source_1d(phi: LaplaceSamples, scenario: Scenario
                     ) -> LocationFit1D:
    """Recover the source coordinate between the outermost sensors of
    ``scenario``.

    ``phi`` holds the transforms of every sensor series from one
    ``laplace_grid`` call, shape (K, s), column j from sensor j; the fit
    reads the columns of the leftmost sensor b1 and the rightmost b2.  The
    slowness and amplitude integrals use the coefficients of an interval,
    and unit constants on [b1, b2] in free space, which has no coefficient
    field; the decay rate mu = sqrt(lam + lambda0) takes the reaction of
    free space (an interval has none); the boundary branch follows from
    where the two sensors sit (``_boundary_branch``).  Each lambda yields
    one travel-distance estimate; the aggregate is the bound-weighted
    median over the window (the largest lambdas are the most asymptotic
    but the most error-amplified, so no single point is trusted).  A
    lambda counts (``used``) only when its travel distance lies inside
    the bracket by a margin; every other range case is dropped there,
    and the inversion sees interior targets only.  The
    midpoint offset is fitted to the same log-ratio over all trustworthy
    lambdas; a source bracketed by the sensors has |offset| <
    travel(b1, b2)/2 (the admissibility check).
    """
    sensors = scenario.sensor_points()[:, 0]
    if sensors.size < 2:
        raise ValueError("1D identification needs two sensors")
    if phi.values.shape != phi.lambdas.shape + sensors.shape:
        raise ValueError("need one transform column per sensor")
    order = np.argsort(sensors)
    pair = [order[0], order[-1]]
    b1, b2 = sensors[pair]
    if not b1 < b2:
        raise ValueError("sensors must satisfy b1 < b2")
    branch, notes = _boundary_branch(scenario, b1, b2)
    if isinstance(scenario.domain, Interval1D):
        coeffs, lambda0 = scenario.coefficients, 0.0
    else:   # free space: the unit metric on the sensor bracket
        coeffs = CoefficientField1D.constant(1.0, interval=(b1, b2))
        lambda0 = scenario.domain.lambda0
    phi = LaplaceSamples(lambdas=phi.lambdas, values=phi.values[:, pair],
                         truncation=phi.truncation[:, pair],
                         discretization=phi.discretization[:, pair])
    lam = phi.lambdas
    mu = np.sqrt(lam + lambda0)
    ok, logr = _log_ratio(phi)
    # the offset: a_k = offset + slope/mu_k fitted to the scaled
    # log-ratio a_k = logr_k/(2 mu_k) at the trustworthy lambdas
    a = logr[ok] / (2.0 * mu[ok])
    x = 1.0 / mu[ok]
    design = np.column_stack([np.ones_like(x), x])
    coef = np.linalg.lstsq(design, a, rcond=None)[0]
    offset = float(coef[0])
    offset_residual = float(np.sqrt(np.mean((a - design @ coef) ** 2)))
    travel_total, amp_total = travel_integrals(coeffs, b1, b2)
    if branch == "left_boundary":
        logr = logr - np.log(2.0)   # reflecting boundary doubles Phi_1
    elif branch == "right_boundary":
        logr = logr + np.log(2.0)   # reflecting boundary doubles Phi_2

    # travel distance from b1 per lambda; a source outside the bracket
    # lands exactly on an endpoint (the asymptotics clip there), so the
    # range check needs a margin wider than the transform noise floor
    travel = 0.5 * travel_total - (amp_total + logr) / (2.0 * mu)
    margin = 1e-4 * travel_total
    used = ok & (travel > margin) & (travel < travel_total - margin)
    if not np.any(used):
        raise ValueError("recovered travel distance out of range at every "
                         "lambda: the source is not bracketed by the sensors")
    x1 = np.full_like(mu, np.nan)
    x1[used] = _invert_travel(coeffs, b1, travel[used])

    rel = phi.bounds / np.abs(np.where(phi.values == 0, 1.0, phi.values))
    weights = 1.0 / (rel[:, 0] + rel[:, 1] + 1e-12)
    x1_hat = _weighted_median(x1[used], weights[used])

    admissible = abs(offset) < 0.5 * travel_total
    diagnostics = []
    if not admissible:
        diagnostics.append({"code": "offset_inadmissible",
                            "offset": offset,
                            "bound": 0.5 * travel_total})
    return LocationFit1D(
        x1_hat=x1_hat, lambdas=lam, x1_per_lambda=x1,
        travel_per_lambda=travel, weights=weights, used=used, branch=branch,
        travel_total=travel_total, amp_total=amp_total, offset=offset,
        offset_residual=offset_residual, admissible=admissible,
        diagnostics=tuple(diagnostics + notes))


def alternation_findings(sources, sensors) -> list[dict]:
    """Check the interleaving of sources and sensors on the line.

    Returns one finding per failure mode that provably breaks uniqueness
    of intensity recovery: all sensors to the right of the two leftmost
    sources, all sensors to the left of the two rightmost sources, or
    three consecutive sources spanning an interval containing no sensor.
    Each finding names its ``code`` and the positions of the ``sources``
    involved; an uncovered triple adds the sensor-free ``interval`` they
    span.  An empty list clears these specific obstructions only.
    """
    xs = np.sort(np.asarray(sources, dtype=float).reshape(-1))
    bs = np.sort(np.asarray(sensors, dtype=float).reshape(-1))
    if bs.size == 0:
        raise ValueError("at least one sensor is required")
    findings: list[dict] = []
    if xs.size >= 2 and np.all(bs > xs[1]):
        findings.append({"code": "sensors_all_right_of_leading_pair",
                         "sources": xs[:2].tolist()})
    if xs.size >= 2 and np.all(bs < xs[-2]):
        findings.append({"code": "sensors_all_left_of_trailing_pair",
                         "sources": xs[-2:].tolist()})
    for r1 in range(xs.size - 2):
        triple = xs[r1:r1 + 3]
        if not np.any((bs >= triple[0]) & (bs <= triple[-1])):
            findings.append({"code": "uncovered_source_triple",
                             "sources": triple.tolist(),
                             "interval": [float(triple[0]),
                                          float(triple[-1])]})
            break
    return findings
