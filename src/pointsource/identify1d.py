"""1D source identification from two sensor transforms.

Location recovery uses the large-parameter behaviour of the transform
ratio: for a single source between two sensors,

    log(Phi_1/Phi_2)(lam) = -sqrt(lam) * (travel(b1, x1) - travel(x1, b2))
                            - amp(b1, b2) + O(1/sqrt(lam)),

where travel integrates the slowness 1/sqrt(a2) and amp integrates the
first-order amplitude density.  Solving for the travel distance from b1
and inverting the (strictly monotone) travel integral yields the source
coordinate; sensors sitting on a reflecting boundary see the image charge
and acquire a factor 2 handled by the boundary branches.  Intensity
recovery deconvolves the sensor series by the exact kernel of the
forward model at the recovered location: on an interval, the
Crank-Nicolson response to a unit source there; in free space, the
closed-form heat-kernel masses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.integrate import solve_ivp

from .forward import (_travel, crank_nicolson_1d, duhamel_masses,
                      travel_integrals)
from .laplace import DeconvolutionResult, LaplaceSamples, volterra_deconvolve
from .model import CoefficientField1D, FreeSpace, PointSource, Scenario

__all__ = [
    "OffsetFit",
    "estimate_offset",
    "LocationFit1D",
    "locate_source_1d",
    "invert_travel_distance",
    "IntensityFit1D",
    "recover_intensity_1d",
    "alternation_findings",
]


def _log_ratio(phi1: LaplaceSamples, phi2: LaplaceSamples
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared lambdas, the mask of trustworthy ones and
    log(Phi_1/Phi_2) on that mask (NaN elsewhere).

    Points where either value sits below its own truncation bound are
    treated as (near-)zeros and skipped; the two series vanish together
    for consistent data, so isolated skips are expected.  A single source
    gives a positive ratio at every kept point, so any other sign rejects
    the data.
    """
    lam = phi1.lambdas
    if lam.shape != phi2.lambdas.shape or \
            not np.allclose(lam, phi2.lambdas, rtol=1e-12):
        raise ValueError("sensor transforms must share the lambda grid")
    ok = phi1.truncation_ok() & phi2.truncation_ok()
    ok &= (phi1.values != 0.0) & (phi2.values != 0.0)
    if np.count_nonzero(ok) < 3:
        raise ValueError("need at least 3 trustworthy lambda points")
    ratio = phi1.values[ok] / phi2.values[ok]
    if (ratio > 0.0).any() and (ratio < 0.0).any():
        raise ValueError("transform ratio changes sign across the window; "
                         "sensor data inconsistent with a single source")
    if not (ratio > 0.0).all():
        raise ValueError("transform ratio is nonpositive across the window")
    logr = np.full(lam.shape, np.nan)
    logr[ok] = np.log(ratio)
    return lam, ok, logr


@dataclass(frozen=True, eq=False)
class OffsetFit:
    """Large-lambda limit of log(Phi_1/Phi_2)/(2 sqrt(lam)).

    The limit measures how far the source travel-coordinate sits from the
    sensor midpoint; |offset| < travel(b1, b2)/2 must hold for a source
    bracketed by the sensors (the admissibility check).
    """

    offset: float
    slope: float
    residual: float
    lambdas: np.ndarray
    samples: np.ndarray


def estimate_offset(phi1: LaplaceSamples, phi2: LaplaceSamples) -> OffsetFit:
    """Fit a_k = offset + slope/sqrt(lam_k) to the scaled log-ratio."""
    lam, ok, logr = _log_ratio(phi1, phi2)
    lam_ok = lam[ok]
    a = logr[ok] / (2.0 * np.sqrt(lam_ok))
    x = 1.0 / np.sqrt(lam_ok)
    design = np.column_stack([np.ones_like(x), x])
    coef, res, *_ = np.linalg.lstsq(design, a, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((a - fitted) ** 2)))
    return OffsetFit(offset=float(coef[0]), slope=float(coef[1]),
                     residual=residual, lambdas=lam_ok, samples=a)


def invert_travel_distance(coeffs: CoefficientField1D, b1: float, m,
                           direction: int = 1):
    """Find x with |int_{b1}^{x} slowness| = m on the given side of b1.

    ``m`` is a scalar or an array of travel distances.  x(m) solves
    dx/dm = +-sqrt(a2(x)) with x(0) = b1, so one DOP853 integration
    through the sorted targets (rtol = atol = 1e-13) inverts them all; the
    slowness is strictly positive, so each root is unique.
    """
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0):
        raise ValueError("travel distance must be nonnegative")
    end = coeffs.b if direction > 0 else coeffs.a
    total = abs(_travel(coeffs, b1, end))
    if np.any(m_arr > total * (1.0 + 1e-12)):
        raise ValueError("travel distance exceeds the domain extent")
    targets, inverse = np.unique(np.minimum(m_arr.ravel(), total),
                                 return_inverse=True)
    x = np.full(targets.shape, float(b1))
    inside = (targets > 0.0) & (targets < total)
    if np.any(inside):
        sign = 1.0 if direction > 0 else -1.0
        sol = solve_ivp(lambda _, y: sign * np.sqrt(coeffs.diffusion(y)),
                        (0.0, targets[inside][-1]), [float(b1)],
                        method="DOP853", t_eval=targets[inside],
                        rtol=1e-13, atol=1e-13)
        x[inside] = sol.y[0]
    x[targets >= total] = end
    out = x[inverse].reshape(m_arr.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class LocationFit1D:
    """Per-lambda and aggregate source-location estimates.

    ``x1_per_lambda`` is NaN where ``used`` is false: at lambdas whose
    transforms failed the guards or whose travel distance fell outside
    the sensor bracket.  ``diagnostics`` holds ``{code, ...}`` records.
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
    offset: OffsetFit
    admissible: bool
    diagnostics: tuple


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    c = np.cumsum(w)
    return float(v[np.searchsorted(c, 0.5 * c[-1])])


def locate_source_1d(phi1: LaplaceSamples, phi2: LaplaceSamples,
                     coeffs: CoefficientField1D, b1: float, b2: float,
                     branch: str = "interior") -> LocationFit1D:
    """Recover the source coordinate between sensors b1 < b2.

    branch selects the sensor placement: "interior" for two interior
    sensors, "left_boundary" when b1 sits on a reflecting (derivative)
    boundary, "right_boundary" when b2 does.  Each lambda yields one
    travel-distance estimate; the aggregate is the bound-weighted median
    over the window (the largest lambdas are the most asymptotic but the
    most error-amplified, so no single point is trusted).
    """
    if not b1 < b2:
        raise ValueError("sensors must satisfy b1 < b2")
    if branch not in ("interior", "left_boundary", "right_boundary"):
        raise ValueError(f"unknown branch {branch!r}")
    lam, ok, logr = _log_ratio(phi1, phi2)
    travel_total, amp_total = travel_integrals(coeffs, b1, b2)
    sq = np.sqrt(lam)
    if branch == "left_boundary":
        logr = logr - np.log(2.0)   # reflecting boundary doubles Phi_1
    elif branch == "right_boundary":
        logr = logr + np.log(2.0)   # reflecting boundary doubles Phi_2

    # travel distance from b1 per lambda; a source outside the bracket
    # lands exactly on an endpoint (the asymptotics clip there), so the
    # range check needs a margin wider than the transform noise floor
    travel = 0.5 * travel_total - (amp_total + logr) / (2.0 * sq)
    margin = 1e-4 * travel_total
    used = ok & (travel > margin) & (travel < travel_total - margin)
    if not np.any(used):
        raise ValueError("recovered travel distance out of range at every "
                         "lambda: the source is not bracketed by the sensors")
    x1 = np.full_like(sq, np.nan)
    x1[used] = invert_travel_distance(coeffs, b1, travel[used])

    rel_bound = (phi1.bounds / np.abs(np.where(phi1.values == 0, 1.0,
                                               phi1.values))
                 + phi2.bounds / np.abs(np.where(phi2.values == 0, 1.0,
                                                 phi2.values)))
    weights = 1.0 / (rel_bound + 1e-12)
    x1_hat = _weighted_median(x1[used], weights[used])

    offset = estimate_offset(phi1, phi2)
    # a source bracketed by the sensors has |offset| < travel(b1, b2)/2
    admissible = abs(offset.offset) < 0.5 * travel_total
    diagnostics = []
    if not admissible:
        diagnostics.append({"code": "offset_inadmissible",
                            "offset": offset.offset,
                            "bound": 0.5 * travel_total})
    return LocationFit1D(
        x1_hat=x1_hat, lambdas=lam, x1_per_lambda=x1,
        travel_per_lambda=travel, weights=weights, used=used, branch=branch,
        travel_total=travel_total, amp_total=amp_total, offset=offset,
        admissible=admissible, diagnostics=tuple(diagnostics))


@dataclass(frozen=True, eq=False)
class IntensityFit1D:
    """Recovered intensity, the kernel it was deconvolved against
    (``{"source": "crank_nicolson", "cells": N}`` or
    ``{"source": "analytic"}``) and the deconvolution diagnostics."""

    q: np.ndarray
    kernel: dict
    deconvolution: DeconvolutionResult


def recover_intensity_1d(psi_tilde: np.ndarray, scenario: Scenario,
                         x1_hat: float, b: float,
                         eps: Union[float, str] = 0.0,
                         sigma: Union[float, None] = None,
                         num_cells: int = 400) -> IntensityFit1D:
    """Deconvolve a background-subtracted sensor series into an intensity.

    The kernel is the scenario's own response at b to a unit constant
    source at x1_hat, so q needs no amplitude.  On an interval it is one
    Crank-Nicolson run on ``num_cells`` cells with homogeneous boundary
    data and no f0 (the background is subtracted from the series, so by
    linearity it plays no part), and its first differences are the cell
    masses of the discrete model.  In free space the heat-kernel masses
    at |x1_hat - b| are exact in closed form.
    """
    if x1_hat == b:
        raise ValueError("source estimate coincides with the sensor")
    grid = scenario.grid
    dom = scenario.domain
    if isinstance(dom, FreeSpace):
        masses = duhamel_masses(1, abs(x1_hat - b), grid)
        kernel = {"source": "analytic"}
    else:
        unit = Scenario(
            domain=replace(dom, bc_left=replace(dom.bc_left, g=0.0),
                           bc_right=replace(dom.bc_right, g=0.0)),
            coefficients=scenario.coefficients,
            sources=(PointSource(location=[x1_hat], intensity=1.0),),
            sensors=([b],), grid=grid)
        trace = crank_nicolson_1d(unit, num_cells=num_cells).traces[:, 0]
        masses = np.diff(trace)
        kernel = {"source": "crank_nicolson", "cells": num_cells}
    dec = volterra_deconvolve(psi_tilde, masses, grid, eps=eps, sigma=sigma)
    return IntensityFit1D(q=dec.q, kernel=kernel, deconvolution=dec)


def alternation_findings(sources, sensors) -> list[dict]:
    """Check the interleaving of sources and sensors on the line.

    Returns one finding per failure mode that provably breaks uniqueness
    of intensity recovery: all sensors to the right of the two leftmost
    sources, all sensors to the left of the two rightmost sources, or
    three consecutive sources spanning an interval containing no sensor.
    An empty list clears these specific obstructions only.
    """
    xs = np.sort(np.asarray(sources, dtype=float).reshape(-1))
    bs = np.sort(np.asarray(sensors, dtype=float).reshape(-1))
    if bs.size == 0:
        raise ValueError("at least one sensor is required")
    findings: list[dict] = []
    if xs.size >= 2 and np.all(bs > xs[1]):
        findings.append({
            "code": "sensors_all_right_of_leading_pair",
            "detail": f"every sensor exceeds the second source x={xs[1]:.6g}; "
                      f"intensities of the two leftmost sources are not "
                      f"identifiable"})
    if xs.size >= 2 and np.all(bs < xs[-2]):
        findings.append({
            "code": "sensors_all_left_of_trailing_pair",
            "detail": f"every sensor is below the second-to-last source "
                      f"x={xs[-2]:.6g}"})
    for r1 in range(xs.size - 2):
        lo, hi = xs[r1], xs[r1 + 2]
        if not np.any((bs >= lo) & (bs <= hi)):
            findings.append({
                "code": "uncovered_source_triple",
                "detail": f"no sensor in [{lo:.6g}, {hi:.6g}] spanned by "
                          f"sources {r1}..{r1 + 2}"})
            break
    return findings
