"""Forward solvers and Green-function machinery.

Contains the analytic free-space response oracle (time-domain Duhamel
convolution with exactly integrated kernel masses), resolvent Green
functions (exact constant-coefficient forms and the large-parameter
asymptotic evaluator for variable 1D coefficients), and a Crank-Nicolson
finite-difference solver for bounded 1D intervals.  ``sensor_traces`` is
the one entry point that turns a scenario into its clean sensor series:
simulated data, the source-free background and the unit-source kernel of
the intensity fit all come from it.

Sign convention: all Green/resolvent values are returned positive (the
resolvent of the positive-definite operator).  Every recovery formula in
the identification modules consumes ratios or moduli, so a global sign
carries no information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import integrate, signal, special
from scipy.interpolate import CubicSpline
from scipy.linalg import get_lapack_funcs

from .model import (
    CoefficientField1D,
    Dirichlet,
    Interval1D,
    PointSource,
    Robin,
    Scenario,
    TimeGrid,
)

__all__ = [
    "heat_kernel",
    "distance_kernel",
    "bessel_k0",
    "resolvent_green",
    "GreenEval",
    "green_1d_asymptotic",
    "travel_integrals",
    "kernel_mass_cumulative",
    "kernel_moment_cumulative",
    "duhamel_masses",
    "duhamel_weights",
    "convolve_intensity",
    "free_space_response",
    "crank_nicolson_1d",
    "sensor_traces",
]

_QUAD_TOL = 1e-10
#: largest lambda0 * horizon of the damped-intensity formulation: the
#: factor exp(lambda0 * t) must stay finite across the grid
MAX_DAMPING = 600.0
#: finite-difference cells of an interval solve when none are given
DEFAULT_CELLS = 400


def _as_positive_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("time must be positive")
    return t


def heat_kernel(n: int, r, t):
    """Free-space heat kernel (4*pi*t)^(-n/2) * exp(-r^2 / (4t)), t > 0."""
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    t = _as_positive_times(t)
    r = np.asarray(r, dtype=float)
    # evaluated in log form so that t -> 0 underflows cleanly to 0
    return np.exp(-(r * r) / (4.0 * t) - 0.5 * n * np.log(4.0 * np.pi * t))


def distance_kernel(n: int, gamma: float, t):
    """Unit-impulse arrival kernel at distance gamma > 0.

    These are the time-domain kernels whose Laplace transforms are
    exp(-gamma*sqrt(lam))/sqrt(lam) for n=1 and exp(-gamma*sqrt(lam))
    for n=3; the n=2 kernel transforms to K0(gamma*sqrt(lam))/(2*pi).
    """
    if gamma <= 0.0:
        raise ValueError("distance gamma must be positive")
    h = heat_kernel(n, gamma, t)
    if n == 1:
        return 2.0 * h
    if n == 2:
        return h
    return 4.0 * np.pi * gamma * h


def bessel_k0(x):
    """Modified Bessel function K0 (second kind, order zero), x > 0.

    Backed by the library routine; relative error is well below 1e-10 on
    [1e-3, 50], which the test suite checks against an independent
    quadrature of the integral representation.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("bessel_k0 requires x > 0")
    return special.k0(x)


def resolvent_green(n: int, r: float, lam: float, lambda0: float = 0.0,
                    a2: float = 1.0):
    """Free-space resolvent kernel of (lam + lambda0 - Delta) at distance r.

    For n = 1 the operator is lam + lambda0 - a2 * d^2/dx^2 with constant
    diffusivity a2; for n = 2, 3 the diffusivity is 1.
    """
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("resolvent kernel is singular at r = 0")
    mu2 = lam + lambda0
    if np.any(np.asarray(mu2) <= 0.0):
        raise ValueError("lam + lambda0 must be positive")
    if n == 1:
        if a2 <= 0.0:
            raise ValueError("diffusivity a2 must be positive")
        mu_c = np.sqrt(mu2 / a2)
        return np.exp(-mu_c * r) / (2.0 * a2 * mu_c)
    mu = np.sqrt(mu2)
    if n == 2:
        return special.k0(mu * r) / (2.0 * np.pi)
    return np.exp(-mu * r) / (4.0 * np.pi * r)


# ---------------------------------------------------------------------------
# Variable-coefficient 1D: coefficient integrals and asymptotic Green values


def _travel(coeffs: CoefficientField1D, x0: float, x1: float) -> float:
    """Signed integral of the slowness from x0 to x1."""
    return integrate.quad(coeffs.slowness, x0, x1, epsabs=_QUAD_TOL,
                          epsrel=_QUAD_TOL, limit=200)[0]


def travel_integrals(coeffs: CoefficientField1D, x0: float, x1: float
                     ) -> tuple[float, float]:
    """Signed integrals of slowness and amplitude density from x0 to x1."""
    amp, _ = integrate.quad(coeffs.amplitude_density, x0, x1,
                            epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return _travel(coeffs, x0, x1), amp


@dataclass(frozen=True)
class GreenEval:
    """One leading-order evaluation of the 1D variable-coefficient resolvent.

    ``int_r`` and ``int_r1`` carry the coefficient integrals (slowness and
    amplitude density) between the two points, and ``valid`` records
    whether lam cleared the configured asymptotic threshold.
    """

    value: float
    lam: float
    int_r: float = 0.0
    int_r1: float = 0.0
    lambda_min: float = 0.0
    valid: bool = True


def green_1d_asymptotic(coeffs: CoefficientField1D, x1: float, b: float,
                        lam: float, lambda_min: Union[float, None] = None
                        ) -> GreenEval:
    """Leading-order resolvent value at b for a point source at x1.

    Evaluates (2*sqrt(lam*a2(x1)))^(-1) * exp(-sqrt(lam)*|I_r| + I_r1)
    with I_r, I_r1 the slowness and amplitude-density integrals from x1
    to b, dropping the relative correction that decays like 1/sqrt(lam).
    When lam falls below ``lambda_min`` (default 25/I_r^2, i.e. five
    e-foldings across the gap) the value is still returned but flagged.
    """
    if x1 == b:
        raise ValueError("source and evaluation point must differ")
    lo, hi = min(x1, b), max(x1, b)
    if lo < coeffs.a - 1e-12 or hi > coeffs.b + 1e-12:
        raise ValueError("points must lie inside the coefficient interval")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    int_r, int_r1 = travel_integrals(coeffs, x1, b)
    if lambda_min is None:
        lambda_min = 25.0 / int_r ** 2
    value = np.exp(-np.sqrt(lam) * abs(int_r) + int_r1) \
        / (2.0 * np.sqrt(lam * coeffs.diffusion(x1)))
    return GreenEval(value=float(value), lam=lam,
                     int_r=int_r, int_r1=int_r1, lambda_min=float(lambda_min),
                     valid=bool(lam >= lambda_min))


# ---------------------------------------------------------------------------
# Exact kernel masses and first moments (closed antiderivatives)


def kernel_mass_cumulative(n: int, r: float, t) -> np.ndarray:
    """Integral of heat_kernel(n, r, .) over (0, t], elementwise in t >= 0."""
    if r <= 0.0:
        raise ValueError("distance r must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    out = np.zeros_like(t)
    pos = t > 0.0
    tp = t[pos]
    if n == 1:
        e = np.exp(-r * r / (4.0 * tp))
        out[pos] = np.sqrt(tp / np.pi) * e \
            - 0.5 * r * special.erfc(r / (2.0 * np.sqrt(tp)))
    elif n == 2:
        out[pos] = special.exp1(r * r / (4.0 * tp)) / (4.0 * np.pi)
    elif n == 3:
        out[pos] = special.erfc(r / (2.0 * np.sqrt(tp))) / (4.0 * np.pi * r)
    else:
        raise ValueError("dimension must be 1, 2, or 3")
    return out


def kernel_moment_cumulative(n: int, r: float, t) -> np.ndarray:
    """Integral of s * heat_kernel(n, r, s) over (0, t], elementwise."""
    if r <= 0.0:
        raise ValueError("distance r must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    out = np.zeros_like(t)
    pos = t > 0.0
    tp = t[pos]
    st = np.sqrt(tp)
    x = r / (2.0 * st)
    e = np.exp(-x * x)
    if n == 1:
        out[pos] = (tp * st / 3.0 - r * r * st / 6.0) * e / np.sqrt(np.pi) \
            + r ** 3 / 12.0 * special.erfc(x)
    elif n == 2:
        out[pos] = (tp * e - 0.25 * r * r * special.exp1(x * x)) / (4.0 * np.pi)
    elif n == 3:
        out[pos] = (2.0 * st * e - r * np.sqrt(np.pi) * special.erfc(x)) \
            / (4.0 * np.pi) ** 1.5
    else:
        raise ValueError("dimension must be 1, 2, or 3")
    return out


def duhamel_masses(n: int, r: float, grid: TimeGrid) -> np.ndarray:
    """Exact heat-kernel masses over each time cell:
    W[j-1] = int_{t_{j-1}}^{t_j} heat_kernel(n, r, .).

    Cell masses come from differencing the closed-form cumulative, so the
    sharp early-time kernel peak is integrated exactly rather than sampled.
    """
    return np.diff(kernel_mass_cumulative(n, r, grid.times()))


def duhamel_weights(n: int, r: float, grid: TimeGrid
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Convolution weights exact for piecewise-linear intensities.

    Returns (P, Q), both of length num_steps, such that
    psi_k = sum_{j=1..k} P[j-1]*q_{k-j} + Q[j-1]*q_{k-j+1}.
    """
    times = grid.times()
    mass = np.diff(kernel_mass_cumulative(n, r, times))
    mom = np.diff(kernel_moment_cumulative(n, r, times))
    p = (mom - times[:-1] * mass) / grid.tau
    # guard against cancellation noise in exponentially flat cells
    p = np.clip(p, 0.0, mass)
    return p, mass - p


def convolve_intensity(q: np.ndarray, n: int, r: float, grid: TimeGrid,
                       lambda0: float = 0.0) -> np.ndarray:
    """Duhamel convolution of intensity samples with a point-source kernel.

    Evaluates psi(t_k) = int_0^{t_k} q(s) * exp(-lambda0 (t_k - s)) *
    K(t_k - s) ds exactly for piecewise-linear q (up to a relative
    O((lambda0*tau)^2) cell error when lambda0 > 0, folded in by damping
    the intensity instead of the kernel).
    """
    q = np.asarray(q, dtype=float)
    if q.size != grid.num_samples:
        raise ValueError("intensity series must match the time grid")
    if lambda0 * grid.horizon > MAX_DAMPING:
        raise ValueError("lambda0 * horizon too large for the damped-intensity "
                         "formulation")
    times = grid.times()
    qk = q * np.exp(lambda0 * times) if lambda0 != 0.0 else q
    p, qq = duhamel_weights(n, r, grid)
    pfull = np.concatenate(([0.0], p))
    qfull = np.concatenate(([0.0], qq))
    c1 = signal.convolve(qk, pfull)[:grid.num_samples]
    c2 = signal.convolve(qk[1:], qfull)[:grid.num_samples]
    psi = c1 + c2
    if lambda0 != 0.0:
        psi = psi * np.exp(-lambda0 * times)
    psi[0] = 0.0
    return psi


def free_space_response(sources, sensor, grid: TimeGrid, n: int,
                        lambda0: float = 0.0) -> np.ndarray:
    """Sensor time series for point sources in constant-coefficient free space.

    This is the analytic ground-truth oracle: a sum of Duhamel convolutions
    of each intensity with exp(-lambda0 t) * heat_kernel(n, distance, t).
    """
    sensor = np.atleast_1d(np.asarray(sensor, dtype=float))
    psi = np.zeros(grid.num_samples)
    for src in sources:
        if not isinstance(src, PointSource):
            src = PointSource(location=np.asarray(src, dtype=float))
        dist = float(np.linalg.norm(sensor - src.location))
        if dist == 0.0:
            raise ValueError("sensor coincides with a source location")
        q = src.intensity_samples(grid)
        psi += convolve_intensity(q, n, dist, grid, lambda0=lambda0)
    return psi


# ---------------------------------------------------------------------------
# Crank-Nicolson finite differences on a bounded interval


def _bc_series(bc, grid: TimeGrid) -> np.ndarray:
    g = bc.g
    if isinstance(g, np.ndarray):
        if g.size != grid.num_samples:
            raise ValueError("boundary series must match the time grid")
        return g
    return np.full(grid.num_samples, float(g))


def crank_nicolson_1d(scenario: Scenario, num_cells: int = DEFAULT_CELLS
                      ) -> np.ndarray:
    """Second-order FD in space, trapezoidal in time, for
    u_t = a2 u_xx - a1 u_x - a0 u + sum_i q_i(t) delta(x - x_i) + f0(x).

    Point sources are loaded onto the two mesh nodes bracketing each
    location with linear-hat weights scaled by 1/h (mass-conserving).
    Dirichlet and Robin (u_x + sigma u = g) boundaries are discretized to
    second order with ghost nodes.  The first two steps are split into
    backward-Euler half-steps to damp the non-smooth startup transient;
    this leaves the scheme second order in time.  All steps share the
    matrix I - (tau/2) L, factored once.

    Returns the sensor traces, shape (num_samples, s): column j is the
    solution interpolated linearly between the mesh nodes bracketing
    sensor j, so a sensor on a mesh node reads that node's value.
    """
    dom = scenario.domain
    if not isinstance(dom, Interval1D):
        raise ValueError("the finite-difference solver requires an interval domain")
    coeffs = scenario.coefficients
    if not isinstance(coeffs, CoefficientField1D):
        raise ValueError("interval scenarios require a CoefficientField1D")
    m1, _ = coeffs.ellipticity_bounds
    if m1 <= 0.0:
        raise ValueError("a2 must be strictly positive (elliptic)")

    grid = scenario.grid
    tau = grid.tau
    nmesh = num_cells + 1
    x = np.linspace(dom.a, dom.b, nmesh)
    h = x[1] - x[0]

    a2 = np.asarray(coeffs.diffusion(x), dtype=float)
    a1 = np.asarray(coeffs.drift(x), dtype=float)
    a0 = np.asarray(coeffs.reaction(x), dtype=float)

    # interior tridiagonal operator L
    lo = np.zeros(nmesh)   # subdiagonal, aligned to row index
    di = np.zeros(nmesh)
    up = np.zeros(nmesh)   # superdiagonal, aligned to row index
    lo[1:-1] = a2[1:-1] / h ** 2 + a1[1:-1] / (2.0 * h)
    di[1:-1] = -2.0 * a2[1:-1] / h ** 2 - a0[1:-1]
    up[1:-1] = a2[1:-1] / h ** 2 - a1[1:-1] / (2.0 * h)

    # boundary rows; load_coef multiplies g(t) in the source vector
    left_dirichlet = isinstance(dom.bc_left, Dirichlet)
    right_dirichlet = isinstance(dom.bc_right, Dirichlet)
    g_left = _bc_series(dom.bc_left, grid)
    g_right = _bc_series(dom.bc_right, grid)
    load_left = 0.0
    load_right = 0.0
    if not left_dirichlet:
        s = dom.bc_left.sigma
        di[0] = -2.0 * a2[0] / h ** 2 + 2.0 * a2[0] * s / h + a1[0] * s - a0[0]
        up[0] = 2.0 * a2[0] / h ** 2
        load_left = -(2.0 * a2[0] / h + a1[0])
    if not right_dirichlet:
        s = dom.bc_right.sigma
        di[-1] = -2.0 * a2[-1] / h ** 2 - 2.0 * a2[-1] * s / h + a1[-1] * s - a0[-1]
        lo[-1] = 2.0 * a2[-1] / h ** 2
        load_right = 2.0 * a2[-1] / h - a1[-1]

    # static source template: hat-loaded deltas and background f0
    src_nodes: list[tuple[int, float, np.ndarray]] = []
    for src in scenario.sources:
        xi = float(src.location[0])
        if not (dom.a < xi < dom.b):
            raise ValueError("source locations must lie strictly inside (a, b)")
        m = min(int((xi - dom.a) / h), nmesh - 2)
        wl = (x[m + 1] - xi) / h
        q = src.intensity_samples(grid)
        src_nodes.append((m, wl, q))
    f0_mesh = np.zeros(nmesh)
    if scenario.f0 is not None:
        f0_mesh = CubicSpline(coeffs.grid, scenario.f0)(x)

    sensors = np.array([float(np.atleast_1d(p)[0]) for p in scenario.sensors])
    if not np.all((sensors >= dom.a) & (sensors <= dom.b)):
        raise ValueError("sensor locations must lie in [a, b]")
    s_m = np.minimum(((sensors - dom.a) / h).astype(int), nmesh - 2)
    s_wl = (x[s_m + 1] - sensors) / h

    def source_vec(k: int) -> np.ndarray:
        f = f0_mesh.copy()
        for m, wl, q in src_nodes:
            f[m] += q[k] * wl / h
            f[m + 1] += q[k] * (1.0 - wl) / h
        if not left_dirichlet:
            f[0] += load_left * g_left[k]
        if not right_dirichlet:
            f[-1] += load_right * g_right[k]
        return f

    def apply_l(u: np.ndarray) -> np.ndarray:
        out = di * u
        out[:-1] += up[:-1] * u[1:]
        out[1:] += lo[1:] * u[:-1]
        return out

    # I - (tau/2) L with identity Dirichlet rows, LU-factored once
    half = 0.5 * tau
    sub, diag, sup = -half * lo[1:], 1.0 - half * di, -half * up[:-1]
    if left_dirichlet:
        diag[0], sup[0] = 1.0, 0.0
    if right_dirichlet:
        diag[-1], sub[-1] = 1.0, 0.0
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=float)
    *lu, info = gttrf(sub, diag, sup)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Crank-Nicolson step matrix is singular (gttrf info {info})")

    def solve(rhs: np.ndarray, gl: float, gr: float) -> np.ndarray:
        if left_dirichlet:
            rhs[0] = gl
        if right_dirichlet:
            rhs[-1] = gr
        return gttrs(*lu, rhs, overwrite_b=1)[0]

    u = np.zeros(nmesh)
    if left_dirichlet:
        u[0] = g_left[0]
    if right_dirichlet:
        u[-1] = g_right[0]

    traces = np.zeros((grid.num_samples, sensors.size))

    def record(k: int, u: np.ndarray) -> None:
        traces[k] = s_wl * u[s_m] + (1.0 - s_wl) * u[s_m + 1]

    record(0, u)
    n_damped = 2
    f_k = source_vec(0)
    for k in range(grid.num_steps):
        f_next = source_vec(k + 1)
        gl, gr = g_left[k + 1], g_right[k + 1]
        if k < n_damped:
            # two backward-Euler half-steps (startup damping)
            u = solve(u + half * f_k, 0.5 * (g_left[k] + gl),
                      0.5 * (g_right[k] + gr))
            u = solve(u + half * f_next, gl, gr)
        else:
            u = solve(u + half * apply_l(u) + half * (f_k + f_next), gl, gr)
        record(k + 1, u)
        f_k = f_next

    return traces


def sensor_traces(scenario: Scenario, num_cells: int = DEFAULT_CELLS
                  ) -> np.ndarray:
    """Clean sensor series of ``scenario``, shape (num_samples, s).

    The initial field is zero, so by linearity a scenario with no source,
    no f0 and zero boundary data reads zero at every sensor, and that is
    returned without a solve.  Otherwise free space evaluates the analytic
    oracle at each sensor, and an interval runs one Crank-Nicolson solve
    on ``num_cells`` cells.
    """
    dom = scenario.domain
    loads = [scenario.f0] if scenario.f0 is not None else []
    if isinstance(dom, Interval1D):
        loads += [dom.bc_left.g, dom.bc_right.g]
    if not scenario.sources and not any(np.any(v) for v in loads):
        return np.zeros((scenario.grid.num_samples, len(scenario.sensors)))
    if isinstance(dom, Interval1D):
        return crank_nicolson_1d(scenario, num_cells=num_cells)
    return np.column_stack([
        free_space_response(scenario.sources, b, scenario.grid, n=dom.n,
                            lambda0=dom.lambda0)
        for b in scenario.sensors])
