"""Forward solvers and Green-function machinery.

Contains the analytic free-space response oracle (time-domain Duhamel
convolution with exactly integrated kernel masses), the free-space
resolvent Green function in log form (``log_green``), the leading-order
large-parameter Green value for variable 1D coefficients (a float; the
lambda-window advisor says where it holds), and a Crank-Nicolson
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

from typing import Union

import numpy as np
from scipy import integrate, signal, special
from scipy.interpolate import CubicSpline
from scipy.linalg import get_lapack_funcs

from .model import (
    CoefficientField1D,
    Dirichlet,
    Interval1D,
    Robin,
    Scenario,
    TimeGrid,
)

__all__ = [
    "heat_kernel",
    "distance_kernel",
    "log_green",
    "green_1d_asymptotic",
    "travel_integrals",
    "kernel_mass_cumulative",
    "kernel_moment_cumulative",
    "duhamel_masses",
    "duhamel_weights",
    "convolve_intensity",
    "free_space_response",
    "mesh_violation",
    "crank_nicolson_1d",
    "sensor_traces",
]

_QUAD_TOL = 1e-10
#: largest lambda0 * horizon of the damped-intensity formulation: the
#: factor exp(lambda0 * t) must stay finite across the grid
MAX_DAMPING = 600.0
#: finite-difference cells of an interval solve when none are given
DEFAULT_CELLS = 400
#: fewest finite-difference cells: one node between the two ends
MIN_CELLS = 2


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


def log_green(n: int, r, mu) -> tuple[np.ndarray, np.ndarray]:
    """log G_n(r, mu) and its r-derivative for the free-space resolvent of
    (mu^2 - Delta), r > 0, mu > 0: G_1 = exp(-mu r)/(2 mu),
    G_2 = K0(mu r)/(2 pi), G_3 = exp(-mu r)/(4 pi r).  A reaction lambda0
    enters as mu = sqrt(lam + lambda0), a 1D diffusivity a2 as
    G_1(r, sqrt(lam/a2))/a2.  Exponentially scaled Bessels keep G_2 finite
    where K0 itself underflows."""
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("resolvent kernel is singular at r = 0")
    if np.any(np.asarray(mu) <= 0.0):
        raise ValueError("mu must be positive")
    z = mu * r
    if n == 1:
        return -z - np.log(2.0 * mu), np.broadcast_to(-mu, np.shape(z))
    if n == 3:
        return -z - np.log(4.0 * np.pi * r), -mu - 1.0 / r
    k0e = special.k0e(z)
    return np.log(k0e / (2.0 * np.pi)) - z, -mu * special.k1e(z) / k0e


# ---------------------------------------------------------------------------
# Variable-coefficient 1D: coefficient integrals and asymptotic Green values


def travel_integrals(coeffs: CoefficientField1D, x0: float, x1: float
                     ) -> tuple[float, float]:
    """Signed integrals of slowness and amplitude density from x0 to x1."""
    return tuple(integrate.quad(f, x0, x1, epsabs=_QUAD_TOL,
                                epsrel=_QUAD_TOL, limit=200)[0]
                 for f in (coeffs.slowness, coeffs.amplitude_density))


def green_1d_asymptotic(coeffs: CoefficientField1D, x1: float, b: float,
                        lam: float) -> float:
    """Leading-order resolvent value at b for a point source at x1.

    Evaluates (2*sqrt(lam*a2(x1)))^(-1) * exp(-sqrt(lam)*|I_r| + I_r1)
    with I_r, I_r1 the slowness and amplitude-density integrals from x1
    to b (``travel_integrals``), dropping the relative correction that
    decays like 1/sqrt(lam).  Where lam is large enough for that is the
    lambda-window advisor's rule (``laplace.suggest_lambda_grid``).
    """
    if x1 == b:
        raise ValueError("source and evaluation point must differ")
    lo, hi = min(x1, b), max(x1, b)
    if lo < coeffs.a - 1e-12 or hi > coeffs.b + 1e-12:
        raise ValueError("points must lie inside the coefficient interval")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    int_r, int_r1 = travel_integrals(coeffs, x1, b)
    return float(np.exp(-np.sqrt(lam) * abs(int_r) + int_r1)
                 / (2.0 * np.sqrt(lam * coeffs.diffusion(x1))))


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


def _max_cell_peclet(coeffs: CoefficientField1D, a: float, b: float,
                     num_cells: int) -> float:
    """Largest cell Peclet number |a1| h / (2 a2) over the nodes of the
    uniform ``num_cells`` mesh on [a, b]."""
    x = np.linspace(a, b, num_cells + 1)
    ratio = np.abs(coeffs.drift(x)) / coeffs.diffusion(x)
    return float(ratio.max()) * (b - a) / (2.0 * num_cells)


def mesh_violation(scenario: Scenario, num_cells: int) -> Union[str, None]:
    """Why ``num_cells`` cells cannot carry the Crank-Nicolson solve of the
    interval ``scenario``, or None when they can.

    A mesh needs at least ``MIN_CELLS`` cells, and its cell Peclet number
    must stay below 1 at every node: beyond that, central differences
    oscillate (a positive source gives negative traces) and the step
    matrix has no symmetric form.  The message names the fewest cells
    that pass, found by rescaling the mesh until the nodes' maximum drops
    below 1 (the search stops past ``10**6`` cells and reports the
    estimate it has).
    """
    if num_cells < MIN_CELLS:
        return f"at least {MIN_CELLS} cells are required, got {num_cells}"
    dom, coeffs = scenario.domain, scenario.coefficients
    peclet = _max_cell_peclet(coeffs, dom.a, dom.b, num_cells)
    if peclet < 1.0:
        return None
    need = int(peclet * num_cells) + 1
    while need <= 10 ** 6:
        pe = _max_cell_peclet(coeffs, dom.a, dom.b, need)
        if pe < 1.0:
            break
        need = int(pe * need) + 1
    return (f"the cell Peclet number |a1|h/(2 a2) reaches {peclet:.6g} at "
            f"{num_cells} cells; central differences need it below 1, "
            f"which takes {need} cells or more")


def crank_nicolson_1d(scenario: Scenario, num_cells: int = DEFAULT_CELLS
                      ) -> np.ndarray:
    """Second-order FD in space, trapezoidal in time, for
    u_t = a2 u_xx - a1 u_x - a0 u + sum_i q_i(t) delta(x - x_i) + f0(x).

    Point sources are loaded onto the two mesh nodes bracketing each
    location with linear-hat weights scaled by 1/h (mass-conserving).
    Dirichlet and Robin (u_x + sigma u = g) boundaries are discretized to
    second order with ghost nodes.  The first two steps are split into
    backward-Euler half-steps to damp the non-smooth startup transient;
    this leaves the scheme second order in time.

    The mesh must pass ``mesh_violation``: at least ``MIN_CELLS`` cells
    and a cell Peclet number |a1| h / (2 a2) below 1 at every node
    (``ValueError`` otherwise).  The steps run on the unknown nodes only:
    a Dirichlet node is known, its coupling to its neighbour moves into
    the forcing (at the first startup half-step with g at the midpoint
    of the step), and a sensor on it reads g(t).  Below Peclet 1 the
    step matrix M = I - (tau/2) L has sub- and superdiagonals of one
    sign, so the scaling d[i+1]/d[i] = sqrt(M[i+1, i] / M[i, i+1]) makes
    D^-1 M D symmetric; it is LDL^T-factored once (``LinAlgError`` when
    it is not positive definite, i.e. when L has an eigenvalue of at
    least 2/tau) and every step runs in the scaled unknowns w = D^-1 u
    with one tridiagonal solve.  As M u_k is the previous right-hand
    side r, the explicit half (I + (tau/2) L) u_k is 2 u_k - r, so no
    operator is applied.  The scaling spans exp(+-300) at most
    (``ValueError`` beyond, at a drift integral int |a1|/a2 dx of about
    1200), which keeps the scaled unknowns out of the subnormal range.

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
    problem = mesh_violation(scenario, num_cells)
    if problem is not None:
        raise ValueError(problem)

    grid = scenario.grid
    tau = grid.tau
    half = 0.5 * tau
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

    # boundary rows: a Robin end is an unknown whose ghost node loads g(t)
    # onto it; a Dirichlet end is known and loads g(t) onto its neighbour
    left_dirichlet = isinstance(dom.bc_left, Dirichlet)
    right_dirichlet = isinstance(dom.bc_right, Dirichlet)
    g_left = _bc_series(dom.bc_left, grid)
    g_right = _bc_series(dom.bc_right, grid)
    if left_dirichlet:
        first, load_left = 1, (1, lo[1])
    else:
        s = dom.bc_left.sigma
        di[0] = -2.0 * a2[0] / h ** 2 + 2.0 * a2[0] * s / h + a1[0] * s - a0[0]
        up[0] = 2.0 * a2[0] / h ** 2
        first, load_left = 0, (0, -(2.0 * a2[0] / h + a1[0]))
    if right_dirichlet:
        stop, load_right = nmesh - 1, (nmesh - 2, up[-2])
    else:
        s = dom.bc_right.sigma
        di[-1] = -2.0 * a2[-1] / h ** 2 - 2.0 * a2[-1] * s / h + a1[-1] * s - a0[-1]
        lo[-1] = 2.0 * a2[-1] / h ** 2
        stop, load_right = nmesh, (nmesh - 1, 2.0 * a2[-1] / h - a1[-1])

    # M = I - (tau/2) L on the unknowns, symmetrized by D and factored once
    sub = -half * lo[first + 1:stop]
    sup = -half * up[first:stop - 1]
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(sub / sup))))
    log_d -= 0.5 * (log_d.max() + log_d.min())
    if log_d.max() > 300.0:
        raise ValueError(
            f"the drift is too strong for the symmetrized Crank-Nicolson "
            f"step: its scaling spans exp(+-{log_d.max():.4g}), more than "
            f"exp(+-300)")
    d = np.exp(log_d)
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=float)
    fd, fe, info = pttrf(1.0 - half * di[first:stop], -np.sqrt(sub * sup))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Crank-Nicolson step matrix is not positive definite (pttrf "
            f"info {info}): the operator has an eigenvalue of at least "
            f"2/tau")

    # scaled forcing D^-1 f: the constant f0 and point loads on a few nodes
    n = stop - first
    f0 = np.zeros(n)
    if scenario.f0 is not None:
        f0 = CubicSpline(coeffs.grid, scenario.f0)(x[first:stop]) / d
    loads: dict[int, np.ndarray] = {}

    def load(node: int, series: np.ndarray) -> None:
        i = node - first
        if 0 <= i < n and np.any(series):
            loads[i] = loads.get(i, 0.0) + series / d[i]

    for src in scenario.sources:
        xi = float(src.location[0])
        if not (dom.a < xi < dom.b):
            raise ValueError("source locations must lie strictly inside (a, b)")
        m = min(int((xi - dom.a) / h), nmesh - 2)
        wl = (x[m + 1] - xi) / h
        q = src.intensity_samples(grid)
        load(m, q * (wl / h))
        load(m + 1, q * ((1.0 - wl) / h))
    load(load_left[0], load_left[1] * g_left)
    load(load_right[0], load_right[1] * g_right)
    nodes = np.array(sorted(loads), dtype=int)
    table = np.zeros((grid.num_samples, nodes.size))
    for col, i in enumerate(nodes):
        table[:, col] = loads[i]
    # the first half-step of each startup step takes Dirichlet data at the
    # midpoint of the step (the grid has at least two steps)
    mid_shift = np.zeros((2, n))
    for dirichlet, (node, coef), g in ((left_dirichlet, load_left, g_left),
                                       (right_dirichlet, load_right, g_right)):
        if dirichlet:
            i = node - first
            mid_shift[:, i] += half * coef * 0.5 * np.diff(g[:3]) / d[i]

    # sensors interpolate between nodes; only the nodes they read are kept
    sensors = np.array([float(np.atleast_1d(p)[0]) for p in scenario.sensors])
    if not np.all((sensors >= dom.a) & (sensors <= dom.b)):
        raise ValueError("sensor locations must lie in [a, b]")
    s_m = np.minimum(((sensors - dom.a) / h).astype(int), nmesh - 2)
    s_wl = (x[s_m + 1] - sensors) / h
    weights = np.zeros((nmesh, sensors.size))
    cols = np.arange(sensors.size)
    np.add.at(weights, (s_m, cols), s_wl)
    np.add.at(weights, (s_m + 1, cols), 1.0 - s_wl)
    read = np.flatnonzero(np.any(weights[first:stop], axis=1))
    kept = np.zeros((grid.num_samples, read.size))

    def forcing(k: int) -> np.ndarray:
        f = half * f0
        f[nodes] += half * table[k]
        return f

    w = np.zeros(n)
    for k in range(2):
        # two backward-Euler half-steps (startup damping)
        w = pttrs(fd, fe, w + forcing(k) + mid_shift[k])[0]
        r = w + forcing(k + 1)
        w = pttrs(fd, fe, r)[0]
        kept[k + 1] = w[read]
    step_loads = half * (table[2:-1] + table[3:])
    tau_f0 = None if scenario.f0 is None else tau * f0
    for k in range(2, grid.num_steps):
        # r <- (I + (tau/2) L) u_k + forcing; (I + (tau/2) L) u_k = 2 w - r
        np.subtract(w, r, out=r)
        r += w
        if tau_f0 is not None:
            r += tau_f0
        r[nodes] += step_loads[k - 2]
        w = pttrs(fd, fe, r)[0]
        kept[k + 1] = w[read]

    traces = kept @ (d[read, None] * weights[first:stop][read])
    if left_dirichlet:
        traces += np.outer(g_left, weights[0])
    if right_dirichlet:
        traces += np.outer(g_right, weights[-1])
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
