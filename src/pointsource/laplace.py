"""Truncated Laplace transforms of sampled series and Volterra deconvolution.

``laplace_grid`` transforms one series or a whole (N+1, s) sensor matrix
in one call, column j giving column j of every transform array.  The
transforms carry explicit error bookkeeping: a truncation bound for the
lost tail beyond the measurement horizon and a discretization bound for
the trapezoidal rule.  Identification code uses the bounds to decide which
transform parameters are trustworthy, since large parameters shrink the
transform values toward the noise floor.

Intensity recovery leads to a convolution equation of the first kind,
psi = K * q, with kernels that are exponentially flat at t = 0 (signals
need a finite arrival time to reach a sensor).  The discretized
lower-triangular system is therefore numerically singular in double
precision: plain forward substitution amplifies roundoff without bound.
``volterra_deconvolve`` instead minimizes sum_j |K_j*q - psi_j|^2 +
eps*|Dq|^2 over the series psi_j of one or more sensors that share q, via
ridge-floored normal equations applied matrix-free with FFTs and solved by
circulant-preconditioned conjugate gradients, and extrapolates the
trailing dead-time samples that the data cannot see.  Series longer than
MAX_CELLS cells are decimated inside the deconvolution, and q comes back
on the caller's grid.

``recover_intensity`` is the one intensity-recovery path of every domain:
its kernel masses are the first differences of the forward model's own
sensor series for a unit source at the recovered location
(``forward.sensor_traces``), and it deconvolves every sensor series
jointly against them, returning the ``DeconvolutionResult`` of that one
joint solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Union

import numpy as np

from .forward import DEFAULT_CELLS, sensor_traces
from .model import Interval1D, PointSource, Scenario, TimeGrid

__all__ = [
    "LaplaceSamples",
    "laplace_grid",
    "suggest_lambda_grid",
    "DeconvolutionResult",
    "volterra_deconvolve",
    "recover_intensity",
]


#: reject transform values whose truncation bound exceeds this fraction
TRUNCATION_GUARD = 1e-3
#: most cells the deconvolution solves for; longer series are decimated by
#: an integer stride
MAX_CELLS = 2500
#: trailing cells whose kernel column norm falls below this fraction of
#: the first column's are dead time
TAIL_RTOL = 1e-7
#: relative difference-seminorm ridge of the normal equations
RIDGE_FLOOR = 1e-7
#: CG iterations allowed per solved cell: exact arithmetic needs one, but
#: rounding on short noise-free series at eps ~ 0 takes up to about 4.5
CG_ITERATIONS_PER_CELL = 10


@dataclass(frozen=True, eq=False)
class LaplaceSamples:
    """Transform values on an increasing lambda grid: shape (K,) for one
    series, (K, s) for s sensor series (column j is sensor j)."""

    lambdas: np.ndarray
    values: np.ndarray
    truncation: np.ndarray
    discretization: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size == 0:
            raise ValueError("lambda grid must be nonempty")
        if np.any(lam <= 0.0) or np.any(np.diff(lam) <= 0.0):
            raise ValueError("lambda grid must be strictly increasing and positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("transform values must be finite")

    @property
    def bounds(self) -> np.ndarray:
        return self.truncation + self.discretization

    def truncation_ok(self) -> np.ndarray:
        """Mask of values whose truncation bound stays below
        TRUNCATION_GUARD*|value|."""
        return self.truncation <= TRUNCATION_GUARD * np.abs(self.values)


def laplace_grid(samples: np.ndarray, grid: TimeGrid, lambdas
                 ) -> LaplaceSamples:
    """Trapezoidal approximations of int_0^T exp(-lam*t) * psi(t) dt for
    every lam of the grid, with per-point error bounds.

    ``samples`` is one series, shape (N+1,), or s sensor series, shape
    (N+1, s); the transform arrays then have shape (K,) or (K, s).
    exp(-lam*t) is evaluated once per lam for all series, and each
    series is integrated on its own, so a column of the matrix transform
    equals the transform of that column alone.

    The truncation bound |psi(T)| exp(-lam*T)/lam estimates the discarded
    tail assuming the series has levelled off; the discretization bound
    combines the interior curvature proxy (tau*lam)^2/12 * int |f| with
    the boundary derivative terms of the Euler-Maclaurin expansion.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2) or samples.shape[0] != grid.num_samples:
        raise ValueError("series length must match the time grid")
    if np.any(lambdas <= 0.0):
        raise ValueError("transform parameter lam must be positive")
    tau = grid.tau
    t = grid.times()
    # one contiguous row per series; integrating one row at a time keeps
    # each product in cache and sums it as the single-series call does
    rows = np.ascontiguousarray(np.atleast_2d(samples.T))
    values = np.empty((lambdas.size, rows.shape[0]))
    i_abs = np.empty_like(values)
    for k, lam in enumerate(lambdas):
        decay = np.exp(-lam * t)
        for j, row in enumerate(rows):
            f = row * decay
            values[k, j] = np.trapezoid(f, dx=tau)
            i_abs[k, j] = np.trapezoid(np.abs(f), dx=tau)
    lam = lambdas[:, None]
    tail = np.exp(-lam * grid.horizon)
    first, last = rows[:, 0], rows[:, -1]
    fp0 = np.abs((rows[:, 1] - first) / tau - lam * first)
    fpT = np.abs((last - rows[:, -2]) / tau - lam * last) * tail
    shape = (lambdas.size,) + samples.shape[1:]
    return LaplaceSamples(
        lambdas=lambdas,
        values=values.reshape(shape),
        truncation=(np.abs(last) * tail / lam).reshape(shape),
        discretization=(tau ** 2 / 12.0 * (lam ** 2 * i_abs + fp0 + fpT)
                        ).reshape(shape),
    )


def suggest_lambda_grid(scenario: Scenario) -> tuple[float, float]:
    """Transform window (lambda_min, lambda_max) for ``scenario``.

    The lower end is 4/T^2, in 1D at least 25/delta^2 with delta the
    sensors' span: the 1D locator's large-lambda asymptotics hold from
    five e-foldings across the source-sensor gap, which sits within a
    factor 2 of delta for any source the sensors bracket (the 2D/3D fit
    uses the exact resolvent).  The upper end 0.05/tau keeps the numeric
    transform trustworthy (large parameters amplify data errors).
    """
    lam_min = 4.0 / scenario.grid.horizon ** 2
    delta = float(np.ptp(scenario.sensor_points()))
    if scenario.dimension == 1 and delta > 0.0:
        lam_min = max(lam_min, 25.0 / delta ** 2)
    lam_max = 0.05 / scenario.grid.tau
    if lam_min >= lam_max:
        raise ValueError(
            f"time grid cannot support the asymptotic regime: needs lambda in "
            f"[{lam_min:.4g}, {lam_max:.4g}]; decrease tau or increase the "
            f"horizon or the sensor span")
    return lam_min, lam_max


# ---------------------------------------------------------------------------
# First-kind Volterra deconvolution


@dataclass(frozen=True, eq=False)
class DeconvolutionResult:
    """Recovered intensity with solve diagnostics.

    ``q`` is the node series on the input grid (cell-midpoint unknowns
    interpolated back to nodes).  The solve runs on the input grid
    decimated by ``stride`` (1: not decimated); ``cells`` holds its cell
    values and ``n_tail_extended`` counts its trailing cells no sensor can
    determine (kernel dead time), filled by constant extrapolation.
    ``residual_norm`` is the norm of the stacked residual of all sensors
    on that grid and ``misfit[j]`` is |A_j q - y_j| / |y_j| for sensor j:
    a sensor whose kernel is off cannot be fitted by the intensity the
    others agree on.  ``solves`` counts the regularized solves of the eps
    search and ``cg_iterations`` their conjugate-gradient iterations,
    eps-slope solves included.
    """

    q: np.ndarray
    cells: np.ndarray
    residual_norm: float
    misfit: np.ndarray
    eps: float
    seminorm: float
    n_tail_extended: int
    solves: int
    cg_iterations: int
    stride: int
    noise_sigma: Union[float, None] = None


def _estimate_noise_sigma(samples: np.ndarray) -> float:
    """Robust per-sample noise scale from first differences (MAD estimator)."""
    d = np.diff(np.asarray(samples, dtype=float))
    mad = np.median(np.abs(d - np.median(d)))
    return float(1.4826 * mad / np.sqrt(2.0))


def _circulant_eigenvalues(w: np.ndarray, m: int, c: float, r: float
                           ) -> np.ndarray:
    """Eigenvalues, in ``rfft`` order, of T. Chan's optimal circulant
    preconditioner for sum_j A_j^T A_j + c D^T D + r I on m cells: that of
    the leading m x m block of A_j has first column (1 - k/m) w_j[k], and
    the periodic D^T D has eigenvalues 2 - 2 cos(2 pi k/m)."""
    from scipy import fft

    k = np.arange(m)
    spec = fft.rfft((1.0 - k / m)[:, None] * w[:m], axis=0)
    lam = np.sum(spec.real ** 2 + spec.imag ** 2, axis=1)
    return lam + c * (2.0 - 2.0 * np.cos(2.0 * np.pi * k[:lam.size] / m)) + r


def _pcg(apply, precond, b: np.ndarray, maxiter: int
         ) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for apply(x) = b from x = 0: x
    and the iterations taken once the recursive residual falls to 1e-13|b|.
    Raises numpy's LinAlgError when the preconditioner is not positive
    definite on a residual or after ``maxiter`` iterations."""
    x, p = np.zeros_like(b), np.zeros_like(b)
    res = b.copy()
    stop = 1e-13 * np.linalg.norm(b)
    if stop == 0.0:
        return x, 0
    rho_prev = 1.0
    for it in range(1, maxiter + 1):
        z = precond(res)
        rho = res @ z
        if not (np.isfinite(rho) and rho > 0.0):
            raise np.linalg.LinAlgError(
                "deconvolution preconditioner is not positive definite")
        p = z + (rho / rho_prev) * p
        hp = apply(p)
        alpha = rho / (p @ hp)
        x += alpha * p
        res -= alpha * hp
        if np.linalg.norm(res) <= stop:
            return x, it
        rho_prev = rho
    raise np.linalg.LinAlgError(f"deconvolution normal equations: CG did "
                                f"not converge in {maxiter} iterations")


class _Trial(NamedTuple):
    """One regularized solve: cell values, residual and its eps-sensitivity."""

    cells: np.ndarray
    residual: float
    per_sensor: np.ndarray
    seminorm: float
    # d log(residual) / d log(eps); each call runs one more CG solve
    slope: Callable[[], float]


def _discrepancy_search(solve, target: float, lo: float, hi: float
                        ) -> tuple[float, _Trial]:
    """Discrepancy-principle eps in {0} U [lo, hi] and the solve there.

    The residual grows monotonically with eps, so the bracket ends go
    first: the top is returned when even its residual stays below the
    target, which is typical when D barely sees the intensity (a constant
    lies in the null space of D).  Then eps = 0 is solved.  When its
    residual already reaches the target, no eps meets it: the series
    disagree beyond the noise (with s > 1 sensors, kernels set off by a
    location error), and eps = 0 would fit that disagreement with the
    least damped q.  That residual is a misfit floor no eps removes, so it
    is added to the target in quadrature, and the top is returned if it
    stays below the raised target.  Otherwise a safeguarded Newton
    iteration on f = log(residual/target) narrows the bracket: a step
    solves for the exact slope of f at the last trial, and is taken in
    eps where that lands inside the bracket (f is close to linear in eps
    near its root), else in log eps, else the log-midpoint; the midpoint
    is also used, without a slope solve, after a step that failed to
    halve |f|.  The search stops once |f| < 1e-3 or the bracket ratio
    falls below 1.2, and the evaluated eps whose residual is closest to
    the target is returned without a further solve.
    """
    if not target > 0.0:
        return 0.0, solve(0.0)
    top = solve(hi)
    if top.residual < target:
        return hi, top
    bottom = solve(0.0)
    if bottom.residual >= target:
        target = float(np.hypot(target, bottom.residual))
        if top.residual < target:
            return hi, top

    def mismatch(trial: _Trial) -> float:
        return float(np.log(max(trial.residual, 1e-300) / target))

    # eps = lo stands in for eps = 0: both sit far below the ridge floor
    a, b = np.log(lo), np.log(hi)
    tried = [(0.0, bottom), (hi, top)]
    x, f, trial = b, mismatch(top), top
    stalled = False
    while b - a >= np.log(1.2):
        steps = []
        if not stalled and (slope := trial.slope()) > 0.0:
            if f < slope:
                steps.append(x + np.log1p(-f / slope))   # Newton in eps
            steps.append(x - f / slope)                   # Newton in log eps
        steps.append(0.5 * (a + b))
        x = next(step for step in steps if a < step < b)
        eps_x = float(np.exp(x))
        trial = solve(eps_x)
        tried.append((eps_x, trial))
        f_prev, f = f, mismatch(trial)
        if abs(f) < 1e-3:
            break
        stalled = abs(f) > 0.5 * abs(f_prev)
        if f < 0.0:
            a = x
        else:
            b = x
    return min(tried, key=lambda entry: abs(mismatch(entry[1])))


def volterra_deconvolve(psi: np.ndarray, masses: np.ndarray, grid: TimeGrid,
                        eps: Union[float, str] = 0.0, *,
                        sigma: Union[float, None] = None
                        ) -> DeconvolutionResult:
    """Solve the first-kind convolution systems psi_j = K_j * q for one q.

    ``psi`` is one series, shape (N+1,), or s sensor series that see the
    same intensity through their own kernels, shape (N+1, s).  ``masses``
    holds the exact kernel mass of every cell of the grid, shape (N,) or
    (N, s).  The unknowns are cell-midpoint values of q against those
    masses (product-midpoint rule).  The s systems are stacked: the normal
    equations carry sum_j K_j^T K_j and sum_j K_j^T psi_j, the unknown
    cells are those at least one sensor can see, and the residual is the
    stacked one.  A single series is the case s = 1.

    A grid of more than MAX_CELLS cells is decimated by the smallest
    stride that fits: the series keep every stride-th sample, and a coarse
    cell's mass is the sum of its sub-cells' masses, which is exact.  The
    noise estimate, the dead-time cut, the normal equations and the eps
    search all run on the decimated system; q is interpolated back to the
    input grid.

    eps >= 0 adds the Tikhonov term eps*|Dq|^2 with D the first-difference
    matrix.  eps="auto" applies the discrepancy principle: the smallest
    eps in [1e-18, 1e6]*max(diag(sum_j K_j^T K_j)), or 0, whose stacked
    residual reaches the target sigma*sqrt(s*N) (raised as below when the
    sensors disagree beyond the noise), with sigma the per-sample noise
    scale (when not given, the root mean square of the per-sensor
    estimates) and N the decimated cell count.  The search solves at the
    top of that bracket first and stops there when the residual is still
    below the target, which is the usual outcome for a constant intensity:
    a constant lies in the null space of D, so even the largest eps leaves
    the fit, and the residual, close to the unregularized one.  It then
    solves at eps = 0; should that residual already reach the target, the
    sensors disagree beyond the noise, and that misfit floor is added to
    the target in quadrature.  A safeguarded Newton iteration on
    log(residual/target) finishes in a few solves (see
    ``_discrepancy_search``).  A zero target returns eps = 0 after one
    solve.

    A relative ridge of RIDGE_FLOOR on |Dq|^2 acts at eps=0 as a
    machine-precision spectral cutoff.  The normal matrix is never formed:
    one FFT of the masses at length n + m (m solved cells) applies every
    A_j and A_j^T, and CG preconditioned with T. Chan's optimal circulant
    solves it (``_pcg``; numpy's LinAlgError beyond
    CG_ITERATIONS_PER_CELL * m).
    """
    from scipy import fft

    psi = np.asarray(psi, dtype=float)
    w = np.asarray(masses, dtype=float)
    if psi.ndim > 2 or psi.shape[0] != grid.num_samples:
        raise ValueError("series length must match the time grid")
    if w.shape[0] != grid.num_steps:
        raise ValueError("masses must have one entry per time cell")
    series = psi.reshape(grid.num_samples, -1)
    w = w.reshape(grid.num_steps, -1)
    if w.shape[1] != series.shape[1]:
        raise ValueError("one kernel per sensor series is required")
    stride = -(-grid.num_steps // MAX_CELLS)
    n = grid.num_steps // stride
    series = series[:n * stride + 1:stride]
    w = w[:n * stride].reshape(n, stride, -1).sum(axis=1)
    y = series[1:]
    total_mass = np.sum(w, axis=0)
    if not np.all(np.isfinite(total_mass)) or np.any(total_mass <= 1e-100):
        raise ValueError("kernel mass vanishes on the horizon "
                         "(distance too large for the observation window)")

    # trailing cells whose columns are numerically invisible to every
    # sensor (dead time): the column of cell m sees the first n - m + 1
    # kernel masses of each sensor
    col_norm = np.sqrt(np.cumsum(w ** 2, axis=0).sum(axis=1))[::-1]
    theta = TAIL_RTOL * col_norm[0]
    m = int(np.count_nonzero(col_norm >= theta))

    # A_j is the n x m lower-trapezoidal Toeplitz map of kernel j: at the
    # FFT length n + m its products are linear convolutions/correlations
    size = fft.next_fast_len(n + m, real=True)
    spec = fft.rfft(w, size, axis=0)
    spec_conj = spec.conj()
    # response of every sensor to the constant tail that extends cell m-1
    tail = np.zeros_like(w)
    tail[m:] = np.cumsum(w, axis=0)[:n - m]

    def forward_apply(v: np.ndarray) -> np.ndarray:
        """(A_j v)_k for k = 1..n, one column per sensor."""
        return fft.irfft(spec * fft.rfft(v, size)[:, None], size,
                         axis=0)[:n]

    def adjoint_apply(u: np.ndarray) -> np.ndarray:
        """sum_j (A_j^T u_j) on the m cells."""
        prod = spec_conj * fft.rfft(u, size, axis=0)
        return fft.irfft(prod.sum(axis=1), size)[:m]

    def dtd(v: np.ndarray) -> np.ndarray:
        """D^T D v for the first-difference matrix D."""
        return -np.diff(np.diff(v), prepend=0.0, append=0.0)

    rhs = adjoint_apply(y)
    # the largest diagonal entry of sum_j A_j^T A_j, that of the first cell
    gmax = float(np.sum(w ** 2))
    # numerical floor: a difference-seminorm ridge pins the shift modes the
    # dead-time kernel cannot resolve (bias-free on constants), plus a tiny
    # identity ridge so the normal matrix stays positive definite
    floor_d = RIDGE_FLOOR * gmax
    floor_i = 1e-14 * gmax
    maxiter = CG_ITERATIONS_PER_CELL * m
    solves = cg_iterations = 0

    def solve(eps_val: float) -> _Trial:
        nonlocal solves, cg_iterations
        c = eps_val + floor_d
        lam = _circulant_eigenvalues(w, m, c, floor_i)

        def normal(v: np.ndarray) -> np.ndarray:
            return adjoint_apply(forward_apply(v)) + c * dtd(v) + floor_i * v

        def precond(v: np.ndarray) -> np.ndarray:
            return fft.irfft(fft.rfft(v) / lam, m)

        q_cells, its = _pcg(normal, precond, rhs, maxiter)
        solves += 1
        cg_iterations += its
        r_vec = forward_apply(q_cells) + q_cells[-1] * tail - y
        resid = float(np.linalg.norm(r_vec))

        def slope() -> float:
            nonlocal cg_iterations
            if not (eps_val > 0.0 and resid > 0.0):
                return 0.0
            # dq_cells/deps = -(normal matrix)^-1 D^T D q_cells;
            # d|r|^2/deps = 2 sum_j r_j . A_j dq/deps
            dcells, its = _pcg(normal, precond, -dtd(q_cells), maxiter)
            cg_iterations += its
            dr = forward_apply(dcells) + dcells[-1] * tail
            return eps_val * float(r_vec.ravel() @ dr.ravel()) / resid ** 2

        return _Trial(np.concatenate([q_cells, np.full(n - m, q_cells[-1])]),
                      resid, np.linalg.norm(r_vec, axis=0),
                      float(np.linalg.norm(np.diff(q_cells))), slope)

    if eps == "auto":
        if sigma is None:
            sig = float(np.sqrt(np.mean(np.square(
                [_estimate_noise_sigma(col) for col in series.T]))))
        else:
            sig = float(sigma)
        eps_used, trial = _discrepancy_search(solve, sig * np.sqrt(y.size),
                                              1e-18 * gmax, 1e6 * gmax)
        result_sigma: Union[float, None] = sig
    else:
        eps_used = float(eps)
        if eps_used < 0.0:
            raise ValueError("regularization eps must be nonnegative")
        trial = solve(eps_used)
        result_sigma = sigma

    # cell midpoints -> node series on the decimated grid, then the input
    q_full = trial.cells
    q_nodes = np.concatenate(([q_full[0]], 0.5 * (q_full[:-1] + q_full[1:]),
                              [q_full[-1]]))
    if stride > 1:
        coarse = TimeGrid(tau=grid.tau * stride, num_steps=n)
        q_nodes = np.interp(grid.times(), coarse.times(), q_nodes)
    # a zero series fitted exactly has misfit 0
    scale = np.maximum(np.linalg.norm(y, axis=0), 1e-300)
    return DeconvolutionResult(q=q_nodes, cells=q_full,
                               residual_norm=trial.residual,
                               misfit=trial.per_sensor / scale,
                               eps=eps_used,
                               seminorm=trial.seminorm,
                               n_tail_extended=n - m,
                               solves=solves,
                               cg_iterations=cg_iterations,
                               stride=stride,
                               noise_sigma=result_sigma)


def recover_intensity(psi: np.ndarray, scenario: Scenario, x_hat,
                      eps: Union[float, str] = 0.0,
                      sigma: Union[float, None] = None,
                      num_cells: int = DEFAULT_CELLS
                      ) -> DeconvolutionResult:
    """Deconvolve the background-subtracted series of every sensor of
    ``scenario`` into one intensity of a source at ``x_hat``.

    ``psi`` holds one column per sensor, shape (N+1, s), or the one series
    of a single sensor, shape (N+1,).  The kernel of sensor j is the
    scenario's own response at b_j to a unit constant source at x_hat, so
    q needs no amplitude.  One code path serves every domain: the
    scenario with that source alone, no f0 and (on an interval) zero
    boundary data goes through ``forward.sensor_traces``, with
    ``num_cells`` cells on an interval, and the first differences of its
    series are the cell masses of the forward model (the background is
    subtracted from ``psi``, so by linearity it plays no part).  The
    reaction lambda0 of free space is part of that response, so the data
    need no rescaling.  All columns are fitted jointly by
    ``volterra_deconvolve``, and its ``DeconvolutionResult`` is returned:
    ``q`` is the intensity on the scenario grid, and the per-sensor
    ``misfit`` flags a sensor the common intensity cannot explain.
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=float))
    distances = np.linalg.norm(scenario.sensor_points() - x_hat, axis=1)
    if np.any(distances == 0.0):
        raise ValueError("source estimate coincides with a sensor")
    dom = scenario.domain
    if isinstance(dom, Interval1D):
        dom = replace(dom, bc_left=replace(dom.bc_left, g=0.0),
                      bc_right=replace(dom.bc_right, g=0.0))
    unit = replace(scenario, domain=dom, f0=None,
                   sources=(PointSource(location=x_hat, intensity=1.0),))
    masses = np.diff(sensor_traces(unit, num_cells), axis=0)
    return volterra_deconvolve(psi, masses, scenario.grid, eps=eps,
                               sigma=sigma)
