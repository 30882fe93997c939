"""Locate a 1D point source from two sensor time series.

A unit-intensity source sits at x = 0.3 between sensors at 0 and 1.
The sensors record the concentration; the log-ratio of their truncated
Laplace transforms recovers the source position, and deconvolution by
the arrival kernel recovers the intensity history.
"""

import numpy as np

from pointsource import (
    CoefficientField1D,
    FreeSpace,
    PointSource,
    Scenario,
    TimeGrid,
    forward,
    identify1d,
    laplace,
)

# ---- synthetic measurements ------------------------------------------------
grid = TimeGrid(tau=1e-3, num_steps=10000)          # 10 time units
x_true = 0.3
source = PointSource(location=[x_true], intensity=1.0)
sensors = (0.0, 1.0)

series = [forward.free_space_response([source], [b], grid, n=1)
          for b in sensors]
print(f"sensor peaks: {[float(s.max()) for s in series]}")

# ---- transforms on a window compatible with the sampling rate ---------------
lams = np.geomspace(100.0, 400.0, 13)
phi1, phi2 = (laplace.laplace_grid(s, grid, lams) for s in series)

coeffs = CoefficientField1D.constant(1.0, 0.0, 0.0, interval=(0.0, 1.0))
fit = identify1d.locate_source_1d(phi1, phi2, coeffs, *sensors)

print(f"\nrecovered location: {fit.x1_hat:.6f}   (true {x_true})")
print(f"midpoint offset:    {fit.offset.offset:.6f}   (expected "
      f"{0.5 - x_true})")
print(f"admissible:         {fit.admissible}")
print("\nper-lambda estimates:")
for lam, x1, used in zip(fit.lambdas, fit.x1_per_lambda, fit.used):
    mark = "*" if used else " "
    print(f"  {mark} lam = {lam:7.1f}   x1 = {x1:.8f}")

# ---- intensity from the nearer sensor ---------------------------------------
scenario = Scenario(domain=FreeSpace(n=1), sources=(source,),
                    sensors=tuple([b] for b in sensors), grid=grid)
intensity = identify1d.recover_intensity_1d(series[0], scenario, fit.x1_hat,
                                            sensors[0])
t = grid.times()
win = t >= 1.0
err = np.linalg.norm(intensity.q[win] - 1.0) / np.sqrt(win.sum())
print(f"\nintensity: mean {intensity.q[win].mean():.4f} over [1, 10], "
      f"rms error {err:.2e} (true intensity is 1)")
print(f"kernel: {intensity.kernel['source']}, "
      f"{intensity.deconvolution.factorizations} factorization(s), "
      f"eps {intensity.deconvolution.eps:.3g}")
