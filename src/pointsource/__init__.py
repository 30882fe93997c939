"""Point-source localization and intensity recovery in parabolic models.

The package recovers locations and time-dependent intensities of point
pollution sources in heat/mass-transfer models from pointwise sensor time
series, via truncated Laplace transforms of the data, large-parameter
Green-function asymptotics (1D), a weighted least-squares fit of the
free-space transform model (2D/3D), and regularized Volterra
deconvolution.  Forward solvers (an analytic free-space oracle and a 1D
Crank-Nicolson scheme) generate and validate synthetic data; diagnostic
routines flag configurations where recovery is provably non-unique.
"""

from . import cli, forward, identify1d, identifynd, laplace, model
from .model import (
    CoefficientField1D,
    Dirichlet,
    DriftFieldND,
    FreeSpace,
    Interval1D,
    PointSource,
    Robin,
    Scenario,
    TimeGrid,
)

__version__ = "0.1.0"
