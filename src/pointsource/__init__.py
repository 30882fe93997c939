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
from .forward import (
    bessel_k0,
    crank_nicolson_1d,
    distance_kernel,
    free_space_response,
    green_1d_asymptotic,
    heat_kernel,
    resolvent_green,
)
from .identify1d import (
    alternation_findings,
    invert_travel_distance,
    locate_source_1d,
    recover_intensity_1d,
)
from .identifynd import (
    in_general_position,
    locate_source_nd,
    nearest_source_matrix,
    nonuniqueness_discrepancy,
    recover_intensity_nd,
    sensor_count_sufficient,
)
from .laplace import (
    laplace_grid,
    suggest_lambda_grid,
    volterra_deconvolve,
)
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
    load_scenario,
    save_scenario,
    sensor_source_distances,
    validate_scenario,
)

__version__ = "0.1.0"
