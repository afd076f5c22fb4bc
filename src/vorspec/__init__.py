"""Fourier pseudo-spectral solver for 2-D incompressible flow in
vorticity form, with IMEX multistep time integration up to third order,
energy-style stability functionals, and benchmark drivers.

The public surface re-exported here is the supported API; module-private
names (leading underscore) may change without notice.
"""

__version__ = "1.0.0"

from .errors import (BlowUpError, ConfigError, GridMismatchError,
                     MeanViolationError, NotDivergenceFreeError, VorspecError)
from .spectral import (Grid, ScalarField, VectorField, derivative, divergence,
                       gradient, inner_product, l2_norm, laplacian, mean,
                       perp_gradient)
from .fields import (MEAN_TOLERANCE, FlowState, make_state, poincare_ratio,
                     solve_poisson)
from .convection import DIV_FREE_TOLERANCE, skew_convection
from .diagnostics import (SeriesRecord, TelescopeCoeffs, bdf3_stencil,
                          div_error, energy, enstrophy,
                          get_telescope_coefficients, hm_norm, make_record,
                          stability_F, stability_G1, verify_telescope)
from .integrators import (BLOWUP_FACTOR, RunConfig, RunSummary, SchemeId,
                          helmholtz_solve, run)
from .bench import (SHEAR_LAYER_CASES, TG_DT_LADDER, ConvergenceRow,
                    ShearLayerSpec, TaylorGreenSpec, convergence_csv,
                    convergence_study, shear_layer_init, taylor_green_exact)
from .output import (RAW_MAGIC, CsvSeriesWriter, format_float, read_raw,
                     write_pgm, write_raw)
from .checks import CheckResult, run_checks

__all__ = [
    "__version__",
    # errors
    "VorspecError", "GridMismatchError", "MeanViolationError",
    "NotDivergenceFreeError", "BlowUpError", "ConfigError",
    # spectral
    "Grid", "ScalarField", "VectorField", "derivative", "gradient",
    "divergence", "laplacian", "perp_gradient", "inner_product", "l2_norm",
    "mean",
    # fields
    "FlowState", "MEAN_TOLERANCE", "make_state", "solve_poisson",
    "poincare_ratio",
    # convection
    "DIV_FREE_TOLERANCE", "skew_convection",
    # diagnostics
    "TelescopeCoeffs", "SeriesRecord", "get_telescope_coefficients",
    "verify_telescope", "bdf3_stencil", "stability_F", "stability_G1",
    "energy", "enstrophy", "div_error", "hm_norm", "make_record",
    # integrators
    "SchemeId", "RunConfig", "RunSummary", "helmholtz_solve", "run",
    "BLOWUP_FACTOR",
    # bench
    "TaylorGreenSpec", "ShearLayerSpec", "SHEAR_LAYER_CASES", "TG_DT_LADDER",
    "taylor_green_exact", "shear_layer_init", "ConvergenceRow",
    "convergence_study", "convergence_csv",
    # output
    "format_float", "CsvSeriesWriter", "write_pgm", "write_raw", "read_raw",
    "RAW_MAGIC",
    # checks
    "CheckResult", "run_checks",
]
