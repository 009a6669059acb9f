"""Transport with power-law trapping and its fractional-diffusion limit.

The package computes time-domain particle densities three ways: a
discrete-ordinates solution of the trapped transport equation inverted
numerically from the Laplace domain, a time-fractional diffusion
approximation inverted from its closed-form Laplace transform on the
same contour, and the classical diffusion kernel as a baseline. The
discrete-ordinates spectra of a whole contour come from one call of
`transport.spectra`, the only spectrum entry point. A comparison
harness drives all three over shared scenarios and emits CSV tables and
gnuplot scripts.
"""

from .errors import (DegenerateSpectrumError, NumericFailureError,
                     QuadratureError)
from .fde import (FdeParams, density_half, fourier_laplace, from_transport,
                  normal_diffusion)
from .fde import laplace_density as fde_laplace_density
from .harness import (Scenario, SpatialGrid, SpatialProfile,
                      builtin_scenarios, emit_csv, emit_plot_script,
                      run_scenario, validate)
from .ilt import InversionConfig, contour, de_map, invert, invert_reference
from .specfun import QuadratureSet, gauss_legendre, gen_exp_integral_scaled
from .transport import TransportParams
from .transport import laplace_density as transport_laplace_density
from .waiting import WaitingTimeModel

__version__ = "0.1.0"

__all__ = [
    "DegenerateSpectrumError",
    "FdeParams",
    "InversionConfig",
    "NumericFailureError",
    "QuadratureError",
    "QuadratureSet",
    "Scenario",
    "SpatialGrid",
    "SpatialProfile",
    "TransportParams",
    "WaitingTimeModel",
    "builtin_scenarios",
    "contour",
    "de_map",
    "density_half",
    "emit_csv",
    "emit_plot_script",
    "fde_laplace_density",
    "fourier_laplace",
    "from_transport",
    "gauss_legendre",
    "gen_exp_integral_scaled",
    "invert",
    "invert_reference",
    "normal_diffusion",
    "run_scenario",
    "transport_laplace_density",
    "validate",
]
