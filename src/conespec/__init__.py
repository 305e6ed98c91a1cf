"""Axially symmetric one-phase Bernoulli cones: spectra, energies, particular
solutions."""

from ._version import __version__
from .config import DEFAULT_CONFIG, SolverConfig, load_config
from .errors import (AmbiguousCluster, BracketFail, ConfigError,
                     DegenerateBasis, EvaluationUnstable, GridTooCoarse,
                     MissingCoefficient, NoZeroFound, NonConvergent,
                     NonFiniteResult, NumericalError, ParseError, ResonanceDivision,
                     ResonantExponent, TailDivergence, UsageError,
                     ValidationError, ZeroDenominator)
from .profile import (ConeProfile, band_points, jacobi_fields,
                      legendre_crosscheck, solve_profile)
from .spheremodes import SphereMode, harmonic_multiplicity, modes_up_to
from .kernels import get_backend, propagate_band
from .sl import (SLEigenpair, SLSpec, band_spec, count_below, eigen_fd_crosscheck,
                 eigen_k, eigenvalue, rayleigh)
from .linkspec import (IntegrabilityReport, LinkEigenvalue, LinkSpectrum,
                       assemble, decay_exponents, homogeneity, link_spectrum,
                       verify_strong_integrability)
from .boundary import (BoundaryMode, boundary_modes, sphere_area,
                       steklov_fd_crosscheck)
from .radial import (BuildReport, DecayClassification, RadialField, SourceSpec,
                     add_fields, boundary_residual, build_up, classify_decay,
                     make_source, ode_residuals, project_interior, radial_grid,
                     scale_field, solve_radial_modes, transfer_boundary)
from .weiss import (AxisymField, Component, F_functional, WeissReport,
                    cone_field, foliation_leading_term, halfplane_field,
                    link_measure_identity, perturbed_field, power_field,
                    weiss, weiss_derivative_check, weiss_report)

__all__ = [name for name in dir() if not name.startswith("_")]
