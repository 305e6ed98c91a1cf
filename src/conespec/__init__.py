"""Axially symmetric one-phase Bernoulli cones: spectra, energies, particular
solutions."""

from ._version import __version__
from .config import DEFAULT_CONFIG, SolverConfig, load_config
from .errors import (AmbiguousCluster, BracketFail, ConfigError,
                     DegenerateBasis, EvaluationUnstable, GridTooCoarse, InputError,
                     MissingCoefficient, NoZeroFound, NonConvergent,
                     NonFiniteResult, NumericalError, ParseError,
                     ResonantExponent, TailDivergence, UsageError,
                     ValidationError, ZeroDenominator)
from .profile import (ConeProfile, band_points, jacobi_fields,
                      legendre_crosscheck, solve_profile)
from .spheremodes import SphereMode, harmonic_multiplicity, modes_up_to
from .kernels import get_backend, propagate_band
from .sl import (SLEigenpair, SLSpec, band_spec, eigen_fd_crosscheck, eigen_k,
                 eigen_pairs, eigenvalue, eigenvalues, rayleigh)
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

# glibc malloc parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Keep freed numpy temporaries in the heap for the next call to reuse.

    By default glibc serves an array of 128 KiB or more with mmap, and each
    such free raises the mmap threshold to the freed size (0.5-1 MiB here)
    and the trim threshold to twice that.  One 8-lane 2,049-point trajectory
    allocates 1.75 MiB of temporaries, so every call's frees trim the heap
    and the next call faults the pages back in: about 350 minor faults per
    warm call, which double its time, against 0 faults with the thresholds
    below.  Setting either threshold turns off glibc's dynamic adjustment, so
    both are set.  16 MiB keeps an 8-lane step array on the heap up to 16
    times the default grid.  Off glibc (musl's mallopt does nothing, macOS has
    none) this does nothing.
    """
    import ctypes
    import sys

    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()

__all__ = [name for name in dir() if not name.startswith("_")]
