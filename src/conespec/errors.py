"""Exception hierarchy.

Everything numerical derives from :class:`NumericalError` so the CLI can map
"the math failed" to a single exit code, distinct from usage and verdict
failures.
"""


class NumericalError(Exception):
    """Base class for failures of the numerical machinery."""


class NoZeroFound(NumericalError):
    """Profile never crossed zero before the coordinate singularity."""


class NonConvergent(NumericalError):
    """An iteration (bisection, defect refinement) exceeded its cap."""


class BracketFail(NumericalError):
    """Node-count monotonicity violated while isolating an eigenvalue."""


class EvaluationUnstable(NumericalError):
    """Special-function evaluation lost more than half the working precision."""


class ZeroDenominator(NumericalError):
    """Rayleigh quotient (or similar ratio) with vanishing denominator."""


class AmbiguousCluster(NumericalError):
    """Clustered eigenvalues that match no analytic eigenfunction."""


class DegenerateBasis(NumericalError):
    """Even/odd fundamental solutions numerically dependent."""


class ResonanceDivision(NumericalError):
    """Division by a boundary eigenvalue that is resonant (|ell_k| ~ 0)."""


class ResonantExponent(NumericalError):
    """A Cauchy-Euler selection-rule denominator d/2 +- delta - beta vanished."""


class TailDivergence(NumericalError):
    """An infinite-limit radial integral fails its convergence test."""


class MissingCoefficient(NumericalError):
    """Foliation leaf evaluation without a caller-supplied coefficient."""


class GridTooCoarse(NumericalError):
    """Estimated quadrature error exceeds the requested tolerance."""


class NonFiniteResult(NumericalError):
    """A computed quantity overflowed to infinity or became NaN."""


class ConfigError(Exception):
    """Base class for configuration problems (exit code 64 territory)."""


class ParseError(ConfigError):
    """Malformed JSON config; carries line/column when available."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ConfigError):
    """Config values violate an invariant (e.g. non-positive tolerance)."""


class UsageError(ConfigError):
    """Malformed CLI invocation."""
