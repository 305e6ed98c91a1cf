"""Exception hierarchy, the one owner of the CLI's exit code on failure.

A refusal of caller input is an :class:`InputError` (a ``ValueError``): exit 64,
as for an ``OSError``.  A :class:`NumericalError`, or any other ``ValueError``,
is a failure of the computation: exit 2.  :func:`finite` alone turns numpy
overflow and invalid operations into :class:`NonFiniteResult`.
"""

import contextlib

import numpy as np


class NumericalError(Exception):
    """Base class for failures of the numerical machinery."""


class NoZeroFound(NumericalError):
    """Profile never crossed zero before the coordinate singularity."""


class NonConvergent(NumericalError):
    """A computation that did not reach its result (an enumeration past its cap,
    an assembled eigenfunction of zero norm)."""


class BracketFail(NumericalError):
    """A shot eigenfunction without the node count of its index."""


class EvaluationUnstable(NumericalError):
    """Special-function evaluation lost more than half the working precision."""


class ZeroDenominator(NumericalError):
    """Rayleigh quotient (or similar ratio) with vanishing denominator."""


class AmbiguousCluster(NumericalError):
    """Clustered eigenvalues that match no analytic eigenfunction."""


class DegenerateBasis(NumericalError):
    """Even/odd fundamental solutions numerically dependent."""


class TailDivergence(NumericalError):
    """An infinite-limit radial integral fails its convergence test."""


class MissingCoefficient(NumericalError):
    """Foliation leaf evaluation without a caller-supplied coefficient."""


class GridTooCoarse(NumericalError):
    """Estimated quadrature error exceeds the requested tolerance."""


class NonFiniteResult(NumericalError):
    """A computed quantity overflowed to infinity or became NaN."""


class InputError(ValueError):
    """Base class of every refusal of caller input."""
    label = "invalid input"


class ResonantExponent(InputError):
    """A Cauchy-Euler selection-rule denominator d/2 +- delta - beta vanished;
    the source's beta is at fault."""


class ConfigError(InputError):
    """Base class for configuration problems."""
    label = "config error"


class ParseError(ConfigError):
    """Malformed JSON config; the message names the line and column when known."""


class ValidationError(ConfigError):
    """Config values violate an invariant (e.g. non-positive tolerance)."""


class UsageError(ConfigError):
    """Malformed CLI invocation."""
    label = "usage error"


@contextlib.contextmanager
def finite(what: str, **where):
    """Raise numpy overflow or an invalid operation in the block (or, as a
    decorator, the function) as NonFiniteResult of ``what.format(**where)``;
    ``where`` is formatted only on failure, so it may hold arrays."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteResult(f"{what.format(**where)}: {exc}") from None
