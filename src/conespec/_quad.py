"""Composite Simpson quadrature and Brent root finding on numpy alone.

Both follow a SciPy routine operation for operation, so their results are
bit-identical to SciPy's (the tests pin this).  Importing SciPy costs more
than a typical solve, so the solver path uses these and SciPy stays the
library of the independent oracles.

* :func:`simpson` is ``scipy.integrate.simpson`` for an odd sample count on
  irregular spacing (Cartwright's parabolic-segment weights).
* :func:`brentq` is SciPy's C ``brentq`` (Brent, *Algorithms for
  Minimization without Derivatives*, 1973, ch. 4), driving the generator
  :func:`brent_steps`.  The band eigenvalue solves of ``sl`` each run
  ``brent_steps`` inside their own generator, and one driver answers them
  in lockstep.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergent, NonFiniteResult

_RTOL = 8.9e-16   # relative stop tolerance: 4*eps, the least scipy's brentq accepts
_MAXITER = 100


def simpson(y, x) -> float:
    """Composite Simpson integral of samples ``y`` at increasing abscissae ``x``.

    The sample count must be odd and at least 3.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.size
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError("simpson needs 1-D y and x of equal length")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"simpson needs an odd sample count >= 3, got {n}")
    h = np.diff(x)
    h0, h1 = h[0:n - 2:2], h[1:n - 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    tmp = hsum / 6.0 * (y[0:n - 2:2] * (2.0 - 1.0 / ratio)
                        + y[1:n - 1:2] * (hsum * (hsum / (h0 * h1)))
                        + y[2:n:2] * (2.0 - ratio))
    return float(np.sum(tmp))


def brent_steps(a: float, b: float, xtol: float):
    """Brent's method on [a, b] as a generator: yields each x, is sent f(x).

    Returns the root (as ``StopIteration.value``) once the bracket half-width
    falls below (xtol + _RTOL*|x|)/2.  Raises ``ValueError`` on a same-sign
    bracket, :class:`NonFiniteResult` on a NaN value and
    :class:`NonConvergent` after ``_MAXITER`` iterations.  Several roots can
    be driven in lockstep, each round's new values computed together.
    """
    def value(fx, x):
        fx = float(fx)
        if math.isnan(fx):
            raise NonFiniteResult(f"function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value((yield xpre), xpre)
    fcur = value((yield xcur), xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:             # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value((yield xcur), xcur)
    raise NonConvergent(f"brentq did not converge in {_MAXITER} iterations")


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Drives :func:`brent_steps` (its stopping rule and errors) with ``f``.
    """
    steps = brent_steps(a, b, xtol)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value
