"""Quadrature and difference stencils on numpy alone.

Simpson follows a SciPy routine operation for operation, so its results are
bit-identical to SciPy's (the tests pin this).  Importing SciPy costs more
than a typical solve, so the solver path uses these and SciPy stays the
library of the independent oracles.

* :func:`simpson` is ``scipy.integrate.simpson`` for an odd sample count on
  irregular spacing (Cartwright's parabolic-segment weights), for one row
  of samples or each row of a 2-D array.
* The uniform-grid stencils (Fornberg, Math. Comp. 51, 1988): :func:`_derivative`
  (weights :data:`D1_WEIGHTS`, shared with ``weiss``), :func:`_d2_uniform`, and the
  running integral :func:`_cumulative_up` of the cubic.
"""

from __future__ import annotations

import numpy as np


def simpson(y, x):
    """Composite Simpson integral of samples ``y`` at increasing abscissae ``x``.

    The sample count must be odd and at least 3.  A 2-D ``y`` integrates each
    row along ``x`` and returns an array; each row's value equals the 1-D call's
    bit for bit (the same elementwise expression, then a contiguous row sum).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != n:
        raise ValueError(f"simpson needs 1-D x and 1-D or 2-D y along it, "
                         f"got x {x.shape} and y {y.shape}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"simpson needs an odd sample count >= 3, got {n}")
    h = np.diff(x)
    h0, h1 = h[0:n - 2:2], h[1:n - 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    # hsum/6 * (y0 (2 - 1/ratio) + y1 hsum^2/(h0 h1) + y2 (2 - ratio)), summed in place
    tmp = y[..., 0:n - 2:2] * (2.0 - 1.0 / ratio)
    tmp += y[..., 1:n - 1:2] * (hsum * (hsum / (h0 * h1)))
    tmp += y[..., 2:n:2] * (2.0 - ratio)
    tmp *= hsum / 6.0
    return float(np.sum(tmp)) if y.ndim == 1 else np.sum(tmp, axis=1)


# Fourth-order first derivative: weights of the samples -2..2 steps away, over 12 h.
# np.convolve flips its kernel, so _derivative passes them reversed; the others are symmetric.
D1_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_SEG_STENCIL = np.array([-1.0, 13.0, 13.0, -1.0])
_D2_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid of step h."""
    d = np.empty_like(vals)
    np.divide(np.convolve(vals, D1_WEIGHTS[::-1], "valid"), 12 * h, out=d[2:-2])
    for i in (0, 1):
        d[i] = (-25 * vals[i] + 48 * vals[i + 1] - 36 * vals[i + 2]
                + 16 * vals[i + 3] - 3 * vals[i + 4]) / (12 * h)
        d[-1 - i] = (25 * vals[-1 - i] - 48 * vals[-2 - i] + 36 * vals[-3 - i]
                     - 16 * vals[-4 - i] + 3 * vals[-5 - i]) / (12 * h)
    return d


def _d2_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order second derivative on a uniform grid (end rows copy the nearest)."""
    d = np.empty_like(y)
    np.divide(np.convolve(y, _D2_STENCIL, "valid"), 12 * h * h, out=d[2:-2])
    d[:2] = d[2]
    d[-2:] = d[-3]
    return d


def _segment_integrals(y: np.ndarray, dx: float) -> np.ndarray:
    """Per-interval integrals from the cubic through the 4 nearest samples.

    The symmetric stencil keeps the local error sign-consistent, so running
    sums stay smooth (an alternating half-panel scheme leaves a sawtooth
    that pointwise differentiation of the result would amplify by 1/h^2).
    """
    c = dx / 24.0
    seg = np.empty(y.size - 1)
    np.multiply(np.convolve(y, _SEG_STENCIL, "valid"), c, out=seg[1:-1])
    seg[0] = c * (9 * y[0] + 19 * y[1] - 5 * y[2] + y[3])
    seg[-1] = c * (y[-4] - 5 * y[-3] + 19 * y[-2] + 9 * y[-1])
    return seg


def _cumulative_up(y: np.ndarray, dx: float) -> np.ndarray:
    """int_{x0}^{x_i} y dx for every grid point."""
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(_segment_integrals(y, dx), out=out[1:])
    return out

