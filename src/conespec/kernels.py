"""Propagation kernel for the separated band ODE.

Every spectral computation in the package reduces to integrating

    g'' = -(d-2) cot(theta) g' - (lam - mu / sin^2(theta)) g

along a theta grid: the cone profile is (mu=0, lam=d-1), interior
Sturm-Liouville shots use general (mu, lam), and boundary-mode fundamental
solutions are (mu, lam=0).  Two entry points share one fixed-step RK4
scheme:

* :func:`propagate_band` returns the whole trajectory (g, g') at every grid
  point -- node counts, eigenfunction assembly, the profile and the boundary
  modes need it;
* :func:`propagate_band_end` returns only the end state -- the eigenvalue
  defect evaluations need nothing else.

Both write the RK4 update as 2x2 step matrices, built entrywise as four
arrays (:func:`_step_entries`).  Trajectories come from a Hillis-Steele
prefix scan over them (O(n log n) products), end states from a pairwise tree
reduction (O(n) products); both only reassociate the products of the plain
loop :func:`_rk4_band`, the tests' reference.  An overflow or NaN inside a
shot raises :class:`NonFiniteResult` instead of printing a numpy warning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteResult


def _rk4_band(dm2, mu, lam, thetas, g0, gp0):
    """Fixed-step RK4 along ``thetas`` (monotone, either direction).

    Returns (g, gp) sampled at every grid point, including the start.
    """
    n = thetas.shape[0]
    g = np.empty(n)
    gp = np.empty(n)
    y0 = g0
    y1 = gp0
    g[0] = y0
    gp[0] = y1
    for i in range(n - 1):
        t = thetas[i]
        h = thetas[i + 1] - t
        # k1
        a1 = y1
        b1 = -dm2 / math.tan(t) * y1 - (lam - mu / math.sin(t) ** 2) * y0
        # k2, k3 share the midpoint coefficients
        tm = t + 0.5 * h
        cot_m = 1.0 / math.tan(tm)
        q_m = lam - mu / math.sin(tm) ** 2
        u0 = y0 + 0.5 * h * a1
        u1 = y1 + 0.5 * h * b1
        a2 = u1
        b2 = -dm2 * cot_m * u1 - q_m * u0
        u0 = y0 + 0.5 * h * a2
        u1 = y1 + 0.5 * h * b2
        a3 = u1
        b3 = -dm2 * cot_m * u1 - q_m * u0
        # k4
        te = t + h
        u0 = y0 + h * a3
        u1 = y1 + h * b3
        a4 = u1
        b4 = -dm2 / math.tan(te) * u1 - (lam - mu / math.sin(te) ** 2) * u0
        y0 = y0 + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y1 = y1 + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g[i + 1] = y0
        gp[i + 1] = y1
    return g, gp


def _step_entries(dm2, mu, lam, thetas):
    """RK4 step matrices T_i (y_{i+1} = T_i y_i) as four entry arrays.

    The system matrix is A(t) = [[0, 1], [c(t), e(t)]] with
    c = mu / sin^2 t - lam and e = -dm2 cot t; the stages are
    k1 = A_lo, k2 = A_mid (I + h/2 k1), k3 = A_mid (I + h/2 k2),
    k4 = A_hi (I + h k3) and T = I + h/6 (k1 + 2 k2 + 2 k3 + k4), written
    out entry by entry.
    """
    h = np.diff(thetas)
    tm = thetas[:-1] + 0.5 * h
    c_node = mu / np.sin(thetas) ** 2 - lam
    e_node = -dm2 / np.tan(thetas)
    c_lo, c_hi = c_node[:-1], c_node[1:]
    e_lo, e_hi = e_node[:-1], e_node[1:]
    c_m = mu / np.sin(tm) ** 2 - lam
    e_m = -dm2 / np.tan(tm)

    def a_times(c, e, m00, m01, m10, m11):  # A @ M for A = [[0, 1], [c, e]]
        return m10, m11, c * m00 + e * m10, c * m01 + e * m11

    hh = 0.5 * h
    # k1 = A_lo = [[0, 1], [c_lo, e_lo]] enters k2 and T directly
    k2 = a_times(c_m, e_m, 1.0, hh, hh * c_lo, 1.0 + hh * e_lo)
    k3 = a_times(c_m, e_m, 1.0 + hh * k2[0], hh * k2[1], hh * k2[2], 1.0 + hh * k2[3])
    k4 = a_times(c_hi, e_hi, 1.0 + h * k3[0], h * k3[1], h * k3[2], 1.0 + h * k3[3])
    h6 = h / 6.0
    t00 = 1.0 + h6 * (2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    t01 = h6 * (1.0 + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    t10 = h6 * (c_lo + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    t11 = 1.0 + h6 * (e_lo + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    return t00, t01, t10, t11


def _mat_mul(a, b):
    """2x2 products a @ b, each matrix given as its four entry arrays."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _rk4_scan(dm2, mu, lam, thetas, g0, gp0):
    """Vectorized RK4 trajectory: step matrices + Hillis-Steele prefix scan."""
    n = thetas.shape[0]
    g = np.empty(n)
    gp = np.empty(n)
    g[0] = g0
    gp[0] = gp0
    t = _step_entries(dm2, mu, lam, thetas)
    # Inclusive scan: afterwards entry i holds the product T_i @ ... @ T_0.
    width = 1
    while width < n - 1:
        prod = _mat_mul([x[width:] for x in t], [x[:-width] for x in t])
        for x, p in zip(t, prod):
            x[width:] = p
        width *= 2
    g[1:] = t[0] * g0 + t[1] * gp0
    gp[1:] = t[2] * g0 + t[3] * gp0
    return g, gp


def _rk4_reduce(dm2, mu, lam, thetas, g0, gp0):
    """End state of the RK4 shot by pairwise tree reduction of the steps."""
    y0, y1 = g0, gp0
    t = _step_entries(dm2, mu, lam, thetas)
    while t[0].size:
        if t[0].size % 2:
            # apply the leading step to the state so the rest pairs up
            y0, y1 = t[0][0] * y0 + t[1][0] * y1, t[2][0] * y0 + t[3][0] * y1
            t = [x[1:] for x in t]
        # T_{2j+1} @ T_{2j} keeps the order of the product
        t = _mat_mul([x[1::2] for x in t], [x[0::2] for x in t])
    return float(y0), float(y1)


def get_backend() -> str:
    """Always ``"numpy"``, the only implementation; kept for provenance records."""
    return "numpy"


def _finite_shot(kernel, dm2, mu, lam, thetas, g0, gp0):
    """Run ``kernel`` with numpy overflow and NaN raised as NonFiniteResult."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return kernel(float(dm2), float(mu), float(lam),
                          np.asarray(thetas, dtype=np.float64), float(g0), float(gp0))
    except FloatingPointError as exc:
        raise NonFiniteResult(f"non-finite band shot at mu={mu}, lam={lam}: {exc}") from None


def propagate_band(dm2: float, mu: float, lam: float, thetas: np.ndarray,
                   g0: float, gp0: float):
    """Integrate the band ODE along ``thetas``; (g, g') at every grid point."""
    return _finite_shot(_rk4_scan, dm2, mu, lam, thetas, g0, gp0)


def propagate_band_end(dm2: float, mu: float, lam: float, thetas: np.ndarray,
                       g0: float, gp0: float) -> tuple[float, float]:
    """End state (g, g') of :func:`propagate_band` without the trajectory."""
    return _finite_shot(_rk4_reduce, dm2, mu, lam, thetas, g0, gp0)
