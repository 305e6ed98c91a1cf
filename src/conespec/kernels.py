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

Both write the RK4 update as 2x2 step matrices y_{i+1} = T_i y_i.  Only
c = mu / sin^2 - lam depends on lam, and T_i is exactly quadratic in it, so
the coefficients of P0 + lam P1 + lam^2 P2 are built once per (dm2, mu, grid)
and memoized (:func:`_step_poly`); each shot then evaluates them by Horner's
rule.  One tree serves both entry points (Blelloch, "Prefix sums and their
applications", 1990): its up-sweep of pairwise products gives the end state,
and a down-sweep of states gives the trajectory, O(n) products each.  Both
only reassociate the products of the plain loop :func:`_rk4_band`, the tests'
reference, whose stage arithmetic :func:`_step_entries` writes out entrywise.
An overflow or NaN inside a shot raises :class:`NonFiniteResult` instead of
printing a numpy warning.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonFiniteResult

# Memoized step-matrix quadratics.  Shots on one (dm2, mu, grid) come in a
# run (one spec's eigenvalues, or a boundary mode's two solutions), so a
# larger memo barely raises the hit share; one entry on a 2049-point half
# band holds about 0.2 MB.
_MEMO_SIZE = 2


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


def _node_terms(dm2, mu, thetas):
    """Step widths and the lambda-free coefficients at each step's three points.

    Returns h and (a, e) at the lo, mid and hi points, with a = mu / sin^2
    and e = -dm2 cot, so that A(t) = [[0, 1], [a(t) - lam, e(t)]].
    """
    h = np.diff(thetas)
    tm = thetas[:-1] + 0.5 * h
    a_node = mu / np.sin(thetas) ** 2
    e_node = -dm2 / np.tan(thetas)
    return (h, (a_node[:-1], mu / np.sin(tm) ** 2, a_node[1:]),
            (e_node[:-1], -dm2 / np.tan(tm), e_node[1:]))


def _step_entries(dm2, mu, lam, thetas):
    """RK4 step matrices T_i (y_{i+1} = T_i y_i) as four entry arrays.

    The system matrix is A(t) = [[0, 1], [c(t), e(t)]] with
    c = mu / sin^2 t - lam and e = -dm2 cot t; the stages are
    k1 = A_lo, k2 = A_mid (I + h/2 k1), k3 = A_mid (I + h/2 k2),
    k4 = A_hi (I + h k3) and T = I + h/6 (k1 + 2 k2 + 2 k3 + k4), written
    out entry by entry.
    """
    return _stage_entries(*_node_terms(dm2, mu, thetas), lam)


def _stage_entries(h, a, e, lam):
    """:func:`_step_entries` from the output of :func:`_node_terms`."""
    (a_lo, a_m, a_hi), (e_lo, e_m, e_hi) = a, e
    c_lo, c_m, c_hi = a_lo - lam, a_m - lam, a_hi - lam

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


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _step_poly(dm2, mu, grid):
    """Step matrices as exact quadratics in lam: T = P0 + lam P1 + lam^2 P2.

    ``grid`` is the theta array's bytes.  The lam part of A is -lam N with
    N = [[0, 0], [1, 0]] and N @ N = 0, so in the stage products (at most four
    factors A) only non-adjacent pairs of N survive and the entries have
    degree 2.  P0 is the stage arithmetic at lam = 0; P1 and P2 are the
    symbolically expanded stage products, not a fit.  Returns a read-only
    array of shape (3, 2, 2, steps).
    """
    h, a, e = _node_terms(dm2, mu, np.frombuffer(grid))
    (a_lo, a_m, a_hi), (e_lo, e_m, e_hi) = a, e
    h2 = h * h
    h3, h4 = h2 * h, h2 * h2
    s = a_lo + a_m + e_m * e_m
    p1 = [[-h2 * (h2 * s + 4.0 * h * e_m + 12.0) / 24.0,
           -h3 * (h * (e_lo + e_m) + 4.0) / 24.0],
          [-h * (h3 * (e_hi * s + e_m * (a_lo + a_hi))
                 + 2.0 * h2 * (s + a_m + a_hi + e_hi * e_m)
                 + 4.0 * h * (e_hi + 2.0 * e_m) + 24.0) / 24.0,
           -h2 * (h2 * (a_m + a_hi + e_lo * e_hi + e_m * (e_lo + e_hi))
                  + 2.0 * h * (e_lo + e_hi + 2.0 * e_m) + 12.0) / 24.0]]
    p2 = [[h4 / 24.0, np.zeros_like(h)],
          [h3 * (h * (e_hi + e_m) + 4.0) / 24.0, h4 / 24.0]]
    p0 = _stage_entries(h, a, e, 0.0)
    poly = np.array([[p0[:2], p0[2:]], p1, p2])
    poly.flags.writeable = False
    return poly


def _steps(dm2, mu, lam, thetas):
    """Step matrices at ``lam`` by Horner's rule on the memoized quadratics."""
    p0, p1, p2 = _step_poly(dm2, mu, thetas.tobytes())
    return p0 + lam * (p1 + lam * p2)


def _up_sweep(t):
    """Tree of step products: level 0 is ``t`` (shape (2, 2, steps)).

    Each level holds the pairwise products T_{2j+1} @ T_{2j} of the one below
    (an unpaired last matrix moves up unchanged); the last level is the single
    product of all steps.
    """
    levels = [t]
    while t.shape[2] > 1:
        m = t.shape[2]
        # T_{2j+1} @ T_{2j}: numpy's einsum would not report an overflow
        up = (t[:, :, None, 1::2] * t[None, :, :, 0:m - 1:2]).sum(axis=1)
        if m % 2:
            up = np.concatenate([up, t[:, :, -1:]], axis=2)
        levels.append(up)
        t = up
    return levels


def _end_state(levels, g0, gp0):
    """State after all steps: the tree's root applied to (g0, gp0)."""
    if not levels[-1].shape[2]:
        return g0, gp0
    (r00, r01), (r10, r11) = levels[-1][:, :, 0]
    return r00 * g0 + r01 * gp0, r10 * g0 + r11 * gp0


def _rk4_end(dm2, mu, lam, thetas, g0, gp0):
    """End state of the RK4 shot: the up-sweep of the step tree."""
    y0, y1 = _end_state(_up_sweep(_steps(dm2, mu, lam, thetas)), g0, gp0)
    return float(y0), float(y1)


def _rk4_trajectory(dm2, mu, lam, thetas, g0, gp0):
    """RK4 trajectory: the up-sweep, then a down-sweep of states.

    Going down a level, the first child of each pair starts where its parent
    starts and the second child starts at the first child's product applied
    to that state, so the leaf level holds the state before every step; the
    last point is the end state of :func:`_rk4_end`.
    """
    levels = _up_sweep(_steps(dm2, mu, lam, thetas))
    state = np.array([[g0], [gp0]])
    for t in reversed(levels[:-1]):
        m = t.shape[2]
        below = np.empty((2, m))
        below[:, 0::2] = state
        below[:, 1::2] = (t[:, :, 0:m - 1:2] * state[:, :m // 2]).sum(axis=1)
        state = below
    n = thetas.shape[0]
    g = np.empty(n)
    gp = np.empty(n)
    g[:-1], gp[:-1] = state[:, :n - 1]
    g[-1], gp[-1] = _end_state(levels, g0, gp0)
    return g, gp


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
    return _finite_shot(_rk4_trajectory, dm2, mu, lam, thetas, g0, gp0)


def propagate_band_end(dm2: float, mu: float, lam: float, thetas: np.ndarray,
                       g0: float, gp0: float) -> tuple[float, float]:
    """End state (g, g') of :func:`propagate_band` without the trajectory."""
    return _finite_shot(_rk4_end, dm2, mu, lam, thetas, g0, gp0)
