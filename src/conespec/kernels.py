"""Propagation kernel for the separated band ODE.

Every spectral computation in the package reduces to integrating

    g'' = -(d-2) cot(theta) g' - (lam - mu / sin^2(theta)) g

along a theta grid: the cone profile is (mu=0, lam=d-1), interior
Sturm-Liouville shots use general (mu, lam), and boundary-mode fundamental
solutions are (mu, lam=0).  The one entry point, :func:`propagate_band`,
integrates it by fixed-step RK4 and returns the whole trajectory (g, g') at
every grid point -- the profile, the boundary modes and the eigenfunctions no
Legendre series gives (see :mod:`conespec.sl`) need it.

It writes the RK4 update as 2x2 step matrices y_{i+1} = T_i y_i (the
step-matrix form of Pryce, "Numerical Solution of Sturm-Liouville
Problems", 1993).  Only c = mu / sin^2 - lam depends on (mu, lam),
affinely, and T_i is exactly quadratic in the two together (monomials 1,
lam, lam^2, mu, mu lam, mu^2).  Its coefficients are memoized per
(dm2, grid) and collapse per mu to P0 + lam P1 + lam^2 P2 (:func:`_step_poly`),
which each shot evaluates by Horner's rule.
The shot runs through one tree (Blelloch, "Prefix sums and their
applications", 1990): its up-sweep of pairwise products gives the end state,
and a down-sweep of states gives the trajectory, O(n) products each.  Both
only reassociate the products of the plain RK4 loop ``_rk4_band`` in
``tests/test_backends.py``, the tests' reference, whose stage arithmetic
:func:`_step_entries` writes out entrywise.
A 1-D ``lam``, ``g0`` or ``gp0`` shoots lanes: step matrices of shape
(2, 2, lanes, steps) from the same quadratics run through the same tree, up
to :data:`_LANES` lanes per tree (a cap on the temporaries one tree holds),
so each lane is bit-identical to its scalar shot and a lane costs far less
than a call.  Start-state lanes at one lam share one (2, 2, 1, steps) tree,
whose up-sweep is built once.
An overflow or NaN inside a shot raises :class:`NonFiniteResult` instead of
printing a numpy warning.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import finite

# Memoized step-matrix quadratics, each memo this size.  Shots on one
# (dm2, mu, grid) come in a run (one spec's shot eigenfunctions, or a boundary
# mode's two solutions), so a larger memo of the per-mu collapse barely raises the
# hit share.  The lam and mu parts are kept per (dm2, grid); one part, or one
# collapse, on a 2049-point half band holds about 0.2 MB.
_MEMO_SIZE = 2

# Lanes per step tree.  A lane costs far less than a call, and the cost per
# lane still falls a little past 8 (the lanes table of
# ``benchmarks/kernel_bench.py``), but one tree's temporaries grow with its
# lanes and bound the peak RSS: 1.75 MiB at 8 lanes, 3.5 MiB at 16, for a
# 2,049-point trajectory.
_LANES = 8


def _lo_mid_hi(f, thetas, h):
    """``f`` at each step's lo, mid and hi points (h: the step widths)."""
    node = f(thetas)
    return node[:-1], f(thetas[:-1] + 0.5 * h), node[1:]


def _step_entries(dm2, mu, lam, thetas):
    """RK4 step matrices T_i (y_{i+1} = T_i y_i) as four entry arrays.

    The system matrix is A(t) = [[0, 1], [c(t), e(t)]] with
    c = mu / sin^2 t - lam and e = -dm2 cot t; the stages are
    k1 = A_lo, k2 = A_mid (I + h/2 k1), k3 = A_mid (I + h/2 k2),
    k4 = A_hi (I + h k3) and T = I + h/6 (k1 + 2 k2 + 2 k3 + k4), written
    out entry by entry.
    """
    h = np.diff(thetas)
    c_lo, c_m, c_hi = _lo_mid_hi(lambda t: mu / np.sin(t) ** 2 - lam, thetas, h)
    e_lo, e_m, e_hi = _lo_mid_hi(lambda t: -dm2 / np.tan(t), thetas, h)

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


# The lam and mu parts below are the stage products of _step_entries
# expanded symbolically (not a fit), written with x, u, z = h e and
# a, b, c = h^2 / sin^2 at each step's lo, mid and hi points.

@functools.lru_cache(maxsize=_MEMO_SIZE)
def _lam_part(dm2, grid):
    """Coefficients of 1, lam and lam^2 in the step matrices at mu = 0.

    ``grid`` is the theta array's bytes.  Returns a read-only array of shape
    (3, 2, 2, steps).
    """
    thetas = np.frombuffer(grid)
    h = np.diff(thetas)
    x, u, z = (h * e for e in _lo_mid_hi(lambda t: -dm2 / np.tan(t), thetas, h))
    h2 = h * h
    w = u * (u + 2.0) + 4.0
    v = u * (u + 4.0) + 12.0
    xz = x + z
    out = np.empty((3, 2, 2, h.size))
    out[0, 0, 0] = 1.0
    out[0, 0, 1] = h * (x * w + 2.0 * v) / 24.0
    out[0, 1, 0] = 0.0
    out[0, 1, 1] = 1.0 + (x * z * u * u + 2.0 * xz * (w - 2.0) + 4.0 * u * (u + 4.0)) / 24.0
    out[1, 0, 0] = -h2 * v / 24.0
    out[1, 0, 1] = -h2 * h * (x + u + 4.0) / 24.0
    out[1, 1, 0] = -h * (z * w + 2.0 * v) / 24.0
    out[1, 1, 1] = -h2 * (x * z + xz * (u + 2.0) + 4.0 * u + 12.0) / 24.0
    out[2, 0, 0] = out[2, 1, 1] = h2 * h2 / 24.0
    out[2, 0, 1] = 0.0
    out[2, 1, 0] = h2 * h * (z + u + 4.0) / 24.0
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _mu_part(dm2, grid):
    """Coefficients of mu, mu lam and mu^2 in the step matrices.

    Returns a read-only array of shape (3, 2, 2, steps).
    """
    thetas = np.frombuffer(grid)
    h = np.diff(thetas)
    h2 = h * h
    x, u, z = (h * e for e in _lo_mid_hi(lambda t: -dm2 / np.tan(t), thetas, h))
    a, b, c = (h2 * s for s in _lo_mid_hi(lambda t: 1.0 / np.sin(t) ** 2, thetas, h))
    out = np.empty((3, 2, 2, h.size))
    out[0, 0, 0] = (a * u * (u + 2.0) + 2.0 * b * (u + 4.0) + 4.0 * a) / 24.0
    out[0, 0, 1] = h * b * (x + u + 4.0) / 24.0
    out[0, 1, 0] = (a * (u * (z * u + 2.0 * u + 4.0) + 4.0)
                    + b * (2.0 * u * (z + 2.0) + 4.0 * z + 16.0) + 4.0 * c) / (24.0 * h)
    out[0, 1, 1] = (b * (z * (x + u) + 2.0 * (x + u + z) + 8.0)
                    + c * (x * u + 2.0 * u + 4.0)) / 24.0
    out[1, 0, 0] = -h2 * (a + b) / 24.0
    out[1, 0, 1] = 0.0
    out[1, 1, 0] = -h * (z * (a + b) + u * (a + c) + 2.0 * (a + c + 2.0 * b)) / 24.0
    out[1, 1, 1] = -h2 * (b + c) / 24.0
    out[2, 0, 0] = a * b / 24.0
    out[2, 0, 1] = 0.0
    out[2, 1, 0] = (a * (z * b + u * c) + 2.0 * b * (a + c)) / (24.0 * h)
    out[2, 1, 1] = b * c / 24.0
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _step_poly(dm2, mu, grid):
    """Step matrices at ``mu`` as quadratics in lam: T = P0 + lam P1 + lam^2 P2.

    c = mu / sin^2 - lam is affine in (mu, lam) and its part of A is
    c N with N = [[0, 0], [1, 0]] and N @ N = 0, so in the stage products (at
    most four factors A) only non-adjacent pairs of N survive: T is a joint
    quadratic in (mu, lam).  Its lam part (:func:`_lam_part`) and mu part
    (:func:`_mu_part`) are built once per (dm2, grid), the mu part only on
    the first shot at mu != 0; here they collapse to P0, P1, P2 at one mu.
    """
    p0, p1, p2 = _lam_part(dm2, grid)
    if mu == 0.0:
        return p0, p1, p2
    q1, q_lam, q2 = _mu_part(dm2, grid)
    p0 = p0 + mu * (q1 + mu * q2)
    p1 = p1 + mu * q_lam
    p0.flags.writeable = p1.flags.writeable = False
    return p0, p1, p2


def _steps(dm2, mu, lam, thetas):
    """Step matrices at (mu, lam) by Horner's rule on the memoized quadratics.

    A 1-D ``lam`` puts a lane axis before the steps: (2, 2, lanes, steps).
    """
    p0, p1, p2 = _step_poly(dm2, mu, thetas.tobytes())
    if isinstance(lam, np.ndarray):
        p0, p1, p2 = p0[:, :, None], p1[:, :, None], p2[:, :, None]
        lam = lam[:, None]
    # p0 + lam (p1 + lam p2), in place in one array
    t = lam * p2
    t += p1
    t *= lam
    t += p0
    return t


def _up_sweep(t):
    """Tree of step products: level 0 is ``t`` (shape (2, 2, [lanes,] steps)).

    Each level holds the pairwise products T_{2j+1} @ T_{2j} of the one below
    (an unpaired last matrix moves up unchanged); the last level is the single
    product of all steps.
    """
    levels = [t]
    while t.shape[-1] > 1:
        m = t.shape[-1]
        # T_{2j+1} @ T_{2j}: numpy's einsum would not report an overflow
        up = (t[:, :, None, ..., 1::2] * t[None, ..., 0:m - 1:2]).sum(axis=1)
        if m % 2:
            up = np.concatenate([up, t[..., -1:]], axis=-1)
        levels.append(up)
        t = up
    return levels


def _end_state(levels, g0, gp0):
    """State after all steps: the tree's root applied to (g0, gp0)."""
    if not levels[-1].shape[-1]:
        return g0, gp0
    (r00, r01), (r10, r11) = levels[-1][..., 0]
    return r00 * g0 + r01 * gp0, r10 * g0 + r11 * gp0


def _rk4_trajectory(dm2, mu, lam, thetas, g0, gp0):
    """RK4 trajectory: the up-sweep, then a down-sweep of states.

    Going down a level, the first child of each pair starts where its parent
    starts and the second child starts at the first child's product applied
    to that state, so level s holds the state before steps 0, 2^s, 2*2^s, ...
    (an unpaired block starts there too), and level 0 the state before every
    step; the last point is the end state, the tree's root applied to the
    start state.
    """
    levels = _up_sweep(_steps(dm2, mu, lam, thetas))
    state = np.array([g0, gp0])[..., None]
    for t in reversed(levels[:-1]):
        m = t.shape[-1]
        below = np.empty(state.shape[:-1] + (m,))
        below[..., 0::2] = state
        below[..., 1::2] = (t[..., 0:m - 1:2] * state[..., :m // 2]).sum(axis=1)
        state = below
    m = levels[0].shape[-1]
    g = np.empty(state.shape[1:-1] + (m + 1,))
    gp = np.empty_like(g)
    g[..., :-1], gp[..., :-1] = state[..., :m]
    g[..., -1], gp[..., -1] = _end_state(levels, g0, gp0)
    return g, gp


def get_backend() -> str:
    """Always ``"numpy"``, the only implementation; kept for provenance records."""
    return "numpy"


def _is_lanes(v):
    return isinstance(v, np.ndarray) and v.ndim > 0


def _lane_shots(dm2, mu, lam, thetas, g0, gp0):
    """Lanes (a 1-D array lam, g0 or gp0) in chunks of at most _LANES; a scalar
    start state repeats per lane, and a scalar lam becomes one entry all lanes share."""
    lam, g0, gp0 = (np.asarray(v, dtype=np.float64) for v in (lam, g0, gp0))
    shapes = {v.shape for v in (lam, g0, gp0) if v.ndim}
    if len(shapes) > 1 or len(shape := min(shapes)) > 1 or not shape[0]:
        raise ValueError("lanes need 1-D lam, g0 and gp0 of one nonzero length, got "
                         f"lam {lam.shape}, g0 {g0.shape}, gp0 {gp0.shape}")
    lanes = shape[0]
    lam = lam.reshape(-1)
    g0, gp0 = (v if v.ndim else np.full(lanes, v) for v in (g0, gp0))
    chunks = [_rk4_trajectory(dm2, mu, lam if lam.size == 1 else lam[i:i + _LANES], thetas,
                              g0[i:i + _LANES], gp0[i:i + _LANES])
              for i in range(0, lanes, _LANES)]
    return tuple(np.concatenate(part) for part in zip(*chunks))


def propagate_band(dm2: float, mu: float, lam, thetas: np.ndarray, g0, gp0):
    """Integrate the band ODE along ``thetas``; (g, g') at every grid point.

    Scalar arguments give arrays of shape (points,).  A 1-D ``lam``, ``g0``
    or ``gp0`` gives one lane per entry, shape (lanes, points), each lane
    bit-identical to its scalar shot; 1-D arguments of different lengths, a
    2-D one or an empty one raise ``ValueError``.  An overflow or NaN raises
    :class:`NonFiniteResult`.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    with finite("non-finite band shot at mu={mu}, lam={lam}", mu=mu, lam=lam):
        if _is_lanes(lam) or _is_lanes(g0) or _is_lanes(gp0):
            return _lane_shots(float(dm2), float(mu), lam, thetas, g0, gp0)
        return _rk4_trajectory(float(dm2), float(mu), float(lam), thetas,
                               float(g0), float(gp0))
