"""Boundary Robin (Steklov-shifted) spectrum of the link.

For each sphere mode mu the separated harmonic equation on the band,
(sin^{d-2} q')' - mu sin^{d-4} q = 0, has a 2-dimensional solution space
spanned by the even and odd fundamental solutions about pi/2.  Each yields
one boundary eigenvalue through the endpoint relation

    d_nu q + H q = ell * q        (nu the inward conormal),

so ell = H - q'(b)/q(b) at the right endpoint.  Modes are enumerated in
descending ell (the spectrum accumulates only at -infinity) and the
resonance set collects |ell| <= RES_TOL: those are traces of the translation
Jacobi fields and vanish structurally.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import RES_TOL
from .errors import DegenerateBasis, InputError, NonConvergent
from .kernels import propagate_band
from .profile import ConeProfile, band_grid, mirror_half
from .sl import _fv_robin
from .spheremodes import SphereMode

_ELL_CAP = 200
_WRONSKIAN_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class BoundaryMode:
    k: int
    ell: int
    parity: str  # 'even' | 'odd'
    ell_k: float
    mu: float
    multiplicity: int
    psi: np.ndarray
    psi_prime: np.ndarray
    grid: np.ndarray

    @property
    def in_resonance(self) -> bool:
        return abs(self.ell_k) <= RES_TOL


def sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere."""
    return 2.0 * math.pi ** (0.5 * (m + 1)) / math.gamma(0.5 * (m + 1))


# (dim, half-width, grid points, mu) -> the right half band's (qe, qe', qo, qo'),
# read-only; past _PAIR_BUDGET samples the oldest pairs are dropped
_PAIR_BUDGET = 1 << 18  # 2 MB: 31 pairs at the default grid
_pairs: dict = {}


def _half_pair(p: ConeProfile, mu: float):
    """Even/odd fundamental solutions (q, q') on the right half band of p,
    memoized in :data:`_pairs` when p's grid is its band grid (another grid is
    not named by the key).  A pair past the budget, or a raising shot, is not kept."""
    key = p.dim, p.theta0, p.grid.size, mu
    memo = band_grid(p.theta0, p.grid.size - 1) is p.grid
    if memo and key in _pairs:
        return _pairs[key]
    right = p.grid[p.grid.size // 2:]
    # two start-state lanes, (1, 0) and (0, 1), over one step tree
    (qe, qo), (qpe, qpo) = propagate_band(p.dim - 2, mu, 0.0, right,
                                          np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # the Wronskian is 1; its two products grow with mu, and their rounding
    # with them, so the defect is measured against their size
    w_b = math.sin(p.grid[-1]) ** (p.dim - 2)
    prods = qe[-1] * qpo[-1], qpe[-1] * qo[-1]
    wr = w_b * (prods[0] - prods[1])
    if abs(wr - 1.0) > _WRONSKIAN_TOL * w_b * (abs(prods[0]) + abs(prods[1])):
        raise DegenerateBasis(
            f"fundamental solutions at mu={mu} lost independence "
            f"(Wronskian defect {abs(wr - 1.0):.2e})")
    half = qe, qpe, qo, qpo
    for a in half:
        a.flags.writeable = False
    if memo and 4 * right.size <= _PAIR_BUDGET:
        _pairs[key] = half
        while sum(4 * v[0].size for v in _pairs.values()) > _PAIR_BUDGET:
            del _pairs[next(iter(_pairs))]
    return half


def _harmonic_pair(p: ConeProfile, mu: float):
    """Even/odd fundamental solutions of the separated harmonic equation,
    mirrored onto the full band grid of p (:func:`_half_pair`)."""
    qe, qpe, qo, qpo = _half_pair(p, mu)
    return (mirror_half(qe, qpe, even=True, left=False),
            mirror_half(qo, qpo, even=False, left=False))


def _endpoint_ell(p, q, qp):
    if abs(q[-1]) < 1e-12 * float(np.max(np.abs(q))):
        raise DegenerateBasis("harmonic extension vanishes at the band endpoint")
    return p.H - qp[-1] / q[-1]


def boundary_modes(p: ConeProfile, count: int) -> list[BoundaryMode]:
    """First ``count`` boundary modes, sorted by descending ell_k.

    The trace normalization uses the boundary measure of the two latitude
    spheres: ||psi||^2 = cos^{d-2}(theta0) |S^{d-2}| (psi(a)^2 + psi(b)^2).
    The harmonic pair of each sphere degree is shot once per (band, mu) and
    kept on the right half band (:func:`_half_pair`); every call mirrors and
    normalizes its own modes.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if count > 2 * _ELL_CAP:
        raise InputError(f"count must be <= {2 * _ELL_CAP}, got {count}: boundary modes "
                         f"are enumerated up to sphere degree {_ELL_CAP}")
    d = p.dim
    trace_w = math.cos(p.theta0) ** (d - 2) * sphere_area(d - 2)
    found = []
    for ell in range(_ELL_CAP + 1):  # sphere degrees, taken only as far as needed
        mode = SphereMode.of(d, ell)
        (qe, qpe), (qo, qpo) = _harmonic_pair(p, mode.mu)
        pair_ells = []
        for parity, q, qp in (("even", qe, qpe), ("odd", qo, qpo)):
            ell_k = _endpoint_ell(p, q, qp)
            scale = math.sqrt(trace_w * (q[0] ** 2 + q[-1] ** 2))
            sign = 1.0 if q[-1] > 0 else -1.0
            found.append(BoundaryMode(
                k=0, ell=ell, parity=parity, ell_k=float(ell_k),
                mu=mode.mu, multiplicity=mode.multiplicity,
                psi=sign * q / scale, psi_prime=sign * qp / scale,
                grid=p.grid))
            pair_ells.append(ell_k)
        if len(found) >= count:
            kth = sorted((m.ell_k for m in found), reverse=True)[count - 1]
            if max(pair_ells) < kth:
                break
        if ell >= _ELL_CAP:
            raise NonConvergent("boundary-mode enumeration exceeded the sphere-mode cap")
    found.sort(key=lambda m: (-m.ell_k, m.ell, m.parity))
    return [dataclasses.replace(m, k=i + 1) for i, m in enumerate(found[:count])]


def _steklov_fd_once(p: ConeProfile, mu: float, n: int):
    """Schur-complement discretization of the boundary eigenproblem.

    Eliminating interior unknowns of the finite-volume operator K + mu*S -
    H*E (the one :func:`conespec.sl.eigen_fd_crosscheck` uses) gives a 2x2
    boundary pencil S2 u = -ell * diag(w_a, w_b) u; band symmetry splits its
    eigenvectors into (1,1) and (1,-1).
    """
    from scipy.linalg import solveh_banded  # oracle only: keeps scipy off the solver path

    diag, off, w, _ = _fv_robin(p.dim, p.theta0, mu, n)
    ab = np.zeros((2, n - 1))
    ab[0] = diag[1:-1]
    ab[1, :-1] = off[1:-1]
    rhs = np.zeros((n - 1, 2))
    rhs[0, 0] = off[0]
    rhs[-1, 1] = off[-1]
    x = solveh_banded(ab, rhs, lower=True)
    s00 = diag[0] - off[0] * x[0, 0]
    s01 = -off[0] * x[0, 1]
    ell_even = -(s00 + s01) / w[0]
    ell_odd = -(s00 - s01) / w[0]
    return ell_even, ell_odd


def steklov_fd_crosscheck(p: ConeProfile, mu: float) -> tuple[float, float]:
    """Independent finite-difference boundary eigenvalues (even, odd) at mu.

    The values on n = grid.size - 1 and 2n cells are Richardson extrapolated.
    """
    n = p.grid.size - 1
    e1, o1 = _steklov_fd_once(p, mu, n)
    e2, o2 = _steklov_fd_once(p, mu, 2 * n)
    return (4 * e2 - e1) / 3, (4 * o2 - o1) / 3
