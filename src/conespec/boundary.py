"""Boundary Robin (Steklov-shifted) spectrum of the link.

For each sphere mode mu the separated harmonic equation on the band,
(sin^{d-2} q')' - mu sin^{d-4} q = 0, has a 2-dimensional solution space
spanned by the even and odd fundamental solutions about pi/2.  Each yields
one boundary eigenvalue through the endpoint relation

    d_nu q + H q = ell * q        (nu the inward conormal),

so ell = H - q'(b)/q(b) at the right endpoint.  Modes are enumerated in
descending ell (the spectrum accumulates only at -infinity) and the
resonance set collects |ell| <= res_tol: those are traces of the translation
Jacobi fields and vanish structurally.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import DegenerateBasis, NonConvergent
from .kernels import propagate_band
from .profile import ConeProfile
from .sl import _fv_robin
from .spheremodes import modes_up_to

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
    in_resonance: bool


def sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere."""
    return 2.0 * math.pi ** (0.5 * (m + 1)) / math.gamma(0.5 * (m + 1))


def _harmonic_pair(p: ConeProfile, mu: float):
    """Even/odd fundamental solutions of the separated harmonic equation,
    mirrored onto the full band grid of p."""
    n = p.grid.size
    half = (n - 1) // 2
    right = p.grid[half:]
    qe, qpe = propagate_band(p.dim - 2, mu, 0.0, right, 1.0, 0.0)
    qo, qpo = propagate_band(p.dim - 2, mu, 0.0, right, 0.0, 1.0)
    w_b = math.sin(p.grid[-1]) ** (p.dim - 2)
    wr = w_b * (qe[-1] * qpo[-1] - qpe[-1] * qo[-1])
    if abs(wr - 1.0) > _WRONSKIAN_TOL:
        raise DegenerateBasis(
            f"fundamental solutions at mu={mu} lost independence "
            f"(Wronskian defect {abs(wr - 1.0):.2e})")
    even = (np.concatenate([qe[-1:0:-1], qe]), np.concatenate([-qpe[-1:0:-1], qpe]))
    odd = (np.concatenate([-qo[-1:0:-1], qo]), np.concatenate([qpo[-1:0:-1], qpo]))
    return even, odd


def _endpoint_ell(p, q, qp):
    if abs(q[-1]) < 1e-12 * float(np.max(np.abs(q))):
        raise DegenerateBasis("harmonic extension vanishes at the band endpoint")
    return p.H - qp[-1] / q[-1]


def boundary_modes(p: ConeProfile, ell_max_count: int,
                   cfg: SolverConfig | None = None) -> list[BoundaryMode]:
    """First ``ell_max_count`` boundary modes, sorted by descending ell_k.

    The trace normalization uses the boundary measure of the two latitude
    spheres: ||psi||^2 = cos^{d-2}(theta0) |S^{d-2}| (psi(a)^2 + psi(b)^2).
    """
    cfg = cfg or DEFAULT_CONFIG
    if ell_max_count < 1:
        raise ValueError("ell_max_count must be >= 1")
    d = p.dim
    trace_w = math.cos(p.theta0) ** (d - 2) * sphere_area(d - 2)
    found = []
    for mode in modes_up_to(d, _ELL_CAP * (_ELL_CAP + d - 3)):
        (qe, qpe), (qo, qpo) = _harmonic_pair(p, float(mode.mu))
        pair_ells = []
        for parity, q, qp in (("even", qe, qpe), ("odd", qo, qpo)):
            ell_k = _endpoint_ell(p, q, qp)
            scale = math.sqrt(trace_w * (q[0] ** 2 + q[-1] ** 2))
            sign = 1.0 if q[-1] > 0 else -1.0
            found.append(BoundaryMode(
                k=0, ell=mode.ell, parity=parity, ell_k=float(ell_k),
                mu=float(mode.mu), multiplicity=mode.multiplicity,
                psi=sign * q / scale, psi_prime=sign * qp / scale,
                grid=p.grid, in_resonance=abs(ell_k) <= cfg.res_tol))
            pair_ells.append(ell_k)
        if len(found) >= ell_max_count:
            kth = sorted((m.ell_k for m in found), reverse=True)[ell_max_count - 1]
            if max(pair_ells) < kth:
                break
        if mode.ell >= _ELL_CAP:
            raise NonConvergent("boundary-mode enumeration exceeded the sphere-mode cap")
    found.sort(key=lambda m: (-m.ell_k, m.ell, m.parity))
    out = [dataclasses.replace(m, k=i + 1) for i, m in enumerate(found[:ell_max_count])]
    return out


def _steklov_fd_once(p: ConeProfile, mu: float, n: int):
    """Schur-complement discretization of the boundary eigenproblem.

    Eliminating interior unknowns of the finite-volume operator K + mu*S -
    H*E (the one :func:`conespec.sl.eigen_fd_crosscheck` uses) gives a 2x2
    boundary pencil S2 u = -ell * diag(w_a, w_b) u; band symmetry splits its
    eigenvectors into (1,1) and (1,-1).
    """
    from scipy.linalg import solveh_banded  # oracle only: keeps scipy off the solver path

    diag, off, w, _ = _fv_robin(p.dim, p.band, mu, p.H, n)
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


def steklov_fd_crosscheck(p: ConeProfile, mu: float, n: int | None = None,
                          richardson: bool = True) -> tuple[float, float]:
    """Independent finite-difference boundary eigenvalues (even, odd) at mu."""
    if n is None:
        n = p.grid.size - 1
    e1, o1 = _steklov_fd_once(p, mu, n)
    if not richardson:
        return e1, o1
    e2, o2 = _steklov_fd_once(p, mu, 2 * n)
    return (4 * e2 - e1) / 3, (4 * o2 - o1) / 3
