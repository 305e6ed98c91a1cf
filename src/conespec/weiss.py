"""Weiss-type monotonicity functional for axisymmetric one-phase fields.

Fields are finite sums u = sum_c rho_c(r) q_c(theta) supported on a polar
band; the functional is

    W(u, r) = r^{-d} int_{B_r} (|grad u|^2 + chi) - r^{-d-1} int_{dB_r} u^2,

with chi the indicator of the (conical) support.  All angular pairings
reduce to Gram matrices in the weight sin^{d-2}(theta); radial integrals
use composite Boole quadrature on a uniform grid, with a coarsened re-run
guarding against unresolved integrands.

For the blow-up cone itself W is constant in r and equals the link measure
over d; the derivative identity

    dW/dr = 2 r^{-d-2} int_{dB_r} (x . grad u - u)^2
            - 2 r^{-d-1} int_{B_r} (x . grad u - u) Lap u

is exposed for verification, the first term being the homogeneity deficit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from ._quad import simpson
from .boundary import sphere_area
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import GridTooCoarse, MissingCoefficient, NonFiniteResult, NumericalError
from .linkspec import LinkSpectrum
from .profile import ConeProfile
from .sl import SLSpec, band_spec, eigen_k, eigenvalue

_N_RADIAL = 513     # Boole-compatible (4k+1) radial point count
_RICHARDSON = 15.0  # halving gain assumed when estimating quadrature error
_BLOCK = 16         # radii per batch: 16 x 512 samples keeps peak memory flat
_N_HALFPLANE = 1025  # theta samples of the half-plane field on [0, pi/2]


@dataclasses.dataclass(frozen=True, eq=False)
class Component:
    """One separable term rho(r) * q(theta); derivatives optional (finite
    differences of the callables are used when omitted)."""

    rho: Callable
    q: np.ndarray
    drho: Callable | None = None
    d2rho: Callable | None = None
    q_prime: np.ndarray | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class AxisymField:
    dim: int
    theta: np.ndarray
    components: tuple[Component, ...]
    r_max: float = math.inf

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("dimension must be >= 3")
        th = self.theta
        if th[0] < -1e-14 or th[-1] > math.pi + 1e-14 or np.any(np.diff(th) <= 0):
            raise ValueError("theta grid must increase within [0, pi]")
        for c in self.components:
            if c.q.shape != th.shape:
                raise ValueError("component samples must live on the field grid")
        q0 = self.components[0].q
        if np.min(q0) < -1e-12 * np.max(np.abs(q0)):
            raise ValueError("primary angular profile must be nonnegative")

    @property
    def support(self) -> tuple[float, float]:
        return float(self.theta[0]), float(self.theta[-1])

    def rescaled(self, s: float) -> "AxisymField":
        """The blow-up rescaling u_s(x) = u(s x)/s."""
        comps = []
        for c in self.components:
            rho, drho, d2rho = c.rho, c.drho, c.d2rho
            comps.append(Component(
                rho=(lambda r, _f=rho, _s=s: _f(_s * np.asarray(r, float)) / _s),
                q=c.q,
                drho=None if drho is None else
                     (lambda r, _f=drho, _s=s: _f(_s * np.asarray(r, float))),
                d2rho=None if d2rho is None else
                      (lambda r, _f=d2rho, _s=s: _s * _f(_s * np.asarray(r, float))),
                q_prime=c.q_prime))
        return AxisymField(self.dim, self.theta, tuple(comps), self.r_max / s)


def _five_point(f: Callable, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Fourth-order central difference of f at every x with steps h.  f is
    called once, on all stencil points in the order -2h, -h, +h, +2h."""
    pts = x[:, None] + np.array([-2.0, -1.0, 1.0, 2.0]) * h[:, None]
    v = f(pts.ravel()).reshape(-1, 4)
    return (v[:, 0] - 8 * v[:, 1] + 8 * v[:, 2] - v[:, 3]) / (12 * h)


def _fd1(f: Callable) -> Callable:
    return lambda r: _five_point(f, r, 1e-4 * np.maximum(r, 1e-8))


@functools.lru_cache(maxsize=32)
def _grams(u: AxisymField):
    """Angular Gram matrices in the band weight, plus the support measure."""
    th = u.theta
    w = np.sin(th) ** (u.dim - 2)
    qs = [c.q for c in u.components]
    qps = [c.q_prime if c.q_prime is not None else np.gradient(c.q, th, edge_order=2)
           for c in u.components]
    m = len(qs)
    gq = np.empty((m, m))
    gqp = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            gq[i, j] = simpson(qs[i] * qs[j] * w, x=th)
            gqp[i, j] = simpson(qps[i] * qps[j] * w, x=th)
    sw = float(simpson(w, x=th))
    return gq, gqp, sw


def _boole_weights(n: int) -> np.ndarray:
    """Composite Boole weights for n = 4k+1 points on [0, 1], without the
    s = 0 node: every radial integrand here is taken as zero there."""
    wts = np.tile([32.0, 12.0, 32.0, 14.0], (n - 1) // 4)
    wts[-1] = 7.0
    return (2.0 / (45.0 * (n - 1))) * wts


# Radial integrals over [0, r] sample s = r * _T.  The halved grid of the
# Richardson check is every second node, so it reuses the same samples.
_T = np.linspace(0.0, 1.0, _N_RADIAL)[1:]
_BOOLE = _boole_weights(_N_RADIAL)
_BOOLE_HALF = _boole_weights((_N_RADIAL - 1) // 2 + 1)


def _rho_matrices(u: AxisymField, s: np.ndarray, order: int = 1):
    rr = np.empty((len(u.components), s.size))
    rp = np.empty_like(rr)
    rpp = np.empty_like(rr) if order >= 2 else None
    for i, c in enumerate(u.components):
        drho = c.drho if c.drho is not None else _fd1(c.rho)
        rr[i] = c.rho(s)
        rp[i] = drho(s)
        if order >= 2:
            rpp[i] = (c.d2rho if c.d2rho is not None else _fd1(drho))(s)
    return rr, rp, rpp


def _weiss_values(u: AxisymField, radii: np.ndarray,
                  cfg: SolverConfig) -> np.ndarray:
    """W(u, r) for every radius, _BLOCK radii per evaluation of the rho
    callables.  Radii are taken in order: the first one outside (0, r_max]
    raises ValueError, the first whose Richardson error estimate from the
    halved grid exceeds quad_tol * max(1, |W|) raises GridTooCoarse."""
    d = u.dim
    gq, gqp, sw = _grams(u)
    sd2 = sphere_area(d - 2)
    bad = np.flatnonzero(~((radii > 0) & (radii <= u.r_max)))
    n_ok = int(bad[0]) if bad.size else radii.size
    out = np.empty(n_ok)
    for lo in range(0, n_ok, _BLOCK):
        r = radii[lo:min(lo + _BLOCK, n_ok)]
        s = (r[:, None] * _T).ravel()
        rr, rp, _ = _rho_matrices(u, s)
        y = (np.einsum("is,ij,js->s", rp, gq, rp) * s ** (d - 1)
             + np.einsum("is,ij,js->s", rr, gqp, rr) * s ** (d - 3)).reshape(r.size, -1)
        full = r * (y @ _BOOLE)
        half = r * (y[:, 1::2] @ _BOOLE_HALF)
        end = rr[:, _T.size - 1::_T.size]  # rho(r), the t = 1 samples
        bnd = np.einsum("is,ij,js->s", end, gq, end)
        w_val = sd2 * (full / r ** d + sw / d - bnd / r ** 2)
        est = sd2 * np.abs(full - half) / (_RICHARDSON * r ** d)
        coarse = np.flatnonzero(est > cfg.quad_tol * np.fmax(1.0, np.abs(w_val)))
        if coarse.size:
            i = coarse[0]
            raise GridTooCoarse(
                f"radial quadrature unresolved at r={r[i]:g} (estimate {est[i]:.2e})")
        out[lo:lo + r.size] = w_val
    if bad.size:
        raise ValueError("radius must lie in (0, r_max of the field]")
    return out


def weiss(u: AxisymField, r: float, d: int,
          cfg: SolverConfig | None = None) -> float:
    """Evaluate W(u, r); raises GridTooCoarse when the Richardson error
    estimate from a halved radial grid exceeds quad_tol * |W|."""
    cfg = cfg or DEFAULT_CONFIG
    if d != u.dim:
        raise ValueError(f"dimension argument {d} != field dimension {u.dim}")
    return float(_weiss_values(u, np.array([r], dtype=float), cfg)[0])


def _deficit(u: AxisymField, radii: np.ndarray) -> np.ndarray:
    """2 r^{-d-2} int_{dB_r} (x . grad u - u)^2, the homogeneity defect."""
    gq, _, _ = _grams(u)
    rr, rp, _ = _rho_matrices(u, radii)
    c = radii * rp - rr
    return 2.0 * sphere_area(u.dim - 2) * np.einsum("is,ij,js->s", c, gq, c) / radii ** 3


def _harmonic_correction(u: AxisymField, r: float) -> float:
    """-2 r^{-d-1} int_{B_r} (x . grad u - u) Lap u  (vanishes when u is
    harmonic on its support, e.g. for the cone solution itself)."""
    d = u.dim
    gq, gqp, _ = _grams(u)
    s = r * _T
    rr, rp, rpp = _rho_matrices(u, s, order=2)
    e = s * rp - rr
    radial = np.einsum("is,ij,js->s", e, gq, rpp + (d - 1) * rp / s)
    angular = -np.einsum("is,ij,js->s", e, gqp, rr)
    y = radial * s ** (d - 1) + angular * s ** (d - 3)
    return -2.0 * sphere_area(d - 2) * r * float(_BOOLE @ y) / r ** (d + 1)


def weiss_derivative_check(u: AxisymField, r: float,
                           cfg: SolverConfig | None = None):
    """Compare dW/dr (numerical) against deficit + harmonicity correction.

    Returns (lhs, rhs, gap).  For fields harmonic on their support the
    correction vanishes and rhs reduces to the nonnegative deficit.
    """
    cfg = cfg or DEFAULT_CONFIG
    rs = np.array([r], dtype=float)
    lhs = float(_five_point(lambda s: _weiss_values(u, s, cfg), rs, 1e-3 * rs)[0])
    rhs = float(_deficit(u, rs)[0]) + _harmonic_correction(u, r)
    return lhs, rhs, abs(lhs - rhs)


@dataclasses.dataclass(frozen=True)
class WeissReport:
    r_values: np.ndarray
    W: np.ndarray
    dW_lhs: np.ndarray   # numerical dW/dr (5-point, step 1e-3 r)
    dW_rhs: np.ndarray   # deficit term only
    kappa0: float

    def to_dict(self) -> dict:
        return {"r_values": self.r_values.tolist(), "W": self.W.tolist(),
                "dW_lhs": self.dW_lhs.tolist(), "dW_rhs": self.dW_rhs.tolist(),
                "kappa0": self.kappa0}


def weiss_report(u: AxisymField, radii,
                 cfg: SolverConfig | None = None) -> WeissReport:
    """W, its numerical derivative and the deficit term at each radius.

    Raises NonFiniteResult when any of them overflows or turns NaN.
    """
    cfg = cfg or DEFAULT_CONFIG
    radii = np.asarray(radii, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            w_vals = _weiss_values(u, radii, cfg)
            lhs = _five_point(lambda s: _weiss_values(u, s, cfg), radii, 1e-3 * radii)
            rhs = _deficit(u, radii)
    except FloatingPointError as exc:
        raise NonFiniteResult(f"non-finite Weiss energy: {exc}") from None
    gq, _, _ = _grams(u)
    kappa0 = math.sqrt(sphere_area(u.dim - 2) * gq[0, 0])
    return WeissReport(radii, w_vals, lhs, rhs, kappa0)


def _power_component(q: np.ndarray, q_prime: np.ndarray, e: float,
                     amp: float = 1.0) -> Component:
    """amp * r^e * q(theta), with its analytic radial derivatives."""
    return Component(
        rho=lambda r: amp * np.asarray(r, dtype=float) ** e,
        q=q,
        drho=lambda r: amp * e * np.asarray(r, dtype=float) ** (e - 1),
        d2rho=lambda r: amp * e * (e - 1) * np.asarray(r, dtype=float) ** (e - 2),
        q_prime=q_prime)


def cone_field(p: ConeProfile) -> AxisymField:
    """The blow-up solution U = r g(theta) itself."""
    return AxisymField(p.dim, p.grid, (_power_component(p.g, p.g_prime, 1.0),))


def halfplane_field(d: int) -> AxisymField:
    """The flat one-phase solution (x . e)_+ in polar-band form."""
    th = np.linspace(0.0, math.pi / 2, _N_HALFPLANE)
    return AxisymField(d, th, (_power_component(np.cos(th), -np.sin(th), 1.0),))


def power_field(p: ConeProfile, exponent: float) -> AxisymField:
    """g(theta) carried by the radial power r^exponent (homogeneity probe)."""
    comp = _power_component(p.g, p.g_prime, float(exponent))
    return AxisymField(p.dim, p.grid, (comp,))


def perturbed_field(p: ConeProfile, eps: float, exponent: float, k: int = 1,
                    cfg: SolverConfig | None = None) -> AxisymField:
    """U plus eps * r^exponent times the k-th interior Robin band mode."""
    cfg = cfg or DEFAULT_CONFIG
    pair = eigen_k(band_spec(p, 0.0, "robin"), k, cfg)
    bump = _power_component(pair.fn, pair.fn_prime, float(exponent), eps)
    return AxisymField(p.dim, p.grid, (cone_field(p).components[0], bump))


def link_measure_identity(p: ConeProfile,
                          cfg: SolverConfig | None = None):
    """W(U, 1) against H^{d-1}(link)/d; returns (W1, measure_over_d, gap)."""
    if p.theta0 >= math.pi / 2:
        raise ValueError("band half-width must stay below pi/2")
    cfg = cfg or DEFAULT_CONFIG
    w1 = weiss(cone_field(p), 1.0, p.dim, cfg)
    w = np.sin(p.grid) ** (p.dim - 2)
    measure = sphere_area(p.dim - 2) * float(simpson(w, x=p.grid))
    ref = measure / p.dim
    return w1, ref, abs(w1 - ref) / abs(ref)


def F_functional(band_halfwidth: float, p: ConeProfile, d: int,
                 cfg: SolverConfig | None = None) -> float:
    """Aperture functional whose stationary point is the solution band:

        F(theta) = (kappa0^2 (lam1_D(theta) - (d-1)) + H^{d-1}(Sigma_theta)) / d,

    with kappa0 the L^2(S^{d-1}) norm of the reference profile, lam1_D the
    first Dirichlet band eigenvalue at half-width theta, and Sigma_theta the
    two lateral cone sheets in the unit ball.
    """
    cfg = cfg or DEFAULT_CONFIG
    if d != p.dim:
        raise ValueError(f"dimension argument {d} != profile dimension {p.dim}")
    th = float(band_halfwidth)
    if not 0 < th < math.pi / 2:
        raise ValueError("band half-width must lie in (0, pi/2)")
    sd2 = sphere_area(d - 2)
    w = np.sin(p.grid) ** (d - 2)
    kappa0_sq = sd2 * float(simpson(p.g ** 2 * w, x=p.grid))
    spec = SLSpec(dim=d, band=(math.pi / 2 - th, math.pi / 2 + th), mu=0.0,
                  bc="dirichlet", grid_n=p.grid.size - 1)
    lam1 = eigenvalue(spec, 1, cfg)
    thg = np.linspace(math.pi / 2 - th, math.pi / 2 + th, p.grid.size)
    area = sd2 * float(simpson(np.sin(thg) ** (d - 2), x=thg))
    return (kappa0_sq * (lam1 - (d - 1)) + area) / d


def foliation_leading_term(p: ConeProfile, link: LinkSpectrum, side: str,
                           t: float | None, x,
                           cfg: SolverConfig | None = None) -> np.ndarray:
    """Leading asymptotics U(x) +/- t r^gamma phi_1(theta) of the foliating
    sub/supersolutions, gamma = -(d-2)/2 + sqrt(((d-2)/2)^2 + lam_1).

    ``x`` holds (r, theta) pairs in its last axis; outside the band the
    profile and its perturbation both vanish.
    """
    cfg = cfg or DEFAULT_CONFIG
    if t is None:
        raise MissingCoefficient("foliation requires the leading coefficient t")
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    d = p.dim
    rad = ((d - 2) / 2) ** 2 + link.lambda1
    if rad <= 0:
        raise NumericalError("first interior eigenvalue below the stability floor")
    gamma = -(d - 2) / 2 + math.sqrt(rad)
    pair = eigen_k(band_spec(p, 0.0, "robin"), 1, cfg)
    phi = pair.fn
    w = np.sin(p.grid) ** (d - 2)
    if simpson(phi * w, x=p.grid) < 0:
        phi = -phi
    x = np.asarray(x, dtype=float)
    r, th = x[..., 0], x[..., 1]
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    sgn = 1.0 if side == "upper" else -1.0
    u0 = r * np.interp(th, p.grid, p.g, left=0.0, right=0.0)
    bump = np.interp(th, p.grid, phi, left=0.0, right=0.0)
    return u0 + sgn * t * r ** gamma * bump
