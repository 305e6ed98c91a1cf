"""Weiss-type monotonicity functional for axisymmetric one-phase fields.

Fields are finite sums u = sum_c rho_c(r) q_c(theta) supported on a polar
band; the functional is

    W(u, r) = r^{-d} int_{B_r} (|grad u|^2 + chi) - r^{-d-1} int_{dB_r} u^2,

with chi the indicator of the (conical) support.  All angular pairings
reduce to Gram matrices in the weight sin^{d-2}(theta); radial integrals
use composite Boole quadrature on a uniform grid of t = s/r in (0, 1], with
a coarsened re-run guarding against unresolved integrands.  The powers
s^{d-1} and s^{d-3} of the volume element split into r^d t^{d-1} and
r^{d-2} t^{d-3}: the t-powers sit in per-dimension weight tables and the
r-powers cancel against W's prefactor, so r^{-d} int_{B_r} is formed
directly: W is answered at any radius where the field's values and their
squares are finite, however far r^d under- or overflows.

For the blow-up cone itself W is constant in r and equals the link measure
over d; the derivative identity

    dW/dr = 2 r^{-d-2} int_{dB_r} (x . grad u - u)^2
            - 2 r^{-d-1} int_{B_r} (x . grad u - u) Lap u

is exposed for verification, the first term being the homogeneity deficit.
Its left side differentiates W's definition by the Leibniz rule, so one
quadrature pass over each radius gives W, dW/dr and the deficit together.
Every quadratic form rho^T G rho' is summed in one fixed order by _qform,
whatever the number of samples, and the Gram matrices of a call come from one
Simpson call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from ._quad import D1_WEIGHTS, _derivative, simpson
from .boundary import sphere_area
from .errors import GridTooCoarse, InputError, MissingCoefficient, NumericalError, finite
from .profile import ConeProfile
from .sl import SLSpec, band_measure, band_spec, eigen_k, eigenvalue

_N_RADIAL = 513     # Boole-compatible (4k+1) radial point count
_RICHARDSON = 15.0  # halving gain assumed when estimating quadrature error
# radii per evaluation of the rho callables: 16 x 512 samples keeps peak memory
# flat; the per-radius algebra after it runs once over all radii of a call
_BLOCK = 16
_N_HALFPLANE = 1025  # theta samples of the half-plane field on [0, pi/2]
# Error budget of the radial quadrature, relative to max(1, |W|), so absolute
# once |W| < 1.  W scales with |S^{d-2}| (W of the half-plane is 1.8e-9 at d = 40
# and 1.6e-18 at d = 60), so at large d GridTooCoarse never fires while the Boole
# rule's own error on int t^{d-1} (the w_A of _radial_weights sum off 1/d by
# 3.2e-10 of it at d = 40, 4.2e-9 at 60, 9.9e-8 at 100) is W's relative error:
# the half-plane reads exactly these at any _N_HALFPLANE from 1,025 to 8,193.
_QUAD_TOL = 1e-9
_UNIFORM_TOL = 1e-10  # relative spread of the theta steps that _derivative accepts
_FD1_TAPS = D1_WEIGHTS != 0.0  # the samples the central first derivative weighs


@dataclasses.dataclass(frozen=True, eq=False)
class Component:
    """One separable term rho(r) * q(theta); omitted derivatives are taken by
    fourth-order finite differences (of q on its uniform theta grid)."""

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
            raise InputError("dimension must be >= 3")
        th, step = self.theta, np.diff(self.theta)
        if th[0] < -1e-14 or th[-1] > math.pi + 1e-14 or np.any(step <= 0):
            raise InputError("theta grid must increase within [0, pi]")
        for c in self.components:
            if c.q.shape != th.shape:
                raise InputError("component samples must live on the field grid")
        if any(c.q_prime is None for c in self.components) and (
                th.size < 5 or np.ptp(step) > _UNIFORM_TOL * step.mean()):
            raise InputError("q_prime may be omitted only on a uniform theta grid of >= 5 points")
        q0 = self.components[0].q
        if np.min(q0) < -1e-12 * np.max(np.abs(q0)):
            raise InputError("primary angular profile must be nonnegative")

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


def _fd1(f: Callable) -> Callable:
    """Fourth-order central difference of f, step 1e-4 r; f is called once,
    on all stencil points in the order -2h, -h, +h, +2h."""
    def df(r: np.ndarray) -> np.ndarray:
        h = 1e-4 * r
        steps = np.arange(-2.0, 3.0)[_FD1_TAPS]
        v = f((r[:, None] + h[:, None] * steps).ravel()).reshape(r.size, -1)
        return v @ D1_WEIGHTS[_FD1_TAPS] / (12 * h)
    return df


def _grams(u: AxisymField):
    """Angular Gram matrices in the band weight, plus the support measure:
    (G_q, G_q', sw), computed once per public call.  One 2-D Simpson call takes
    a row per upper-triangle entry of each matrix and the row w; each row's
    value is its 1-D call's, and q_i q_j w is q_j q_i w bit for bit, so the
    matrices are exactly symmetric."""
    th = u.theta
    w = np.sin(th) ** (u.dim - 2)
    qs = np.array([c.q for c in u.components])
    h = (th[-1] - th[0]) / (th.size - 1)
    qps = np.array([c.q_prime if c.q_prime is not None else _derivative(c.q, h)
                    for c in u.components])
    i, j = np.triu_indices(len(qs))
    vals = simpson(np.concatenate((qs[i] * qs[j] * w, qps[i] * qps[j] * w, w[None])), x=th)
    gq, gqp = np.empty((2, len(qs), len(qs)))
    gq[i, j] = gq[j, i] = vals[:i.size]
    gqp[i, j] = gqp[j, i] = vals[i.size:-1]
    return gq, gqp, float(vals[-1])


def _qform(x: np.ndarray, g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i sum_j (x_i g_ij) y_j for each sample (column) of x and y, summed
    in i-major order whatever the sample count: the order of numpy's
    einsum("is,ij,js->s") for two or more samples."""
    n = len(g)
    out = x[0] * g[0, 0]
    out *= y[0]
    term = np.empty_like(out) if n > 1 else None
    for k in range(1, n * n):
        i, j = divmod(k, n)
        np.multiply(x[i], g[i, j], out=term)
        term *= y[j]
        out += term
    return out


def _boole_weights(n: int) -> np.ndarray:
    """Composite Boole weights for n = 4k+1 points on [0, 1], without the
    s = 0 node: every radial integrand here is taken as zero there."""
    wts = np.tile([32.0, 12.0, 32.0, 14.0], (n - 1) // 4)
    wts[-1] = 7.0
    return (2.0 / (45.0 * (n - 1))) * wts


# Radial integrals over [0, r] sample s = r * _T.  The halved grid of the
# Richardson check is every second node, so it reuses the same samples.  The
# plain Boole weights are only the base of _radial_weights, whose tables carry
# the t-powers of the volume element as well.
_T = np.linspace(0.0, 1.0, _N_RADIAL)[1:]
_BOOLE = _boole_weights(_N_RADIAL)
_BOOLE_HALF = _boole_weights((_N_RADIAL - 1) // 2 + 1)


@functools.lru_cache(maxsize=8)  # 12 KB per dimension
def _radial_weights(d: int) -> tuple[np.ndarray, ...]:
    """(w_A, w_B, w_A_half, w_B_half): the Boole weights times t^{d-1} and
    t^{d-3}, on the full grid _T and on its halved grid _T[1::2], read-only.

    With A = rho'^T G_q rho' and B = rho^T G_q' rho sampled at s = r t,
    r^{-d} int_0^r (A s^{d-1} + B s^{d-3}) ds = A @ w_A + (B @ w_B) / r^2."""
    tables = tuple(boole * t ** k for t, boole in ((_T, _BOOLE), (_T[1::2], _BOOLE_HALF))
                   for k in (d - 1, d - 3))
    for w in tables:
        w.flags.writeable = False
    return tables


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


def _weiss_values(u: AxisymField, radii: np.ndarray, grams) -> np.ndarray:
    """Rows W(u, r), dW/dr and the deficit for every radius.  With I the radial
    integral, y its integrand and b = rho^T G_q rho, W = |S^{d-2}| (r^{-d} I +
    sw/d - r^{-2} b) and the Leibniz rule gives dW/dr = |S^{d-2}| (-d r^{-d-1} I
    + r^{-d} y(r) + 2 r^{-3} b - 2 r^{-2} rho^T G_q rho'): t = 1 samples.
    r^{-d} I and r^{-d} y(r) come from _radial_weights, never from a power r^d.
    The rho callables are sampled _BLOCK radii at a time, each block keeping
    r^{-d} I on the full and the halved grid and its t = 1 samples; the rest is
    formed once over all radii.  The first radius outside (0, r_max] ends the
    radii taken and raises InputError; before it, the first whose Richardson
    error estimate from the halved grid exceeds _QUAD_TOL * max(1, |W|) raises
    GridTooCoarse, checked once every block is sampled, so an overflow in any
    block's samples raises first.  A, B, b, the cross term and the deficit
    are each a _qform, summed in the same order for any number of radii.
    ``grams`` is :func:`_grams` of u."""
    d = u.dim
    gq, gqp, sw = grams
    sd2 = sphere_area(d - 2)
    w_a, w_b, w_a_half, w_b_half = _radial_weights(d)
    bad = np.flatnonzero(~((radii > 0) & (radii <= u.r_max)))
    r = radii[:int(bad[0]) if bad.size else radii.size]
    r2 = r * r
    full, half, y_end = np.empty((3, r.size))  # r^{-d} I, its halved-grid value, r^{-d} y(r)
    end, dend = np.empty((2, len(u.components), r.size))  # rho(r) and rho'(r)
    for lo in range(0, r.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        s = (r[blk, None] * _T).ravel()
        rr, rp, _ = _rho_matrices(u, s)
        a = _qform(rp, gq, rp).reshape(-1, _T.size)
        b = _qform(rr, gqp, rr).reshape(-1, _T.size)
        full[blk] = a @ w_a + (b @ w_b) / r2[blk]
        half[blk] = a[:, 1::2] @ w_a_half + (b[:, 1::2] @ w_b_half) / r2[blk]
        y_end[blk] = (a[:, -1] + b[:, -1] / r2[blk]) / r[blk]
        # the t = 1 samples (r * 1.0 is r exactly)
        end[:, blk], dend[:, blk] = rr[:, _T.size - 1::_T.size], rp[:, _T.size - 1::_T.size]
    bnd = _qform(end, gq, end)
    w_val = sd2 * (full + sw / d - bnd / r2)
    est = sd2 * np.abs(full - half) / _RICHARDSON
    coarse = np.flatnonzero(est > _QUAD_TOL * np.fmax(1.0, np.abs(w_val)))
    if coarse.size:
        i = coarse[0]
        raise GridTooCoarse(
            f"radial quadrature unresolved at r={r[i]:g} (estimate {est[i]:.2e})")
    cross = _qform(end, gq, dend)
    dw = sd2 * (y_end - d * full / r + 2 * (bnd / r - cross) / r2)
    c = r * dend - end
    deficit = 2.0 * sd2 * _qform(c, gq, c) / r ** 3
    if bad.size:
        raise InputError("radius must lie in (0, r_max of the field]")
    return np.array((w_val, dw, deficit))


def _one_radius(r) -> np.ndarray:
    """r as the one-element radii of _weiss_values; InputError unless r is one number."""
    radii = np.asarray(r, dtype=float)
    if radii.ndim:
        raise InputError(f"radius must be one number, got an array of shape {radii.shape}")
    return radii.reshape(1)


@finite("non-finite Weiss energy")
def weiss(u: AxisymField, r: float) -> float:
    """Evaluate W(u, r); raises GridTooCoarse when the Richardson error
    estimate from a halved radial grid exceeds _QUAD_TOL * max(1, |W|), and
    NonFiniteResult when W overflows or turns NaN."""
    return float(_weiss_values(u, _one_radius(r), _grams(u))[0, 0])


def _harmonic_correction(u: AxisymField, r: float, grams) -> float:
    """-2 r^{-d-1} int_{B_r} (x . grad u - u) Lap u  (vanishes when u is
    harmonic on its support, e.g. for the cone solution itself)."""
    d = u.dim
    gq, gqp, _ = grams
    w_a, w_b, _, _ = _radial_weights(d)
    s = r * _T
    rr, rp, rpp = _rho_matrices(u, s, order=2)
    e = s * rp - rr
    radial = _qform(e, gq, rpp + (d - 1) * rp / s)
    angular = -_qform(e, gqp, rr)
    return -2.0 * sphere_area(d - 2) * float(radial @ w_a + angular @ w_b / (r * r)) / r


@finite("non-finite Weiss energy")
def weiss_derivative_check(u: AxisymField, r: float):
    """Compare dW/dr (the report's dW_lhs) with deficit + harmonicity correction.

    Returns (lhs, rhs, gap).  For fields harmonic on their support the
    correction vanishes and rhs reduces to the nonnegative deficit.  Raises
    NonFiniteResult when either side overflows or turns NaN.
    """
    grams = _grams(u)
    _, dw, deficit = _weiss_values(u, _one_radius(r), grams)
    lhs = float(dw[0])
    rhs = float(deficit[0]) + _harmonic_correction(u, r, grams)
    return lhs, rhs, abs(lhs - rhs)


@dataclasses.dataclass(frozen=True)
class WeissReport:
    r_values: np.ndarray
    W: np.ndarray
    # dW/dr of W's definition, by the Leibniz rule: a difference of terms of size
    # d |W| / r, so it carries a rounding error of order eps d |W| / r (the d = 7
    # cone, W = 3.83 and dW/dr = 0, reads -3.6e-9 to -5.4e-9 at r = 1e-6, by the
    # other radii of its block)
    dW_lhs: np.ndarray
    dW_rhs: np.ndarray   # deficit term only
    kappa0: float

    def to_dict(self) -> dict:
        return {"r_values": self.r_values.tolist(), "W": self.W.tolist(),
                "dW_lhs": self.dW_lhs.tolist(), "dW_rhs": self.dW_rhs.tolist(),
                "kappa0": self.kappa0}


@finite("non-finite Weiss energy")
def weiss_report(u: AxisymField, radii) -> WeissReport:
    """W, its Leibniz-rule derivative and the deficit term at each radius, in one pass.

    ``radii`` is a 1-D sequence.  Raises NonFiniteResult when any of them
    overflows or turns NaN.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1:
        raise InputError(f"radii must be a 1-D sequence, got shape {radii.shape}")
    grams = _grams(u)
    w_vals, lhs, rhs = _weiss_values(u, radii, grams)
    kappa0 = math.sqrt(sphere_area(u.dim - 2) * grams[0][0, 0])
    return WeissReport(radii, w_vals, lhs, rhs, kappa0)


def _power_component(q: np.ndarray, q_prime: np.ndarray, e: float,
                     amp: float = 1.0) -> Component:
    """amp * r^e * q(theta), with its analytic radial derivatives.  For e = 1,
    rho and rho' are sampled as amp r and the constant amp, which is what
    r ** 1.0 and r ** 0.0 give, bit for bit."""
    if e == 1:
        rho = lambda r: amp * np.asarray(r, dtype=float)
        drho = lambda r: np.full(np.shape(r), amp, dtype=float)
    else:
        rho = lambda r: amp * np.asarray(r, dtype=float) ** e
        drho = lambda r: amp * e * np.asarray(r, dtype=float) ** (e - 1)
    return Component(
        rho=rho,
        q=q,
        drho=drho,
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


def perturbed_field(p: ConeProfile, eps: float, exponent: float,
                    k: int = 1) -> AxisymField:
    """U plus eps * r^exponent times the k-th interior Robin band mode."""
    pair = eigen_k(band_spec(p, 0.0, "robin"), k)
    bump = _power_component(pair.fn, pair.fn_prime, float(exponent), eps)
    return AxisymField(p.dim, p.grid, (cone_field(p).components[0], bump))


def link_measure_identity(p: ConeProfile):
    """W(U, 1) against H^{d-1}(link)/d; returns (W1, measure_over_d, gap)."""
    if p.theta0 >= math.pi / 2:
        raise InputError("band half-width must stay below pi/2")
    w1 = weiss(cone_field(p), 1.0)
    w = np.sin(p.grid) ** (p.dim - 2)
    measure = sphere_area(p.dim - 2) * float(simpson(w, x=p.grid))
    ref = measure / p.dim
    return w1, ref, abs(w1 - ref) / abs(ref)


def F_functional(band_halfwidth: float, p: ConeProfile, d: int) -> float:
    """Aperture functional whose stationary point is the solution band:

        F(theta) = (kappa0^2 (lam1_D(theta) - (d-1)) + H^{d-1}(Sigma_theta)) / d,

    with kappa0 the L^2(S^{d-1}) norm of the reference profile, lam1_D the
    first Dirichlet band eigenvalue at half-width theta, and Sigma_theta the
    two lateral cone sheets in the unit ball.
    """
    if d != p.dim:
        raise InputError(f"dimension argument {d} != profile dimension {p.dim}")
    spec = SLSpec(dim=d, half_width=float(band_halfwidth), mu=0.0, bc="dirichlet",
                  grid_n=p.grid.size - 1)
    area = sphere_area(d - 2) * band_measure(spec)
    return (_kappa0_sq(p) * (eigenvalue(spec, 1) - (d - 1)) + area) / d


@functools.lru_cache(maxsize=8)  # keyed by the profile's identity, as profiles are memoized
def _kappa0_sq(p: ConeProfile) -> float:
    """kappa0^2, the squared L^2(S^{d-1}) norm of the reference profile."""
    d = p.dim
    w = np.sin(p.grid) ** (d - 2)
    return sphere_area(d - 2) * float(simpson(p.g ** 2 * w, x=p.grid))


def foliation_leading_term(p: ConeProfile, side: str, t: float | None, x) -> np.ndarray:
    """Leading asymptotics U(x) +/- t r^gamma phi_1(theta) of the foliating
    sub/supersolutions, gamma = -(d-2)/2 + sqrt(((d-2)/2)^2 + lam_1).

    ``x`` holds (r, theta) pairs in its last axis; outside the band the
    profile and its perturbation both vanish.
    """
    if t is None:
        raise MissingCoefficient("foliation requires the leading coefficient t")
    if side not in ("upper", "lower"):
        raise InputError("side must be 'upper' or 'lower'")
    d = p.dim
    pair = eigen_k(band_spec(p, 0.0, "robin"), 1)
    rad = ((d - 2) / 2) ** 2 + pair.lam
    if rad <= 0:
        raise NumericalError("first interior eigenvalue below the stability floor")
    gamma = -(d - 2) / 2 + math.sqrt(rad)
    phi = pair.fn
    w = np.sin(p.grid) ** (d - 2)
    if simpson(phi * w, x=p.grid) < 0:
        phi = -phi
    x = np.asarray(x, dtype=float)
    r, th = x[..., 0], x[..., 1]
    if np.any(r <= 0):
        raise InputError("radii must be positive")
    sgn = 1.0 if side == "upper" else -1.0
    u0 = r * np.interp(th, p.grid, p.g, left=0.0, right=0.0)
    bump = np.interp(th, p.grid, phi, left=0.0, right=0.0)
    return u0 + sgn * t * r ** gamma * bump
