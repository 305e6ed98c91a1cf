"""Decaying particular solutions of the linearized problem on the cone.

Pipeline: a boundary source G(r,omega) = sum_k amp_k r^{-beta} psi_k(omega)
is transferred to the interior as

    u1 = sum_{k not in I} (r G_k / ell_k) psi_k + sum_{k in I} r G_k U psi_k,

whose Laplacian defect f = -Lap(u1) is projected onto the interior Robin
basis; each radial coefficient then solves the inhomogeneous Cauchy-Euler
ODE r^2 u'' + (d-1) r u' - lam u = r^2 f_k through the double-integral
representation u = r^{gamma_plus} int int, with integration limits chosen by
the sign rules P = d/2 + delta - beta and Q = d/2 - delta - beta (limit R0
for a positive sign, infinity otherwise; infinite limits enter through the
analytic tail of the power-law integrand).  u_p = u1 + u2 then decays like
r^{1-beta}.

Radial quantities live on a geometric grid of ratio 2^{1/16}; log-axis
quadrature is cumulative Simpson with per-mode refinement so that steep
powers r^P stay resolved.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._quad import simpson
from .boundary import BoundaryMode
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (NonFiniteResult, NumericalError, ResonanceDivision, ResonantExponent,
                     TailDivergence)
from .linkspec import LinkEigenvalue, LinkSpectrum, homogeneity
from .profile import ConeProfile
from .sl import _derivative, band_spec, eigen_k
from .spheremodes import harmonic_multiplicity

_POWER_FIT_TOL = 1e-7
_TARGET_STEP = 0.02  # max |exponent| * (log-step) in refined quadrature
_PER_ELL = 8         # interior band modes per sphere degree in the projection
_RESONANCE_TOL = 1e-9  # |d/2 +- delta - beta| at or below this is resonant


@dataclasses.dataclass(frozen=True)
class RadialField:
    """Truncated spectral field sum_j coeffs[j](r) * angular[j](theta) * Y_ell."""

    basis: str  # 'interior' | 'boundary' | 'mixed'
    r_grid: np.ndarray
    coeffs: np.ndarray          # (n_modes, n_r)
    beta: float                 # asserted decay exponent of the source
    modes: tuple                # LinkEigenvalue or BoundaryMode per row
    theta: np.ndarray
    angular: np.ndarray         # (n_modes, n_theta)
    angular_prime: np.ndarray
    ode_residual: np.ndarray | None = None  # per-mode max ODE defect (interior rows)

    def __post_init__(self):
        m, nr = self.coeffs.shape
        if m != len(self.modes) or nr != self.r_grid.size:
            raise ValueError("coefficient block shape does not match modes/grid")
        if not np.all(np.isfinite(self.coeffs)):
            raise NonFiniteResult("non-finite radial coefficients")

    def mode_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coeffs ** 2, axis=0))

    def slope(self, decades: float = 1.0) -> float:
        """Log-log regression slope of the mode norm over the top decades."""
        norms = self.mode_norm()
        mask = self.r_grid >= self.r_grid[-1] / 10.0 ** decades
        norms = norms[mask]
        if np.max(norms, initial=0.0) == 0.0:
            return -math.inf
        return float(np.polyfit(np.log(self.r_grid[mask]), np.log(norms), 1)[0])


def _mode_key(m):
    if isinstance(m, BoundaryMode):
        return ("boundary", m.ell, m.parity)
    return ("interior", m.source)


def add_fields(f1: RadialField, f2: RadialField, w1: float = 1.0,
               w2: float = 1.0) -> RadialField:
    """Pointwise linear combination of two fields over the same mode set."""
    if f1.basis != f2.basis or [_mode_key(m) for m in f1.modes] != \
            [_mode_key(m) for m in f2.modes]:
        raise ValueError("fields must share basis and mode set")
    if not np.allclose(f1.r_grid, f2.r_grid):
        raise ValueError("fields must share the radial grid")
    return dataclasses.replace(f1, coeffs=w1 * f1.coeffs + w2 * f2.coeffs,
                               ode_residual=None)


def scale_field(f: RadialField, a: float) -> RadialField:
    return dataclasses.replace(f, coeffs=a * f.coeffs, ode_residual=None)


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    beta: float
    boundary_coeffs: tuple[tuple[int, float], ...]  # (mode index k, amplitude)
    admissible: bool

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("source decay exponent beta must be > 0")

    @property
    def coeffs_dict(self) -> dict[int, float]:
        return dict(self.boundary_coeffs)


def make_source(beta: float, coeffs: dict[int, float], link: LinkSpectrum) -> SourceSpec:
    """SourceSpec with the resonant-exponent admissibility flag computed
    against the link spectrum (d/2 +- delta_k - beta must stay off zero)."""
    d = link.dim
    ok = True
    for e in link.entries:
        if e.complex_radicand or e.delta is None:
            continue
        if (abs(d / 2 + e.delta - beta) <= _RESONANCE_TOL
                or abs(d / 2 - e.delta - beta) <= _RESONANCE_TOL):
            ok = False
    items = tuple(sorted((int(k), float(v)) for k, v in coeffs.items()))
    return SourceSpec(beta=float(beta), boundary_coeffs=items, admissible=ok)


def radial_grid(cfg: SolverConfig | None = None) -> np.ndarray:
    """Geometric grid of ratio 2^{1/16} spanning [r0, r_max]."""
    cfg = cfg or DEFAULT_CONFIG
    n = int(round(16 * math.log2(cfg.r_max / cfg.r0)))
    return cfg.r0 * 2.0 ** (np.arange(n + 1) / 16.0)


def transfer_boundary(src: SourceSpec, bmodes, p: ConeProfile,
                      cfg: SolverConfig | None = None) -> tuple[RadialField, RadialField]:
    """Step 1: lift the boundary source into the cone.

    Returns (u1, f) where u1 carries the boundary data exactly and
    f = -Lap(u1) is the interior defect passed to the radial solver.  For a
    resonant mode the lifted profile is U*psi_k, whose sphere Laplacian
    picks up the correction -(d-1) U psi_k + 2 grad U . grad psi_k.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not src.admissible:
        raise ResonantExponent(
            "source beta resonates with an interior homogeneity (d/2 +- delta = beta)")
    d, beta = p.dim, src.beta
    r = radial_grid(cfg)
    by_k = {m.k: m for m in bmodes}
    used = []
    for k in src.coeffs_dict:
        if k not in by_k:
            raise ValueError(f"boundary mode index {k} not present in bmodes")
        m = by_k[k]
        if m.grid.size != p.grid.size or abs(m.grid[0] - p.grid[0]) > 1e-12:
            raise ValueError("boundary modes were built on a different band grid")
        used.append(m)

    n_m = len(used)
    u1_c = np.zeros((n_m, r.size))
    f_c = np.zeros((n_m, r.size))
    u1_a = np.zeros((n_m, p.grid.size))
    u1_ap = np.zeros_like(u1_a)
    f_a = np.zeros_like(u1_a)
    g, gp = p.g, p.g_prime
    rad_u = r ** (1.0 - beta)
    rad_f = r ** (-1.0 - beta)
    c_euler = (1.0 - beta) * (d - 1.0 - beta)

    for i, m in enumerate(used):
        amp = src.coeffs_dict[m.k]
        if m.in_resonance:
            u1_c[i] = amp * rad_u
            u1_a[i] = g * m.psi
            u1_ap[i] = gp * m.psi + g * m.psi_prime
            f_c[i] = -amp * rad_f
            f_a[i] = (c_euler - (d - 1.0)) * g * m.psi + 2.0 * gp * m.psi_prime
        else:
            if abs(m.ell_k) <= cfg.res_tol:
                raise ResonanceDivision(
                    f"mode k={m.k} has ell_k={m.ell_k:.2e} but is not flagged resonant")
            u1_c[i] = amp * rad_u / m.ell_k
            u1_a[i] = m.psi
            u1_ap[i] = m.psi_prime
            f_c[i] = -amp * rad_f / m.ell_k
            f_a[i] = c_euler * m.psi

    u1 = RadialField("boundary", r, u1_c, beta, tuple(used), p.grid, u1_a, u1_ap)
    # defect profiles are only integrated, never traced: no angular derivative
    f = RadialField("boundary", r, f_c, beta, tuple(used), p.grid, f_a, np.zeros_like(f_a))
    return u1, f


def project_interior(f: RadialField, p: ConeProfile, link: LinkSpectrum,
                     cfg: SolverConfig | None = None) -> tuple[RadialField, float]:
    """Expand the defect field in the interior Robin basis.

    Only sphere modes present in the source couple (orthogonality of the
    Y_ell factors), so the projection is a band quadrature per (ell, j).
    Returns the interior-basis field and the worst relative truncation tail
    sqrt(1 - sum_j <A, q_j>^2 / ||A||^2) over source profiles A.
    """
    cfg = cfg or DEFAULT_CONFIG
    d = p.dim
    w = np.sin(p.grid) ** (d - 2)
    ells = sorted({m.ell for m in f.modes})
    entries, rows, rows_p, coeffs = [], [], [], []
    proj_sq = np.zeros(len(f.modes))
    for ell in ells:
        mu = float(ell * (ell + d - 3))
        spec = band_spec(p, mu, "robin")
        for j in range(1, _PER_ELL + 1):
            pair = eigen_k(spec, j, cfg)
            try:
                entry = link.find((ell, j))
            except KeyError:
                entry = LinkEigenvalue(lam=pair.lam,
                                       multiplicity=harmonic_multiplicity(d, ell),
                                       source=(ell, j),
                                       **homogeneity(d, pair.lam, cfg.res_tol))
            c = np.zeros(f.r_grid.size)
            for i, m in enumerate(f.modes):
                if m.ell != ell:
                    continue
                pr = simpson(f.angular[i] * pair.fn * w, x=p.grid)
                proj_sq[i] += pr * pr
                c = c + pr * f.coeffs[i]
            entries.append(entry)
            rows.append(pair.fn)
            rows_p.append(pair.fn_prime)
            coeffs.append(c)
    tail = 0.0
    for i, m in enumerate(f.modes):
        full = simpson(f.angular[i] ** 2 * w, x=p.grid)
        if full > 0:
            tail = max(tail, math.sqrt(max(full - proj_sq[i], 0.0) / full))
    field = RadialField("interior", f.r_grid, np.array(coeffs), f.beta,
                        tuple(entries), p.grid, np.array(rows), np.array(rows_p))
    return field, tail


def _segment_integrals(y: np.ndarray, dx: float) -> np.ndarray:
    """Per-interval integrals from the cubic through the 4 nearest samples.

    The symmetric stencil keeps the local error sign-consistent, so running
    sums stay smooth (an alternating half-panel scheme leaves a sawtooth
    that pointwise differentiation of the result would amplify by 1/h^2).
    """
    c = dx / 24.0
    seg = np.empty(y.size - 1)
    seg[1:-1] = c * (-y[:-3] + 13 * y[1:-2] + 13 * y[2:-1] - y[3:])
    seg[0] = c * (9 * y[0] + 19 * y[1] - 5 * y[2] + y[3])
    seg[-1] = c * (y[-4] - 5 * y[-3] + 19 * y[-2] + 9 * y[-1])
    return seg


def _cumulative_up(y: np.ndarray, dx: float) -> np.ndarray:
    """int_{x0}^{x_i} y dx for every grid point."""
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(_segment_integrals(y, dx), out=out[1:])
    return out


def _cumulative_down(y: np.ndarray, dx: float) -> np.ndarray:
    """int_{x_i}^{x_end} y dx, accumulated from the top end.

    Summing from the far end keeps values near it relatively accurate —
    computing them as differences of two nearly equal full-range sums would
    cancel catastrophically.
    """
    seg = _segment_integrals(y, dx)
    out = np.empty(y.size)
    out[-1] = 0.0
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _fit_power(r: np.ndarray, c: np.ndarray):
    """Fit c(r) = C * r^sigma; returns (C, sigma, max log-residual)."""
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    signs = np.sign(c[np.abs(c) > 1e-14 * scale])
    if signs.size == 0 or np.any(signs != signs[0]):
        return None
    mask = np.abs(c) > 1e-14 * scale
    lx, ly = np.log(r[mask]), np.log(np.abs(c[mask]))
    sigma, b = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (sigma * lx + b))))
    return float(signs[0]) * math.exp(b), float(sigma), resid


def _d2_uniform(y, h):
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h * h)
    d[:2] = d[2]
    d[-2:] = d[-3]
    return d


@np.errstate(over="raise", invalid="raise")
def _solve_mode(entry, c_row: np.ndarray, r: np.ndarray, d: int, beta: float,
                cfg: SolverConfig, flip_rules: bool):
    """One mode's radial solve: (profile on the base grid, max ODE defect)."""
    dtau = math.log(r[1] / r[0])
    if entry.complex_radicand:
        raise NumericalError(
            f"mode {entry.source}: complex homogeneity pair, no real radial solve")
    delta, lam = entry.delta, entry.lam
    if delta is None or delta < 1e-8:
        raise NumericalError(
            f"mode {entry.source}: log-resonant homogeneity unsupported")
    P = d / 2 + delta - beta
    Q = d / 2 - delta - beta
    if min(abs(P), abs(Q)) <= cfg.res_tol:
        raise ResonantExponent(
            f"mode {entry.source}: selection denominator vanishes (P={P:.3e}, Q={Q:.3e})")
    a_inf = (P < 0) and not flip_rules
    b_inf = (Q < 0) and not flip_rules

    fit = _fit_power(r, c_row)
    if fit is None or fit[2] > _POWER_FIT_TOL:
        if a_inf or b_inf:
            raise TailDivergence(
                f"mode {entry.source}: non-power-law profile, cannot close the "
                "infinite-limit tail")
        refine = 1
        r_f = r
        c_f = c_row
        C_amp, sigma = None, None
    else:
        C_amp, sigma, _ = fit
        if (a_inf or b_inf) and abs(sigma + 1.0 + beta) > 1e-6:
            raise TailDivergence(
                f"mode {entry.source}: fitted decay {sigma:.6f} != -1-beta, "
                "tail closed form invalid")
        refine = max(1, math.ceil(max(abs(P), abs(Q), 2 * delta) * dtau / _TARGET_STEP))
        r_f = r[0] * np.exp(dtau / refine * np.arange((r.size - 1) * refine + 1))
        c_f = C_amp * r_f ** sigma

    dtf = dtau / refine
    gam_p = -(d - 2) / 2 + delta
    # inner integral I(s) = int_a^s t^{delta + d/2} f(t) dt on the log axis;
    # for a power-law profile the finite-end anchor is pushed from R0 down
    # to 0 analytically (the integral converges there exactly when the sign
    # rule picked the finite end), so no homogeneous transient is injected
    # and the result collapses to the power ansatz.  flip_rules keeps the
    # raw R0 anchor: the transient is the point of that mode.
    y_in = r_f ** (delta + d / 2 + 1) * c_f
    inner_is_pure = C_amp is not None
    if a_inf:
        icum = -_cumulative_down(y_in, dtf) + C_amp * r_f[-1] ** P / P
    else:
        icum = _cumulative_up(y_in, dtf)
        if C_amp is not None and P > 0:
            icum = icum + C_amp * r_f[0] ** P / P
        else:
            inner_is_pure = False
    # outer integral from b of s^{-1-2 delta} I(s)
    y_out = r_f ** (-2 * delta) * icum
    if b_inf:
        vcum = -_cumulative_down(y_out, dtf) + C_amp * r_f[-1] ** Q / (P * Q)
    else:
        vcum = _cumulative_up(y_out, dtf)
        if inner_is_pure and Q > 0:
            vcum = vcum + C_amp * r_f[0] ** Q / (P * Q)
    u_f = r_f ** gam_p * vcum

    f_f = c_f if refine > 1 else c_row
    d1 = _derivative(u_f, dtf)
    d2 = _d2_uniform(u_f, dtf)
    res = d2 + (d - 2) * d1 - lam * u_f - r_f ** 2 * f_f
    k = 3 * refine
    resid = float(np.max(np.abs(res[k:-k]))) if res.size > 2 * k else \
        float(np.max(np.abs(res)))
    return u_f[::refine], resid


def solve_radial_modes(f: RadialField, link: LinkSpectrum, beta: float,
                       cfg: SolverConfig | None = None,
                       flip_rules: bool = False) -> RadialField:
    """Step 2: solve the per-mode Cauchy-Euler ODEs from the defect field.

    ``flip_rules`` forces both integration limits to R0 regardless of the
    sign rules — the negative-test hook: wrong limits inject a homogeneous
    r^{gamma_plus} piece that wrecks the decay of every mode whose rule
    demanded an infinite limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    if f.basis != "interior":
        raise ValueError("solve_radial_modes requires interior-basis projections")
    if abs(beta - f.beta) > 1e-12:
        raise ValueError("beta disagrees with the field's asserted source decay")
    d = link.dim
    out = np.zeros_like(f.coeffs)
    resid = np.zeros(len(f.modes))

    for j, entry in enumerate(f.modes):
        if np.max(np.abs(f.coeffs[j])) == 0.0:
            continue
        try:
            out[j], resid[j] = _solve_mode(entry, f.coeffs[j], f.r_grid, d, beta, cfg, flip_rules)
        except FloatingPointError as exc:
            raise NonFiniteResult(
                f"non-finite radial coefficients in mode {entry.source}: {exc}") from None

    return dataclasses.replace(f, coeffs=out, ode_residual=resid)


def ode_residuals(u: RadialField, f: RadialField) -> np.ndarray:
    """Per-mode Cauchy-Euler defect max |r^2 u'' + (d-1) r u' - lam u - r^2 f|
    evaluated on the base grid (edge stencils excluded).

    Independent re-evaluation used by the invariance tests; the residual
    reported by solve_radial_modes comes from its finer quadrature grid.
    """
    if u.basis != "interior" or f.basis != "interior":
        raise ValueError("residual evaluation requires interior-basis fields")
    d_from_gamma = u.modes[0].gamma_plus + u.modes[0].gamma_minus  # = -(d-2)
    dm2 = -d_from_gamma
    dtau = math.log(u.r_grid[1] / u.r_grid[0])
    vals = np.zeros(len(u.modes))
    for j, entry in enumerate(u.modes):
        y = u.coeffs[j]
        d1 = _derivative(y, dtau)
        d2 = _d2_uniform(y, dtau)
        res = d2 + dm2 * d1 - entry.lam * y - u.r_grid ** 2 * f.coeffs[j]
        vals[j] = float(np.max(np.abs(res[3:-3])))
    return vals


def boundary_residual(u: RadialField, src: SourceSpec, bmodes,
                      p: ConeProfile) -> float:
    """sup_r |B[u] - r G| at the two endpoints, relative to the data scale.

    B is the inward-conormal Robin trace d_nu + H applied on the band grid;
    interior-basis rows contribute only through their (tiny) boundary
    defect, boundary-basis rows carry the data.
    """
    H = p.H
    by_k = {m.k: m for m in bmodes}
    ba = u.angular_prime[:, 0] + H * u.angular[:, 0]
    bb = -u.angular_prime[:, -1] + H * u.angular[:, -1]
    trace_a = ba @ u.coeffs
    trace_b = bb @ u.coeffs
    rad = u.r_grid ** (1.0 - src.beta)
    data_a = np.zeros_like(rad)
    data_b = np.zeros_like(rad)
    for k, amp in src.coeffs_dict.items():
        m = by_k[k]
        data_a += amp * rad * m.psi[0]
        data_b += amp * rad * m.psi[-1]
    scale = float(np.max(np.abs(data_a) + np.abs(data_b)))
    if scale == 0.0:
        return float(np.max(np.abs(trace_a) + np.abs(trace_b)))
    return float(np.max(np.abs(trace_a - data_a) + np.abs(trace_b - data_b)) / scale)


@dataclasses.dataclass(frozen=True)
class BuildReport:
    slope: float
    interior_residual: float
    boundary_residual: float
    projection_tail: float
    per_mode: tuple

    def to_dict(self) -> dict:
        return {"slope": self.slope, "interior_residual": self.interior_residual,
                "boundary_residual": self.boundary_residual,
                "projection_tail": self.projection_tail,
                "per_mode": [dict(m) for m in self.per_mode]}


def build_up(src: SourceSpec, p: ConeProfile, link: LinkSpectrum, bmodes,
             cfg: SolverConfig | None = None) -> tuple[RadialField, BuildReport]:
    """Full particular solution u_p = u1 + u2 with its residual report.

    interior_residual is the worst per-mode Cauchy-Euler defect relative to
    the source scale sup_r r^2 ||f||; the angular truncation of the defect
    projection is reported separately as projection_tail.
    """
    cfg = cfg or DEFAULT_CONFIG
    u1, f = transfer_boundary(src, bmodes, p, cfg)
    f_int, tail = project_interior(f, p, link, cfg)
    u2 = solve_radial_modes(f_int, link, src.beta, cfg)

    up = RadialField(
        "mixed", u1.r_grid, np.vstack([u1.coeffs, u2.coeffs]), src.beta,
        tuple(u1.modes) + tuple(u2.modes), p.grid,
        np.vstack([u1.angular, u2.angular]),
        np.vstack([u1.angular_prime, u2.angular_prime]))

    scale = float(np.max(f_int.r_grid ** 2 * f_int.mode_norm()))
    per_mode = []
    for j, entry in enumerate(f_int.modes):
        if entry.delta is None:
            continue
        P = link.dim / 2 + entry.delta - src.beta
        Q = link.dim / 2 - entry.delta - src.beta
        per_mode.append({
            "source": list(entry.source), "lambda": entry.lam,
            "P": P, "Q": Q,
            "a": "R0" if P > 0 else "inf", "b": "R0" if Q > 0 else "inf",
            "residual": float(u2.ode_residual[j])})
    interior = float(np.max(u2.ode_residual) / scale) if scale > 0 else 0.0
    bres = boundary_residual(up, src, bmodes, p)
    report = BuildReport(slope=up.slope(3.0), interior_residual=interior,
                         boundary_residual=bres, projection_tail=tail,
                         per_mode=tuple(per_mode))
    return up, report


@dataclasses.dataclass(frozen=True)
class DecayClassification:
    beta: float
    retained: tuple   # (source, gamma, coefficient)
    zeroed: tuple
    projection_error: float
    field: RadialField


def classify_decay(field: RadialField, link: LinkSpectrum,
                   beta: float | None = None) -> DecayClassification:
    """Split each radial coefficient into its homogeneous branches and keep
    only those compatible with decay O(r^{-beta}).

    A branch of homogeneity gamma survives iff gamma <= -beta (a mode
    decaying no slower than the field itself); the rest are zeroed.  beta
    defaults to minus the field's fitted top-decade slope.
    """
    if field.basis != "interior":
        raise ValueError("classify_decay requires an interior-basis field")
    if beta is None:
        beta = -field.slope(1.0)
    d = link.dim
    r = field.r_grid
    ln_r = np.log(r)
    retained, zeroed = [], []
    new_coeffs = np.zeros_like(field.coeffs)
    fit_err = 0.0
    gscale = float(np.max(np.abs(field.coeffs)))
    for j, entry in enumerate(field.modes):
        c = field.coeffs[j]
        cn = float(np.linalg.norm(c))
        if cn == 0.0:
            continue
        if entry.complex_radicand:
            om = math.sqrt(-((d - 2) / 2) ** 2 - entry.lam)
            base = r ** (-(d - 2) / 2)
            cols = [base * np.cos(om * ln_r), base * np.sin(om * ln_r)]
            gammas = [-(d - 2) / 2, -(d - 2) / 2]
        elif entry.log_mode:
            base = r ** entry.gamma_plus
            cols = [base, base * ln_r]
            gammas = [entry.gamma_plus, entry.gamma_plus]
        else:
            cols = [r ** entry.gamma_plus, r ** entry.gamma_minus]
            gammas = [entry.gamma_plus, entry.gamma_minus]
        scales = [float(np.max(np.abs(col))) for col in cols]
        design = np.stack([col / s for col, s in zip(cols, scales)], axis=1)
        sol, *_ = np.linalg.lstsq(design, c, rcond=None)
        coefs = [sol[i] / scales[i] for i in range(2)]
        model = design @ sol
        fit_err = max(fit_err, float(np.linalg.norm(c - model) / cn))
        for i, (gam, col) in enumerate(zip(gammas, cols)):
            amp = abs(coefs[i]) * float(np.max(np.abs(col)))
            if amp <= 1e-10 * gscale:
                continue
            if gam <= -beta + 1e-9:
                retained.append((entry.source, gam, float(coefs[i])))
                new_coeffs[j] += coefs[i] * col
            else:
                zeroed.append((entry.source, gam, float(coefs[i])))
    cleaned = dataclasses.replace(field, coeffs=new_coeffs, ode_residual=None)
    return DecayClassification(beta=float(beta), retained=tuple(retained),
                               zeroed=tuple(zeroed), projection_error=fit_err,
                               field=cleaned)
