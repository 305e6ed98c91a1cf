"""Decaying particular solutions of the linearized problem on the cone.

Pipeline: a boundary source G(r,omega) = sum_k amp_k r^{-beta} psi_k(omega)
is transferred to the interior as

    u1 = sum_{k not in I} (r G_k / ell_k) psi_k + sum_{k in I} r G_k U psi_k,

whose Laplacian defect f = -Lap(u1) is projected onto the interior Robin
basis; each radial coefficient then solves the inhomogeneous Cauchy-Euler
ODE r^2 u'' + (d-1) r u' - lam u = r^2 f_k.  The source makes every row a
power C r^{-1-beta}, whose particular solution is the power
C r^{1-beta} / (P Q) with the sign-rule exponents P = d/2 + delta - beta and
Q = d/2 - delta - beta (Simon and Solomon, Invent. Math. 86, 1986).  The
exponent is beta's, so it is tested, not fitted: a row whose c r^{1+beta} is
a constant C is returned in closed form, free of homogeneous transients, so
u_p = u1 + u2 decays like r^{1-beta}.  Any other row is integrated as
sampled through the double-integral representation u = r^{gamma_plus} int int
with both limits at R0.  The sign rules pick limit R0 for a positive P or Q
and infinity otherwise, so a row whose rules ask for an infinite limit is
refused.

Radial quantities live on a geometric grid of ratio 2^{1/16}, taken on the
log axis tau = log r by the integrals and by the one defect stencil that the
sampled solve and ``ode_residuals`` share; the running integrals sum
per-interval integrals of the cubic through the 4 nearest samples
(``_quad._segment_integrals``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._quad import _cumulative_up, _d2_uniform, _derivative, simpson
from .boundary import BoundaryMode
from .config import DEFAULT_CONFIG, RES_TOL, SolverConfig
from .errors import (InputError, NonFiniteResult, NumericalError, ResonantExponent,
                     TailDivergence, finite)
from .linkspec import LinkEigenvalue, resolved_lambda_max
from .profile import ConeProfile
from .sl import band_spec, eigen_pairs
from .spheremodes import SphereMode

_POWER_TOL = 1e-7   # relative spread of c r^{1+beta} that marks a power row
_PER_ELL = 8         # interior band modes per sphere degree in the projection


@dataclasses.dataclass(frozen=True)
class RadialField:
    """Truncated spectral field sum_j coeffs[j](r) * angular[j](theta) * Y_ell."""

    basis: str  # 'interior' | 'boundary' | 'mixed'
    dim: int                    # dimension d of the cone
    r_grid: np.ndarray
    coeffs: np.ndarray          # (n_modes, n_r)
    beta: float                 # asserted decay exponent of the source
    modes: tuple                # LinkEigenvalue or BoundaryMode per row
    theta: np.ndarray
    angular: np.ndarray         # (n_modes, n_theta)
    angular_prime: np.ndarray
    # per-mode max ODE defect of the interior rows: exact for a closed-form
    # power row, the fourth-order stencil one for a row integrated as sampled
    ode_residual: np.ndarray | None = None

    def __post_init__(self):
        m, nr = self.coeffs.shape
        if m != len(self.modes) or nr != self.r_grid.size:
            raise InputError("coefficient block shape does not match modes/grid")
        if not np.all(np.isfinite(self.coeffs)):
            raise NonFiniteResult("non-finite radial coefficients")

    def mode_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coeffs ** 2, axis=0))

    def slope(self, decades: float = 1.0) -> float:
        """Log-log regression slope of the mode norm over the top decades."""
        mask = self.r_grid >= self.r_grid[-1] / 10.0 ** decades
        if np.count_nonzero(mask) < 2:
            raise InputError(f"decades={decades} spans fewer than two radial samples")
        norms = self.mode_norm()[mask]
        if np.max(norms, initial=0.0) == 0.0:
            return -math.inf
        x, y = np.log(self.r_grid[mask]), np.log(norms)
        dx = x - x.sum() / x.size
        return float(dx @ (y - y.sum() / y.size) / (dx @ dx))


def _mode_key(m):
    if isinstance(m, BoundaryMode):
        return ("boundary", m.ell, m.parity)
    return ("interior", m.source)


def add_fields(f1: RadialField, f2: RadialField) -> RadialField:
    """Pointwise sum of two fields over the same mode set."""
    if f1.basis != f2.basis or [_mode_key(m) for m in f1.modes] != \
            [_mode_key(m) for m in f2.modes]:
        raise InputError("fields must share basis and mode set")
    if not np.allclose(f1.r_grid, f2.r_grid):
        raise InputError("fields must share the radial grid")
    return dataclasses.replace(f1, coeffs=f1.coeffs + f2.coeffs,
                               ode_residual=None)


def scale_field(f: RadialField, a: float) -> RadialField:
    return dataclasses.replace(f, coeffs=a * f.coeffs, ode_residual=None)


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    beta: float
    boundary_coeffs: tuple[tuple[int, float], ...]  # (mode index k, amplitude)

    def __post_init__(self):
        if not self.beta > 0:
            raise InputError("source decay exponent beta must be > 0")
        for i, (k, _) in enumerate(self.boundary_coeffs):
            if k < 1:
                raise InputError(f"boundary mode index {k} must be >= 1")
            if any(k == j for j, _ in self.boundary_coeffs[:i]):
                raise InputError(f"boundary mode index {k} is named twice")

    @property
    def coeffs_dict(self) -> dict[int, float]:
        return dict(self.boundary_coeffs)


def _sign_exponents(d: int, delta: float, beta: float) -> tuple[float, float]:
    """The sign-rule exponents (P, Q) = (d/2 + delta - beta, d/2 - delta - beta);
    min(|P|, |Q|) <= RES_TOL is a resonance of beta with the mode."""
    return d / 2 + delta - beta, d / 2 - delta - beta


def make_source(beta: float, coeffs: dict) -> SourceSpec:
    """SourceSpec of decay ``beta`` and amplitudes {boundary mode index: amplitude};
    keys are read with ``int``, and keys it cannot read, or two keys naming one
    index, are refused."""
    def index(key):
        try:
            return int(key)
        except (TypeError, ValueError):
            raise InputError(f"boundary mode index {key!r} is not an integer") from None
    items = tuple(sorted((index(k), float(v)) for k, v in coeffs.items()))
    return SourceSpec(beta=float(beta), boundary_coeffs=items)


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
    d, beta = p.dim, src.beta
    r = radial_grid(cfg)
    by_k = {m.k: m for m in bmodes}
    used = []
    for k in src.coeffs_dict:
        if k not in by_k:
            raise InputError(f"boundary mode index {k} not present in bmodes")
        m = by_k[k]
        if m.grid.size != p.grid.size or abs(m.grid[0] - p.grid[0]) > 1e-12:
            raise InputError("boundary modes were built on a different band grid")
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
            u1_c[i] = amp * rad_u / m.ell_k
            u1_a[i] = m.psi
            u1_ap[i] = m.psi_prime
            f_c[i] = -amp * rad_f / m.ell_k
            f_a[i] = c_euler * m.psi

    u1 = RadialField("boundary", d, r, u1_c, beta, tuple(used), p.grid, u1_a, u1_ap)
    # defect profiles are only integrated, never traced: no angular derivative
    f = RadialField("boundary", d, r, f_c, beta, tuple(used), p.grid, f_a, np.zeros_like(f_a))
    return u1, f


def project_interior(f: RadialField, p: ConeProfile) -> tuple[RadialField, float]:
    """Expand the defect field in the interior Robin basis.

    Only sphere modes present in the source couple (orthogonality of the
    Y_ell factors), so the projection is a band quadrature per (ell, j).
    An eigenvalue past what the band grid resolves (``resolved_lambda_max``)
    is refused with ``InputError``.
    Returns the interior-basis field and the worst relative truncation tail
    sqrt(1 - sum_j <A, q_j>^2 / ||A||^2) over source profiles A.
    """
    d = p.dim
    top = resolved_lambda_max(p)
    w = np.sin(p.grid) ** (d - 2)
    ells = sorted({m.ell for m in f.modes})
    entries = []
    # row e * _PER_ELL + j - 1 holds mode (ells[e], j), filled in place
    rows = np.empty((len(ells) * _PER_ELL, p.grid.size))
    rows_p = np.empty_like(rows)
    coeffs = np.zeros((rows.shape[0], f.r_grid.size))
    proj_sq = np.zeros(len(f.modes))
    for e, ell in enumerate(ells):
        mode = SphereMode.of(d, ell)
        pairs = eigen_pairs(band_spec(p, mode.mu, "robin"), range(1, _PER_ELL + 1))
        if pairs[-1].lam > top:
            raise InputError(f"grid_n={p.grid.size - 1} is too coarse at d={d}: mode "
                             f"({ell}, {_PER_ELL}) has lambda={pairs[-1].lam:.4g}, past "
                             f"the {top:.4g} its band grid resolves")
        block = slice(e * _PER_ELL, (e + 1) * _PER_ELL)
        fns = np.stack([pair.fn for pair in pairs], out=rows[block])
        np.stack([pair.fn_prime for pair in pairs], out=rows_p[block])
        # source row i -> its projections on the _PER_ELL eigenfunctions, one row per call
        pr = {i: simpson(f.angular[i] * fns * w, x=p.grid)
              for i, m in enumerate(f.modes) if m.ell == ell}
        for j, (pair, c) in enumerate(zip(pairs, coeffs[block])):
            entries.append(LinkEigenvalue.of(d, (ell, j + 1), pair.lam, mode.multiplicity))
            for i, pr_i in pr.items():
                proj_sq[i] += pr_i[j] * pr_i[j]
                c += pr_i[j] * f.coeffs[i]
    tail = 0.0
    for full, sq in zip(simpson(f.angular ** 2 * w, x=p.grid), proj_sq):
        if full > 0:
            tail = max(tail, math.sqrt(max(full - sq, 0.0) / full))
    field = RadialField("interior", d, f.r_grid, coeffs, f.beta, tuple(entries), p.grid,
                        rows, rows_p)
    return field, tail


def _stencil_defect(u: np.ndarray, c_row: np.ndarray, r: np.ndarray, d: int,
                    lam: float) -> float:
    """max |r^2 u'' + (d-1) r u' - lam u - r^2 c|, as u_tau_tau + (d-2) u_tau on
    the log axis tau = log r, three edge samples excluded at each end."""
    dtau = math.log(r[1] / r[0])
    res = _d2_uniform(u, dtau) + (d - 2) * _derivative(u, dtau) - lam * u - r * r * c_row
    return float(np.max(np.abs(res[3:-3])))


def _solve_mode(entry, c_row: np.ndarray, r: np.ndarray, d: int, beta: float,
                flip_rules: bool):
    """One mode's radial solve: (profile on the grid, max ODE defect).

    A power row C r^{-1-beta} is solved in closed form as C r^{1-beta} / (P Q),
    with (P, Q) the sign-rule exponents of :func:`_sign_exponents`, and the
    defect of that form against the samples, max |C r^{1-beta} - r^2 c|.  The
    row is a power row when a = c r^{1+beta}, taken on the samples above
    1e-14 of the row's peak, stays within _POWER_TOL |C| of its mean C.
    Every other row, and every row under ``flip_rules``, is integrated as
    sampled from R0 with the stencil defect of :func:`_stencil_defect`; one
    whose sign rules ask for an infinite limit raises ``TailDivergence``.  A
    resonant beta is refused by the caller, :func:`solve_radial_modes`,
    before any mode is solved.
    """
    if entry.complex_radicand:
        raise NumericalError(
            f"mode {entry.source}: complex homogeneity pair, no real radial solve")
    if entry.log_mode:
        raise NumericalError(
            f"mode {entry.source}: log-resonant homogeneity unsupported")
    delta, lam = entry.delta, entry.lam
    if not flip_rules:
        P, Q = _sign_exponents(d, delta, beta)
        mask = np.abs(c_row) > 1e-14 * float(np.max(np.abs(c_row)))
        a = c_row[mask] * r[mask] ** (1.0 + beta)
        C = float(np.mean(a))
        if np.max(np.abs(a - C)) <= _POWER_TOL * abs(C):
            r2f = C * r ** (1.0 - beta)
            return r2f / (P * Q), float(np.max(np.abs(r2f - r * r * c_row)))
        if P < 0 or Q < 0:
            raise TailDivergence(
                f"mode {entry.source}: an infinite limit closes only for a power "
                "row C r^(-1-beta)")

    # u = r^{gamma_plus} int_R0^r s^{-1-2 delta} int_R0^s t^{delta + d/2} f dt ds
    # on the log axis tau = log r
    dtau = math.log(r[1] / r[0])
    tau = math.log(r[0]) + dtau * np.arange(r.size)
    icum = _cumulative_up(np.exp((delta + d / 2 + 1) * tau) * c_row, dtau)
    vcum = _cumulative_up(np.exp(-2 * delta * tau) * icum, dtau)
    u = np.exp((delta - (d - 2) / 2) * tau) * vcum
    resid = _stencil_defect(u, c_row, r, d, lam)
    # np.convolve does not raise on overflow, so a stencil sum past the
    # float range surfaces here as inf or nan
    if not (math.isfinite(resid) and np.isfinite(u).all()):
        raise NonFiniteResult(
            f"non-finite radial coefficients in mode {entry.source}: overflow in "
            "a quadrature or difference stencil")
    return u, resid


def solve_radial_modes(f: RadialField, flip_rules: bool = False) -> RadialField:
    """Step 2: solve the per-mode Cauchy-Euler ODEs from the defect field,
    in the field's dimension and at its source decay beta.

    Every real mode is checked before any solve: min(|P|, |Q|) <= RES_TOL
    raises ``ResonantExponent``, also for a row with no defect.

    ``flip_rules`` integrates every row as sampled with both limits at R0,
    regardless of the sign rules and of any closed form — the negative-test
    hook: wrong limits inject a homogeneous r^{gamma_plus} piece that wrecks
    the decay of every mode whose rule demanded an infinite limit.
    """
    if f.basis != "interior":
        raise InputError("solve_radial_modes requires interior-basis projections")
    for entry in f.modes:
        if not entry.complex_radicand:
            P, Q = _sign_exponents(f.dim, entry.delta, f.beta)
            if min(abs(P), abs(Q)) <= RES_TOL:
                raise ResonantExponent(
                    f"beta={f.beta!r} resonates with interior mode {entry.source}: "
                    f"beta = d/2 +- delta (P={P:.3e}, Q={Q:.3e})")
    out = np.zeros_like(f.coeffs)
    resid = np.zeros(len(f.modes))

    for j, entry in enumerate(f.modes):
        if np.max(np.abs(f.coeffs[j])) == 0.0:
            continue
        with finite("non-finite radial coefficients in mode {source}", source=entry.source):
            out[j], resid[j] = _solve_mode(entry, f.coeffs[j], f.r_grid, f.dim, f.beta, flip_rules)

    return dataclasses.replace(f, coeffs=out, ode_residual=resid)


def ode_residuals(u: RadialField, f: RadialField) -> np.ndarray:
    """Per-mode Cauchy-Euler defect max |r^2 u'' + (d-1) r u' - lam u - r^2 f|
    evaluated on the base grid (edge stencils excluded).

    The stencil check, independent of how each row was solved:
    solve_radial_modes reports this same value for a row it integrates as
    sampled, and the exact defect for a closed-form power row.
    """
    if u.basis != "interior" or f.basis != "interior":
        raise InputError("residual evaluation requires interior-basis fields")
    return np.array([_stencil_defect(u.coeffs[j], f.coeffs[j], u.r_grid, u.dim, entry.lam)
                     for j, entry in enumerate(u.modes)])


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


def build_up(src: SourceSpec, p: ConeProfile, bmodes,
             cfg: SolverConfig | None = None) -> tuple[RadialField, BuildReport]:
    """Full particular solution u_p = u1 + u2 with its residual report.

    interior_residual is the worst per-mode Cauchy-Euler defect
    (``RadialField.ode_residual``: exact for a closed-form power row, the
    stencil one for a row integrated as sampled) relative to the source scale
    sup_r r^2 ||f||; the angular truncation of the defect
    projection is reported separately as projection_tail.  Raises
    NonFiniteResult when a step overflows, divides by zero or turns NaN.
    """
    with finite("non-finite particular solution"), np.errstate(divide="raise"):
        u1, f = transfer_boundary(src, bmodes, p, cfg)
        f_int, tail = project_interior(f, p)
        u2 = solve_radial_modes(f_int)

        up = RadialField(
            "mixed", p.dim, u1.r_grid, np.vstack([u1.coeffs, u2.coeffs]), src.beta,
            tuple(u1.modes) + tuple(u2.modes), p.grid,
            np.vstack([u1.angular, u2.angular]),
            np.vstack([u1.angular_prime, u2.angular_prime]))

        scale = float(np.max(f_int.r_grid ** 2 * f_int.mode_norm()))
        per_mode = []
        for j, entry in enumerate(f_int.modes):
            if entry.complex_radicand:
                continue
            P, Q = _sign_exponents(p.dim, entry.delta, src.beta)
            per_mode.append({
                "source": list(entry.source), "lambda": entry.lam,
                "P": P, "Q": Q,
                "a": "R0" if P > 0 else "inf", "b": "R0" if Q > 0 else "inf",
                "residual": float(u2.ode_residual[j])})
        interior = float(np.max(u2.ode_residual) / scale) if scale > 0 else 0.0
        bres = boundary_residual(up, src, bmodes, p)
        return up, BuildReport(slope=up.slope(3.0), interior_residual=interior,
                               boundary_residual=bres, projection_tail=tail,
                               per_mode=tuple(per_mode))


@dataclasses.dataclass(frozen=True)
class DecayClassification:
    beta: float
    retained: tuple   # (source, gamma, coefficient)
    zeroed: tuple
    projection_error: float
    field: RadialField


def classify_decay(field: RadialField, beta: float | None = None) -> DecayClassification:
    """Split each radial coefficient into its homogeneous branches and keep
    only those compatible with decay O(r^{-beta}).

    A branch of homogeneity gamma survives iff gamma <= -beta (a mode
    decaying no slower than the field itself); the rest are zeroed.  beta
    defaults to minus the field's fitted top-decade slope.
    """
    if field.basis != "interior":
        raise InputError("classify_decay requires an interior-basis field")
    if beta is None:
        beta = -field.slope(1.0)
    d = field.dim
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
