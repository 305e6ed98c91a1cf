"""Decaying particular solutions of the linearized problem on the cone.

Pipeline: a boundary source G(r,omega) = sum_k amp_k r^{-beta} psi_k(omega)
is transferred to the interior as

    u1 = sum_{k not in I} (r G_k / ell_k) psi_k + sum_{k in I} r G_k U psi_k,

whose Laplacian defect f = -Lap(u1) is projected onto the interior Robin
basis, each source row on the half band and only onto the eigenfunctions of
its parity about pi/2 (the other rows are exactly 0 and not solved).  Each
radial coefficient then solves the inhomogeneous Cauchy-Euler ODE
r^2 u'' + (d-1) r u' - lam u = r^2 f_k.  The source makes every row a power
C r^{-1-beta}, whose particular solution is the power C r^{1-beta} / (P Q)
with the sign-rule exponents P = d/2 + delta - beta and
Q = d/2 - delta - beta (Simon and Solomon, Invent. Math. 86, 1986).  The
exponent is beta's, so it is tested, not fitted, on all rows at once: a power
row, whose a = c r^{1+beta} on the samples above 1e-14 of its peak stays
within _POWER_TOL |C| of its mean C, is returned in closed form, free of
homogeneous transients, so u_p = u1 + u2 decays like r^{1-beta}.  Any other
row is integrated as sampled through u = r^{gamma_plus} int int with both
limits at R0.  The sign rules pick limit R0 for a positive P or Q and
infinity otherwise, so a row whose rules ask for an infinite limit is refused.

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
    Eigenfunction j has parity (-1)^(j-1) about pi/2.  Precondition: each
    source row has its mode's ``BoundaryMode.parity``, as :func:`transfer_boundary`
    (g is even, so a resonant row keeps psi's), :func:`add_fields` and
    :func:`scale_field` keep it.  So a row meets only the eigenfunctions of its
    parity (the other coefficients are 0), and each even product, like each
    tail norm, is taken on the left half band and doubled.
    An eigenvalue past what the band grid resolves (``resolved_lambda_max``)
    is refused with ``InputError``.
    Returns the interior-basis field and the worst relative truncation tail
    sqrt(1 - sum_j <A, q_j>^2 / ||A||^2) over source profiles A.
    """
    d = p.dim
    top = resolved_lambda_max(p)
    th = p.grid[:p.grid.size // 2 + 1]
    w = np.sin(th) ** (d - 2)
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
        entries += [LinkEigenvalue.of(d, (ell, j), pair.lam, mode.multiplicity)
                    for j, pair in enumerate(pairs, 1)]
        for i, m in enumerate(f.modes):
            if m.ell == ell:
                odd = int(m.parity == "odd")  # row i -> eigenfunctions j of its parity
                pr = 2.0 * simpson(f.angular[i, :th.size] * fns[odd::2, :th.size] * w, x=th)
                for pr_j, c in zip(pr, coeffs[block][odd::2]):
                    proj_sq[i] += pr_j * pr_j
                    c += pr_j * f.coeffs[i]
    tail = 0.0
    for full, sq in zip(2.0 * simpson(f.angular[:, :th.size] ** 2 * w, x=th), proj_sq):
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


def _power_rows(f: RadialField, rows):
    """Rows ``rows`` of field f as one block: (power, u, resid), ``power`` the
    power rows (of the module docstring), u = C r^{1-beta} / (P Q) and resid =
    max |C r^{1-beta} - r^2 c| on them, each bit for bit a one-row call's.
    No power of r is formed that no row needs."""
    c, r, beta = f.coeffs[rows], f.r_grid, f.beta
    mask = np.abs(c) > 1e-14 * np.max(np.abs(c), axis=1, keepdims=True)
    rp = np.where(mask.any(axis=0), r, 1.0) ** (1.0 + beta)
    a = np.multiply(c, rp, out=np.zeros(c.shape), where=mask)
    C = np.mean(a, axis=1)
    for i in np.flatnonzero(~mask.all(axis=1)):  # a row with masked samples: its own mean
        C[i] = np.mean(a[i, mask[i]])
    power = np.max(np.where(mask, np.abs(a - C[:, None]), 0.0), axis=1) <= _POWER_TOL * np.abs(C)
    if not power.any():
        return power, np.empty((0, r.size)), np.empty(0)
    P, Q = _sign_exponents(f.dim, np.array([f.modes[j].delta for j in rows])[power], beta)
    r2f = C[power, None] * r ** (1.0 - beta)
    return power, r2f / (P * Q)[:, None], np.max(np.abs(r2f - r * r * c[power]), axis=1)


def _solve_mode(entry, c_row: np.ndarray, r: np.ndarray, d: int, beta: float,
                flip_rules: bool):
    """One row integrated as sampled from R0: (profile, :func:`_stencil_defect`).
    Only a power row (:func:`_power_rows`) closes an infinite limit, so a row
    whose sign rules ask for one raises ``TailDivergence``, unless ``flip_rules``."""
    if entry.complex_radicand:
        raise NumericalError(
            f"mode {entry.source}: complex homogeneity pair, no real radial solve")
    if entry.log_mode:
        raise NumericalError(
            f"mode {entry.source}: log-resonant homogeneity unsupported")
    delta, lam = entry.delta, entry.lam
    P, Q = _sign_exponents(d, delta, beta)
    if not flip_rules and (P < 0 or Q < 0):
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
    raises ``ResonantExponent``, also for a row with no defect.  A zero row
    stays 0 (residual 0.0), the power rows are solved as one block (an
    overflow named by the first row that overflows alone), the rest as sampled.

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
    out, resid = np.zeros_like(f.coeffs), np.zeros(len(f.modes))
    what = "non-finite radial coefficients in mode {source}"
    sampled = np.max(np.abs(f.coeffs), axis=1) != 0.0
    block = np.flatnonzero([s and not (flip_rules or e.complex_radicand or e.log_mode)
                            for s, e in zip(sampled, f.modes)])
    if block.size:
        try:
            with np.errstate(over="raise", invalid="raise"):
                power, u, res = _power_rows(f, block)
        except FloatingPointError:
            for j in block:
                with finite(what, source=f.modes[j].source):
                    _power_rows(f, [j])
            raise
        out[block[power]], resid[block[power]] = u, res
        sampled[block[power]] = False
    for j in np.flatnonzero(sampled):
        with finite(what, source=f.modes[j].source):
            out[j], resid[j] = _solve_mode(f.modes[j], f.coeffs[j], f.r_grid, f.dim,
                                           f.beta, flip_rules)
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
