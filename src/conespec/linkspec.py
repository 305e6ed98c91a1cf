"""Interior Robin spectrum of the cone link.

Separation of variables writes each link eigenfunction as q(theta) * Y_ell
(sphere harmonic on the factor sphere), so the full spectrum is the union
over sphere modes of band Sturm-Liouville spectra shifted by mu_ell.  Each
eigenvalue carries the pair of radial homogeneities

    gamma_pm = -(d-2)/2 +- sqrt(((d-2)/2)^2 + lambda)

and the module renders the strong-integrability verdict: strict stability,
kernel dimensions d (translations) and d-1 (rotations), and a gap above d-1.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._quad import simpson
from .config import DEFAULT_CONFIG, RES_TOL, SolverConfig
from .errors import AmbiguousCluster
from .profile import ConeProfile, jacobi_fields
from .sl import band_spec, count_below, eigen_k, eigenvalue
from .spheremodes import _MAX_DEGREE, modes_up_to

# Analytic-eigenfunction identification threshold (relative L^2).  Not a
# config field: identification is structural and the margin only absorbs
# integrator noise.
_FN_TOL = 1e-5


@dataclasses.dataclass(frozen=True)
class LinkEigenvalue:
    lam: float
    multiplicity: int
    source: tuple[int, int]  # (ell, k)
    delta: float | None
    gamma_plus: float
    gamma_minus: float
    log_mode: bool
    complex_radicand: bool


def homogeneity(d: int, lam: float) -> dict:
    """Radial homogeneity data attached to a link eigenvalue.

    For radicand ((d-2)/2)^2 + lam < 0 the exponents form a complex pair;
    both gamma fields then carry the common magnitude sqrt(-lam).  A radicand
    within RES_TOL of zero is a log mode with the repeated exponent -(d-2)/2.
    """
    half = 0.5 * (d - 2)
    rad = half * half + lam
    if abs(rad) <= RES_TOL:
        return {"delta": 0.0, "gamma_plus": -half, "gamma_minus": -half,
                "log_mode": True, "complex_radicand": False}
    if rad < 0:
        mag = math.sqrt(-lam)
        return {"delta": None, "gamma_plus": mag, "gamma_minus": mag,
                "log_mode": False, "complex_radicand": True}
    delta = math.sqrt(rad)
    return {"delta": delta, "gamma_plus": -half + delta,
            "gamma_minus": -half - delta, "log_mode": False,
            "complex_radicand": False}


def _entry(d, ell, k, lam, mult):
    return LinkEigenvalue(lam=lam, multiplicity=mult, source=(ell, k),
                          **homogeneity(d, lam))


def assemble(p: ConeProfile, lambda_max: float) -> list[LinkEigenvalue]:
    """All link eigenvalues <= lambda_max, sorted, with multiplicities.

    Completeness: lambda_{ell,k} >= mu_ell + lambda_{0,1}, so sphere modes
    with mu_ell > lambda_max - lambda_{0,1} cannot contribute and are
    excluded a priori; within a mode, the node count of the band problem at
    lambda_max says how many eigenvalues to solve.
    """
    d = p.dim
    if not lambda_max > d - 1:
        raise ValueError("lambda_max must exceed d-1 to cover the rotation modes")
    lam01 = eigenvalue(band_spec(p, 0.0, "robin"), 1)
    try:
        modes = modes_up_to(d, lambda_max - lam01)
    except ValueError:
        raise ValueError(f"lambda_max={lambda_max:g} needs sphere modes past degree "
                         f"{_MAX_DEGREE}, the most a mode table may hold") from None
    out = []
    for mode in modes:
        spec = band_spec(p, float(mode.mu), "robin")
        for k in range(1, count_below(spec, lambda_max) + 1):
            lam = eigenvalue(spec, k)
            if lam <= lambda_max:
                out.append(_entry(d, mode.ell, k, lam, mode.multiplicity))
    out.sort(key=lambda e: (e.lam, e.source))
    return out


@dataclasses.dataclass(frozen=True)
class LinkSpectrum:
    dim: int
    theta0: float
    H: float
    lambda_max: float
    entries: tuple[LinkEigenvalue, ...]

    @property
    def lambda1(self) -> float:
        return self.entries[0].lam

    def find(self, source: tuple[int, int]) -> LinkEigenvalue:
        for e in self.entries:
            if e.source == tuple(source):
                return e
        raise KeyError(f"no assembled eigenvalue with source {source}")


def link_spectrum(p: ConeProfile, lambda_max: float) -> LinkSpectrum:
    entries = assemble(p, lambda_max)
    return LinkSpectrum(dim=p.dim, theta0=p.theta0, H=p.H,
                        lambda_max=float(lambda_max), entries=tuple(entries))


@dataclasses.dataclass(frozen=True)
class IntegrabilityReport:
    dim: int
    lambda1: float
    strictly_stable: bool
    stability_margin: float  # lambda1 + ((d-2)/2)^2
    dim_kernel0: int
    dim_kernel_d_minus_1: int
    gap_above: float
    match_error_max: float
    verdict: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _clusters(entries, tol):
    """Chain-cluster sorted entries whose eigenvalues differ by <= tol."""
    groups, cur = [], [entries[0]]
    for e in entries[1:]:
        if e.lam - cur[-1].lam <= tol:
            cur.append(e)
        else:
            groups.append(cur)
            cur = [e]
    groups.append(cur)
    return groups


def _match_error(q, target, theta, w):
    """Relative L^2(w) misfit of q against span{target} (sign/scale free)."""
    num = simpson(q * target * w, x=theta)
    den = simpson(target * target * w, x=theta)
    resid = q - (num / den) * target
    return math.sqrt(simpson(resid * resid * w, x=theta)
                     / simpson(q * q * w, x=theta))


def verify_strong_integrability(p: ConeProfile,
                                cfg: SolverConfig | None = None) -> IntegrabilityReport:
    """Strong-integrability verdict for the cone's link.

    Checks strict stability (lambda1 above -((d-2)/2)^2), kernel dimensions
    d at lambda=0 and d-1 at lambda=d-1 with the computed eigenfunctions
    identified against the analytic translation/rotation profiles, and the
    absence of any other eigenvalue at or below d-1.
    """
    cfg = cfg or DEFAULT_CONFIG
    d = p.dim
    spec = link_spectrum(p, 4.0 * d)
    entries = spec.entries
    tol = cfg.cluster_tol

    jf = jacobi_fields(p)
    w = np.sin(p.grid) ** (d - 2)
    analytic = {(0, 1): jf["t1"], (1, 0): jf["tk"], (1, 1): jf["rot"]}

    def identify(entry):
        """Best analytic match for one computed eigenfunction."""
        ell, k = entry.source
        pair = eigen_k(band_spec(p, float(ell * (ell + d - 3)), "robin"), k)
        errs = [_match_error(pair.fn, a, p.grid, w) for a in analytic.values()]
        return min(errs)

    match_err = 0.0
    for group in _clusters(entries, tol):
        near_kernel = abs(group[0].lam) <= tol or abs(group[0].lam - (d - 1)) <= tol
        if len(group) < 2 and not near_kernel:
            continue
        for e in group:
            err = identify(e)
            if err > _FN_TOL and len(group) >= 2:
                raise AmbiguousCluster(
                    f"eigenvalues cluster at {group[0].lam:.9g} but source "
                    f"{e.source} matches no analytic Jacobi field (err {err:.2e})")
            match_err = max(match_err, err)

    half_sq = (0.5 * (d - 2)) ** 2
    margin = entries[0].lam + half_sq
    kernel0 = sum(e.multiplicity for e in entries if abs(e.lam) <= tol)
    kernel_rot = sum(e.multiplicity for e in entries if abs(e.lam - (d - 1)) <= tol)
    strays = [e for e in entries[1:]
              if abs(e.lam) > tol and abs(e.lam - (d - 1)) > tol and e.lam < d - 1]
    above = [e.lam for e in entries if e.lam > d - 1 + tol]
    verdict = (margin > 0 and kernel0 == d and kernel_rot == d - 1 and not strays)
    return IntegrabilityReport(
        dim=d, lambda1=entries[0].lam, strictly_stable=margin > 0,
        stability_margin=margin, dim_kernel0=kernel0,
        dim_kernel_d_minus_1=kernel_rot,
        gap_above=min(above) if above else math.inf,
        match_error_max=match_err, verdict=bool(verdict))


def decay_exponents(entries) -> list[float]:
    """Sorted set of real radial homogeneities gamma_pm across the spectrum.

    Complex-pair entries (radicand < 0) contribute no real exponent and are
    skipped; log-mode entries contribute the single repeated exponent.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("empty spectrum")
    vals = []
    for e in entries:
        if e.complex_radicand:
            continue
        vals.append(e.gamma_plus)
        vals.append(e.gamma_minus)
    if not vals:
        return []
    arr = np.sort(np.asarray(vals))
    keep = [arr[0]]
    for v in arr[1:]:
        if v - keep[-1] > 1e-12:
            keep.append(v)
    return [float(v) for v in keep]
