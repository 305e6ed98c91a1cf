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
from .errors import AmbiguousCluster, InputError
from .profile import ConeProfile, jacobi_fields
from .sl import _LAM_TOL, band_spec, eigen_k, eigenvalue
from .spheremodes import _MAX_DEGREE, SphereMode, modes_up_to

# Analytic-eigenfunction identification threshold (relative L^2).  Not a
# config field: identification is structural and the margin only absorbs
# integrator noise.
_FN_TOL = 1e-5
# Largest h^2*lambda_max on a band grid of step h.  It bounds the only shots
# left, the eigenfunctions shot where a Legendre series fails (an RK4 shot's
# relative error grows like 0.018*(h^2*lambda)^2, d = 7, FD oracle, so it
# stays <= 1e-8).  Eigenvalues come from the Ritz ladder alone and do not use
# the grid, and a Ritz eigenfunction is its Legendre series sampled on it.
_H2_LAMBDA_MAX = 7.5e-4


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

    @classmethod
    def of(cls, d: int, source: tuple[int, int], lam: float, multiplicity: int):
        """Eigenvalue ``lam`` of band mode ``source`` = (ell, k) with its homogeneity data."""
        return cls(lam=lam, multiplicity=multiplicity, source=source, **homogeneity(d, lam))


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


def resolved_lambda_max(p: ConeProfile) -> float:
    """Largest lambda_max the band grid of ``p`` resolves (h^2 lambda_max <= _H2_LAMBDA_MAX)."""
    h = (p.band[1] - p.band[0]) / (p.grid.size - 1)
    return _H2_LAMBDA_MAX / (h * h)


def assemble(p: ConeProfile, lambda_max: float) -> list[LinkEigenvalue]:
    """All link eigenvalues <= lambda_max, sorted, with multiplicities.

    The walk of :func:`_walk` with low = cap = lambda_max: each band problem
    is solved k = 1, 2, ... up to its first eigenvalue at or above
    lambda_max, and the modes end at the first without one below it.  A
    lambda_max past what the band grid resolves (h^2*lambda_max >
    _H2_LAMBDA_MAX) is refused.
    """
    d = p.dim
    if not lambda_max > d - 1:
        raise InputError("lambda_max must exceed d-1 to cover the rotation modes")
    try:
        modes_up_to(d, lambda_max - eigenvalue(band_spec(p, 0.0, "robin"), 1))
    except InputError:
        raise InputError(f"lambda_max={lambda_max:g} needs sphere modes past degree "
                         f"{_MAX_DEGREE}, the most a mode table may hold") from None
    top = resolved_lambda_max(p)
    if lambda_max > top:
        raise InputError(f"lambda_max={lambda_max:g} is past what the band grid resolves: "
                         f"grid_n={p.grid.size - 1} allows lambda_max <= {top:.4g}")
    return [e for e in _walk(p, lambda_max, lambda_max, 0.0) if e.lam <= lambda_max]


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
    """Link spectrum of ``p`` up to ``lambda_max`` (:func:`assemble`)."""
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
    # a roundoff-level residual, about 1e-12, trustworthy to about 3 significant
    # digits (the half-band quadrature moved it by at most 1.2e-4 relative)
    match_error_max: float
    verdict: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _clusters(entries, tol, rel=0.0):
    """Chain-cluster sorted entries whose eigenvalues differ by <= tol + rel max(1, |lam|)."""
    groups, cur = [], [entries[0]]
    for e in entries[1:]:
        if e.lam - cur[-1].lam <= tol + rel * max(1.0, abs(e.lam)):
            cur.append(e)
        else:
            groups.append(cur)
            cur = [e]
    groups.append(cur)
    return groups


def _walk(p: ConeProfile, low: float, cap: float, tol: float) -> list[LinkEigenvalue]:
    """Sorted link eigenvalues below ``low``, and those above it below
    min(best+tol, cap), where best is the smallest eigenvalue above low
    solved so far.

    The walk asks only for band eigenvalues (:func:`conespec.sl.eigenvalue`,
    read off the Ritz ladder): a mode's eigenvalues rise with k, so each mode
    is taken k = 1, 2, ... up to its first eigenvalue past the bound, and a
    mode has an eigenvalue below low when its first one lies there.

    Completeness: 1/sin^2 >= 1 on the band, so by min-max lambda_{ell,k} >=
    mu_ell + lambda_{0,k} (the floor), and the first eigenvalue of a mode
    rises with mu: the modes with eigenvalues below low come first, the walk
    ends at the first mode with mu + lambda_{0,1} > best + tol, and a mode of
    mu > 0 ends unsolved at the first k whose floor, less _LAM_TOL, is past
    the bound (that solve could not lower best; the floors read mode 0's
    eigenvalues up to its first at or above low, which its slice reads too).
    The modes with eigenvalues below low are sliced above it last, once the
    first mode without one (it holds the smallest first eigenvalue of the
    rest) and the rest have set best, so that a low mode's higher eigenvalues
    (say (0, 3)) are not solved on the way to a gap that lies in a higher mode.
    """
    d = p.dim
    best = cap
    spec0 = band_spec(p, 0.0, "robin")
    lam0 = [eigenvalue(spec0, 1)]  # mode 0's eigenvalues up to its first at or above low
    while lam0[-1] < low:
        lam0.append(eigenvalue(spec0, len(lam0) + 1))
    out = []

    def slice_mode(mode, spec):
        """Eigenvalues k = 1, 2, ... of the mode up to the first past its bound
        (solved, not kept) or, for mu > 0, the first whose floor is (unsolved)."""
        nonlocal best
        lams = []
        while True:
            k = len(lams) + 1
            floor = mode.mu + lam0[min(k, len(lam0)) - 1]  # lambda_{0,k} rises with k
            floor -= _LAM_TOL * max(1.0, abs(floor))
            if mode.mu > 0 and floor >= low and floor >= min(best + tol, cap):
                break
            lam = eigenvalue(spec, k)
            if lam > low:
                best = min(best, lam)
            if lam >= low and lam >= min(best + tol, cap):
                break
            lams.append(lam)
        out.extend(LinkEigenvalue.of(d, (mode.ell, k), lam, mode.multiplicity)
                   for k, lam in enumerate(lams, start=1))

    modes = iter(modes_up_to(d, cap - lam0[0]))
    head = []
    for mode in modes:
        spec = band_spec(p, mode.mu, "robin")
        if eigenvalue(spec, 1) >= low:
            slice_mode(mode, spec)
            break
        head.append((mode, spec))
    for mode in modes:  # none below low either
        if mode.mu + lam0[0] > best + tol:
            break
        slice_mode(mode, band_spec(p, mode.mu, "robin"))
    for mode, spec in head:
        slice_mode(mode, spec)
    # eigenvalues that tie to within the solver's tolerance come out by source,
    # not in the order their last bits set
    out.sort(key=lambda e: e.lam)
    return [e for group in _clusters(out, 0.0, _LAM_TOL)
            for e in sorted(group, key=lambda e: e.source)]


def _identify(p: ConeProfile, sources) -> list[float]:
    """Smallest relative L^2(w) misfit of each computed eigenfunction of
    ``sources`` against the span of an analytic translation or rotation
    profile of its parity about pi/2 (sign and scale free): eigenfunction k
    has parity (-1)^(k-1), t1 and rot are odd and tk even.

    A wrong-parity pair is orthogonal (misfit 1); a matched pair's integrands
    are even, so they are taken on the left half band.  Every eigenfunction is
    solved first; then each quantity (the norms, the projections, the
    residuals) is one Simpson call over its rows, each equal to its 1-D call.
    """
    d, half = p.dim, slice(0, p.grid.size // 2 + 1)
    th = p.grid[half]
    jf = jacobi_fields(p)
    w = np.sin(th) ** (d - 2)
    # the analytic translation and rotation profiles as rows, and their L^2(w) norms
    analytic = np.array([jf[a][half] for a in ("t1", "tk", "rot")])
    norms = simpson(analytic * analytic * w, x=th)
    q = np.array([eigen_k(band_spec(p, SphereMode.of(d, ell).mu, "robin"), k).fn[half]
                  for ell, k in sources]).reshape(-1, th.size)
    qq = simpson(q * q * w, x=th)
    # (eigenfunction, profile) rows: an odd one (k even) with t1 and rot, an even one with tk
    pairs = np.array([(i, a) for i, (_, k) in enumerate(sources)
                      for a in ((0, 2) if k % 2 == 0 else (1,))], dtype=int).reshape(-1, 2)
    qs, a = q[pairs[:, 0]], analytic[pairs[:, 1]]
    # one (pair, sample) buffer, in place: q a w, the residual q - (<q, a>/<a, a>) a, its square w
    rows = qs * a
    rows *= w
    proj = simpson(rows, x=th)
    np.multiply((proj / norms[pairs[:, 1]])[:, None], a, out=rows)
    np.subtract(qs, rows, out=rows)
    rows *= rows
    rows *= w
    res = np.full(len(q), np.inf)
    np.minimum.at(res, pairs[:, 0], simpson(rows, x=th))
    return np.sqrt(res / qq).tolist()


def verify_strong_integrability(p: ConeProfile,
                                cfg: SolverConfig | None = None) -> IntegrabilityReport:
    """Strong-integrability verdict for the cone's link.

    Checks strict stability (lambda1 above -((d-2)/2)^2), kernel dimensions
    d at lambda=0 and d-1 at lambda=d-1 with the computed eigenfunctions
    identified against the analytic translation/rotation profiles, and the
    absence of any other eigenvalue at or below d-1.

    Only the bottom of the spectrum is solved, by slicing each sphere mode
    with its eigenvalues in order (:func:`_walk` with low = min(d-1+tol, 4d)
    and cap = 4d), each read off the Ritz ladder: every eigenvalue below low,
    and those below min(best+tol, 4d), where best ends as the gap.  With no
    eigenvalue in (low, 4d] the gap is inf.

    The eigenfunctions of every cluster identified are solved first and
    identified in one pass, by parity on the left half band (:func:`_identify`),
    then checked in cluster order: a failing solve in any cluster raises
    before an AmbiguousCluster in an earlier one.
    """
    cfg = cfg or DEFAULT_CONFIG
    d = p.dim
    tol = cfg.cluster_tol
    entries = _walk(p, min(d - 1 + tol, 4.0 * d), 4.0 * d, tol)

    # the clusters identified: every cluster of two or more, and a lone
    # eigenvalue at 0 or d - 1
    groups = [g for g in _clusters(entries, tol)
              if len(g) >= 2 or abs(g[0].lam) <= tol or abs(g[0].lam - (d - 1)) <= tol]
    errs = iter(_identify(p, [e.source for g in groups for e in g]))
    match_err = 0.0
    for group in groups:
        for e in group:
            err = next(errs)
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
        raise InputError("empty spectrum")
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
