"""Weighted Sturm-Liouville engine on the latitude band.

Solves (sin^{d-2} g')' - mu sin^{d-4} g + lam sin^{d-2} g = 0 on
[pi/2 - theta0, pi/2 + theta0] with Robin (g' + Hg = 0 on the left,
-g' + Hg = 0 on the right) or Dirichlet conditions.

The band must be symmetric about pi/2.  The coefficients are then even
about pi/2 for every mu (cot is odd, sin^2 even, and the Robin and Dirichlet
data mirror), so eigenfunction k has parity (-1)^(k-1) and every eigenpair is
computed on the left half-band only: the k-th eigenpair is the ((k+1)//2)-th
half-band problem with g'(pi/2) = 0 (k odd) or g(pi/2) = 0 (k even), and the
full eigenfunction is its mirror image.

Each eigenvalue is found in three steps.  Coarse finite-volume solves
seed a narrow bracket around it: dense numpy eigenproblems on 64 and 128
cells with Richardson, once per (spec, parity) and cached, each on the half
matrix of its own parity only.  Two node counts on shooting trajectories
validate that bracket (the count uses the Pruefer phase of the endpoint
state, so no phase ODE is integrated); when they disagree, node-count
bisection from a wide bracket isolates the eigenvalue instead.  Brent's
method on the midpoint defect then gives the value.  A counting shot's last
point is the end state, so its defect is kept and Brent does not shoot the
validated endpoints again; every other Brent shot needs only the end state
(:func:`propagate_band_end`).  Both parities start from the same left
state, so :func:`count_below` reads both counts off one trajectory.
Eigenvalues are memoized per (spec, k, config) by :func:`eigenvalue`;
:func:`eigen_k` adds one trajectory shot to assemble the eigenfunction,
which is not cached.
The seeds only choose the bracket, so the independent finite-difference
discretization (:func:`eigen_fd_crosscheck`, Richardson on the spec's own
grid, solved by LAPACK through scipy) remains the oracle for derived
eigenvalues.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ._quad import brentq, simpson
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import BracketFail, NonConvergent, ZeroDenominator
from .kernels import propagate_band, propagate_band_end
from .profile import ConeProfile, band_points

_EXPAND_CAP = 60
_BISECT_CAP = 300
_SYMMETRY_TOL = 1e-12
_SEED_COUNT = 16     # seeded eigenvalues per spec, half per parity; higher k bisect
_SEED_REL = 1e-3     # bracket half-width relative to max(1, |seed|)
_MEMO_SIZE = 4096    # memoized eigenvalues (floats only)


@dataclasses.dataclass(frozen=True)
class SLSpec:
    dim: int
    band: tuple[float, float]
    mu: float
    bc: str  # 'robin' | 'dirichlet'
    H: float = 0.0
    grid_n: int = 4096

    def __post_init__(self):
        a, b = self.band
        if not (0.0 < a < b < math.pi):
            raise ValueError(f"band {self.band} must lie strictly inside (0, pi)")
        if abs(a + b - math.pi) > _SYMMETRY_TOL:
            raise ValueError(f"band {self.band} must be symmetric about pi/2")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.bc not in ("robin", "dirichlet"):
            raise ValueError(f"bc must be robin|dirichlet, got {self.bc!r}")
        if self.bc == "robin" and not self.H > 0:
            raise ValueError("Robin problems require H > 0")


def band_spec(p: ConeProfile, mu: float, bc: str) -> SLSpec:
    """SLSpec on the cone band and grid of ``p`` (H taken from the cone for Robin)."""
    return SLSpec(dim=p.dim, band=p.band, mu=float(mu), bc=bc,
                  H=p.H if bc == "robin" else 0.0, grid_n=p.grid.size - 1)


@dataclasses.dataclass(frozen=True)
class SLEigenpair:
    k: int
    lam: float
    nodes: int
    fn: np.ndarray
    fn_prime: np.ndarray
    grid: np.ndarray
    bc_residual: tuple[float, float]


@functools.lru_cache(maxsize=128)
def _disc(spec: SLSpec):
    """Grids and endpoint data shared by all shots for one spec."""
    a, b = spec.band
    n = band_points(spec.grid_n)
    th = np.linspace(a, b, n)
    half = (n - 1) // 2
    return {
        "theta": th,
        "left": th[: half + 1],
        "w_a": math.sin(a) ** (spec.dim - 2),
        "w_b": math.sin(b) ** (spec.dim - 2),
    }


def _y_left(spec):
    return (1.0, -spec.H) if spec.bc == "robin" else (0.0, 1.0)


def _nodes(g):
    """Sign changes of g; exact zero samples are skipped, not counted as a sign."""
    s = np.sign(g)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


# Pruefer phase at pi/2 that the half-band eigenfunction hits:
# g'(pi/2) = 0 (even) or g(pi/2) = 0 (odd).
_TARGET_PHASE = {"even": math.pi / 2, "odd": math.pi}


def _half_shot(spec, disc, lam):
    """Trajectory shot on the left half-band: (nodes, g(pi/2), g'(pi/2))."""
    g, gp = propagate_band(spec.dim - 2, spec.mu, lam, disc["left"], *_y_left(spec))
    return _nodes(g), float(g[-1]), float(gp[-1])


def _phase_count(nodes, g_end, gp_end, parity):
    """Half-band eigenvalues of ``parity`` strictly below the shot's lam.

    The Pruefer phase at pi/2 is nodes*pi + frac with frac in (0, pi]; the
    count is nodes + [frac > target phase].
    """
    frac = math.atan2(g_end, gp_end)
    if frac <= 0.0:
        frac += math.pi
    return nodes + (1 if frac > _TARGET_PHASE[parity] else 0)


def _defect(g_end, gp_end, parity):
    """Normalized midpoint defect: g'(pi/2) (even) or g(pi/2) (odd)."""
    return (gp_end if parity == "even" else g_end) / math.hypot(g_end, gp_end)


def _defect_half(spec, disc, parity, lam):
    g, gp = propagate_band_end(spec.dim - 2, spec.mu, lam, disc["left"], *_y_left(spec))
    return _defect(g, gp, parity)


def _isolate(count_fn, k, lo, hi):
    """Shrink [lo, hi] until it contains exactly the k-th eigenvalue."""
    n_lo = count_fn(lo)
    steps = 0
    while n_lo > k - 1:
        hi, lo = lo, 2.0 * lo if lo < 0 else lo - 10.0
        n_lo = count_fn(lo)
        steps += 1
        if steps > _EXPAND_CAP:
            raise NonConvergent("lower bracket expansion exceeded cap")
    n_hi = count_fn(hi)
    while n_hi < k:
        hi = 2.0 * hi if hi > 0 else 10.0
        n_hi = count_fn(hi)
        steps += 1
        if steps > _EXPAND_CAP:
            raise NonConvergent("upper bracket expansion exceeded cap")
    while n_lo < k - 1 or n_hi > k:
        mid = 0.5 * (lo + hi)
        n_mid = count_fn(mid)
        if n_mid < n_lo or n_mid > n_hi:
            raise BracketFail(
                f"node count not monotone at lam={mid} (got {n_mid} in [{n_lo},{n_hi}])")
        if n_mid >= k:
            hi, n_hi = mid, n_mid
        else:
            lo, n_lo = mid, n_mid
        steps += 1
        if steps > _BISECT_CAP:
            raise NonConvergent("eigenvalue isolation exceeded iteration cap")
    return lo, hi


def _assemble_fn(spec, disc, lam, parity):
    """Full-band eigenfunction: the left half-band shot and its mirror image."""
    g, gp = propagate_band(spec.dim - 2, spec.mu, lam, disc["left"], *_y_left(spec))
    if parity == "even":
        return np.concatenate([g, g[-2::-1]]), np.concatenate([gp, -gp[-2::-1]])
    return np.concatenate([g, -g[-2::-1]]), np.concatenate([gp, gp[-2::-1]])


def count_below(spec: SLSpec, lam: float) -> int:
    """Number of band eigenvalues strictly below ``lam`` (one trajectory shot)."""
    shot = _half_shot(spec, _disc(spec), lam)
    return _phase_count(*shot, "even") + _phase_count(*shot, "odd")


@functools.lru_cache(maxsize=256)
def _seeds(spec: SLSpec, parity: str) -> tuple[float, ...]:
    """Coarse finite-volume eigenvalues of one parity that seed the brackets.

    The symmetric finite-volume matrix is persymmetric about its centre node
    c, so each eigenvector is even or odd about c and each parity is the
    spectrum of a half matrix: nodes 0..c with the last coupling scaled by
    sqrt(2), which keeps the half matrix symmetric (even), or nodes 0..c-1
    with the centre value 0 (odd).  Dense symmetric solves on 64 and 128
    cells, Richardson extrapolated like :func:`eigen_fd_crosscheck`.
    """
    vals = []
    for n in (64, 128):
        dd, ee = _fv_sym(spec, n)
        c = dd.size // 2
        if parity == "even":
            dd, ee = dd[:c + 1], ee[:c].copy()
            ee[-1] *= math.sqrt(2.0)
        else:
            dd, ee = dd[:c], ee[:c - 1]
        dense = np.diag(dd) + np.diag(ee, 1) + np.diag(ee, -1)
        vals.append(np.linalg.eigvalsh(dense)[:_SEED_COUNT // 2])
    v1, v2 = vals
    return tuple(float(v) for v in (4.0 * v2 - v1) / 3.0)


def _bracket(spec, parity, idx, count_fn):
    """Bracket holding the idx-th half-band eigenvalue of ``parity`` and no other."""
    if idx <= _SEED_COUNT // 2:
        seed = _seeds(spec, parity)[idx - 1]
        half = _SEED_REL * max(1.0, abs(seed))
        lo, hi = seed - half, seed + half
        if count_fn(lo) == idx - 1 and count_fn(hi) == idx:
            return lo, hi
    lo0 = -10.0 - 2.0 * (spec.dim ** 2 + spec.H ** 2)
    hi0 = float(spec.dim ** 2 + spec.mu + 10.0)
    return _isolate(count_fn, idx, lo0, hi0)


def eigenvalue(spec: SLSpec, k: int, cfg: SolverConfig | None = None) -> float:
    """k-th eigenvalue (k >= 1) of the band problem, memoized per process."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _eigenvalue(spec, k, cfg or DEFAULT_CONFIG)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _eigenvalue(spec, k, cfg):
    disc = _disc(spec)
    parity = "even" if k % 2 == 1 else "odd"
    idx = (k + 1) // 2
    shots = {}  # lam -> defect, from counting and Brent shots alike

    def count_fn(lam):
        nodes, g, gp = _half_shot(spec, disc, lam)
        shots[lam] = _defect(g, gp, parity)
        return _phase_count(nodes, g, gp, parity)

    def defect_fn(lam):
        if lam not in shots:
            shots[lam] = _defect_half(spec, disc, parity, lam)
        return shots[lam]

    lo, hi = _bracket(spec, parity, idx, count_fn)
    shrink = 0
    while defect_fn(lo) * defect_fn(hi) > 0.0:
        # The defect is entire with a single simple zero inside; a same-sign
        # bracket means an endpoint sits numerically on the zero - tighten.
        mid = 0.5 * (lo + hi)
        if count_fn(mid) >= idx:
            hi = mid
        else:
            lo = mid
        shrink += 1
        if shrink > 80:
            raise NonConvergent("defect refinement could not find a sign change")
    return float(brentq(defect_fn, lo, hi, xtol=cfg.lam_tol))


def eigen_k(spec: SLSpec, k: int, cfg: SolverConfig | None = None) -> SLEigenpair:
    """k-th eigenpair (k >= 1): the memoized eigenvalue and one assembly shot."""
    lam = eigenvalue(spec, k, cfg)
    disc = _disc(spec)
    g, gp = _assemble_fn(spec, disc, lam, "even" if k % 2 == 1 else "odd")
    th = disc["theta"]
    w = np.sin(th) ** (spec.dim - 2)
    norm = math.sqrt(simpson(g * g * w, x=th))
    if norm == 0.0:
        raise NonConvergent("assembled eigenfunction has zero norm")
    g, gp = g / norm, gp / norm
    if gp[0] < 0:
        g, gp = -g, -gp

    nodes = _nodes(g)
    if nodes != k - 1:
        raise BracketFail(f"eigenfunction for k={k} has {nodes} nodes (grid too coarse?)")
    if spec.bc == "robin":
        resid = (abs(gp[0] + spec.H * g[0]), abs(-gp[-1] + spec.H * g[-1]))
    else:
        resid = (abs(g[0]), abs(g[-1]))
    return SLEigenpair(k=k, lam=lam, nodes=nodes, fn=g, fn_prime=gp, grid=th,
                       bc_residual=resid)


def _fv_robin(dim: int, band: tuple[float, float], mu: float, H: float, n: int):
    """Finite-volume Robin operator on n cells: (diag, off, w, lump).

    Fluxes use the weight at half-points; the mu-term and the mass matrix are
    lumped by the trapezoid rule (half cells at the two ends).  Robin data
    enters the endpoint diagonal with the negative sign of the quadratic form
    boundary term.  The interior rows are the Dirichlet operator.
    """
    a, b = band
    h = (b - a) / n
    th = np.linspace(a, b, n + 1)
    p_half = np.sin(th[:-1] + h / 2) ** (dim - 2)
    w = np.sin(th) ** (dim - 2)
    s = w / np.sin(th) ** 2  # sin^{d-4}
    lump = np.full(n + 1, h)
    lump[0] = lump[-1] = h / 2
    diag = np.empty(n + 1)
    diag[1:-1] = (p_half[:-1] + p_half[1:]) / h + mu * s[1:-1] * lump[1:-1]
    diag[0] = p_half[0] / h + mu * s[0] * lump[0] - H * w[0]
    diag[-1] = p_half[-1] / h + mu * s[-1] * lump[-1] - H * w[-1]
    off = -p_half / h
    return diag, off, w, lump


def _fv_sym(spec: SLSpec, n: int):
    """Mass-symmetrized finite-volume operator on n cells: (diagonal, off-diagonal)."""
    diag, off, w, lump = _fv_robin(spec.dim, spec.band, spec.mu, spec.H, n)
    mass = w * lump
    if spec.bc == "dirichlet":
        diag, off, mass = diag[1:-1], off[1:-1], mass[1:-1]
    return diag / mass, off / np.sqrt(mass[:-1] * mass[1:])


def _fd_values(spec: SLSpec, count: int, n: int) -> np.ndarray:
    """First eigenvalues of the symmetric finite-volume discretization (LAPACK stebz)."""
    from scipy.linalg import eigh_tridiagonal  # oracle only: keeps scipy off the solver path

    dd, ee = _fv_sym(spec, n)
    return eigh_tridiagonal(dd, ee, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def eigen_fd_crosscheck(spec: SLSpec, count: int, richardson: bool = True) -> np.ndarray:
    """Independent finite-difference eigenvalues (the in-repo oracle).

    With ``richardson`` the O(h^2) values on n and 2n cells are extrapolated
    to (4*v_{2n} - v_n)/3.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = spec.grid_n
    v1 = _fd_values(spec, count, n)
    if not richardson:
        return v1
    v2 = _fd_values(spec, count, 2 * n)
    return (4.0 * v2 - v1) / 3.0


def _derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    d = np.empty_like(vals)
    d[2:-2] = (-vals[4:] + 8 * vals[3:-1] - 8 * vals[1:-3] + vals[:-4]) / (12 * h)
    for i in (0, 1):
        d[i] = (-25 * vals[i] + 48 * vals[i + 1] - 36 * vals[i + 2]
                + 16 * vals[i + 3] - 3 * vals[i + 4]) / (12 * h)
        d[-1 - i] = (25 * vals[-1 - i] - 48 * vals[-2 - i] + 36 * vals[-3 - i]
                     - 16 * vals[-4 - i] + 3 * vals[-5 - i]) / (12 * h)
    return d


def rayleigh(spec: SLSpec, g: np.ndarray, gp: np.ndarray | None = None) -> float:
    """Rayleigh quotient of a sampled trial function on the spec's grid.

    Numerator: int w g'^2 + mu int sin^{d-4} g^2 - H w(a) g(a)^2 - H w(b) g(b)^2
    (boundary term present for Robin only), denominator int w g^2.
    """
    disc = _disc(spec)
    th = disc["theta"]
    g = np.asarray(g, dtype=float)
    if g.shape != th.shape:
        raise ValueError(f"trial function must be sampled on the {th.size}-point grid")
    if gp is None:
        gp = _derivative(g, th[1] - th[0])
    w = np.sin(th) ** (spec.dim - 2)
    den = simpson(g * g * w, x=th)
    if not den > 0:
        raise ZeroDenominator("trial function has vanishing L^2(w) norm")
    num = simpson(gp * gp * w, x=th)
    if spec.mu:
        num += spec.mu * simpson(g * g * w / np.sin(th) ** 2, x=th)
    if spec.bc == "robin":
        num -= spec.H * (disc["w_a"] * g[0] ** 2 + disc["w_b"] * g[-1] ** 2)
    return float(num / den)
