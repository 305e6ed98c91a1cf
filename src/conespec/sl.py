"""Weighted Sturm-Liouville engine on the latitude band.

Solves (sin^{d-2} g')' - mu sin^{d-4} g + lam sin^{d-2} g = 0 on the band
[pi/2 - theta0, pi/2 + theta0], sampled on :func:`conespec.profile.band_grid`,
with Robin (g' + Hg = 0 on the left, -g' + Hg = 0 on the right, H the
cone's mean curvature (d-2) tan(theta0), derived by :attr:`SLSpec.H`) or
Dirichlet conditions.

A spec names its band by the half-width theta0, so the coefficients are even
about pi/2 for every mu (cot is odd, sin^2 even, and the Robin and Dirichlet
data mirror): eigenfunction k has parity (-1)^(k-1) and every eigenpair is
computed on the left half-band only: the k-th eigenpair is the ((k+1)//2)-th
half-band problem with g'(pi/2) = 0 (k odd) or g(pi/2) = 0 (k even), and the
full eigenfunction is its mirror image.

Each eigenvalue is a Rayleigh-Ritz value of the band's weak form

    int w g'v' + mu int w g v / sin^2 - H w(a) (g v)|ends = lam int w g v,

w = sin^{d-2}, on Legendre polynomials in x = (theta - pi/2) / theta0 (times
1 - x^2 under Dirichlet), even and odd degrees apart: a Legendre-Galerkin
method (Shen, "Efficient spectral-Galerkin method I", SIAM J. Sci. Comput. 15,
1994) whose values converge spectrally and, by min-max (Courant and Hilbert,
Methods of Mathematical Physics I), bound the eigenvalues from above
(:func:`_ritz`).  The bases form a ladder: rung r has N_r = min(_RITZ_TOP,
2^r N_0) degrees, N_0 from :func:`_ritz_size`, and vouches for a value when
it and every value of its parity below it agree to _LAM_TOL with those of the
basis with 16 fewer degrees.  Eigenvalue k is the value of the lowest rung
that vouches for it (:func:`_ritz_eigenvalue`): it depends on (spec, k) alone
and not on the grid, and the Ritz cache holds it.  Past the top rung
:func:`eigenvalues` refuses it with an InputError.  The eigenvalues are the
module's one spectral query: a caller that needs how many lie below some lam
takes them in order of k.
:func:`eigen_pairs` takes each eigenfunction as its Ritz vector's Legendre
series on the left half band, mirrored (:func:`_series_fn`, on one basis per
grid size and N for every cone, :func:`_grid_basis`): Ritz vectors are
mass-orthonormal, so the series is normalized and signed on its coefficients,
with no arithmetic on the grid.  A series without the half band's nodes, or
past _BASIS_SIZE samples, is replaced by one lane-batched shot at the
eigenvalues, normalized by Simpson on the grid, whose nodes are checked on
the full band.  Eigenfunctions are not cached.  :func:`band_measure`
integrates the weight over the band on the Ritz basis's Gauss rule.  The
independent finite-difference discretization (:func:`eigen_fd_crosscheck`)
remains the oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ._quad import _derivative, simpson
from .errors import BracketFail, InputError, NonConvergent, ZeroDenominator
from .kernels import propagate_band
from .config import GRID_N_MAX
from .profile import ConeProfile, band_grid, mirror_half

_RITZ_N = (48, 256)  # Legendre degrees of the Ritz ladder's bottom rung: floor and cap
_RITZ_TOP = 1024     # Legendre degrees of its top rung: past it an eigenvalue is refused
_NEWTON_CAP = 20     # Newton steps for the Gauss nodes (4 suffice from Tricomi's estimates)
_LAM_TOL = 1e-10     # Ritz acceptance on each eigenvalue
_BASIS_SIZE = 1 << 22  # samples of one series basis (32 MB): past it eigenfunctions are shot


@dataclasses.dataclass(frozen=True)
class SLSpec:
    dim: int
    half_width: float  # the band is [pi/2 - half_width, pi/2 + half_width]
    mu: float
    bc: str  # 'robin' | 'dirichlet'
    grid_n: int = 4096

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 3):
            raise InputError(f"dimension must be an integer >= 3, got {self.dim!r}")
        if not (isinstance(self.grid_n, (int, np.integer)) and 64 <= self.grid_n <= GRID_N_MAX):
            raise InputError(f"grid_n must be an int in [64, {GRID_N_MAX}], got {self.grid_n!r}")
        if not 0.0 < self.half_width < math.pi / 2:
            raise InputError(f"half-width {self.half_width!r} must lie in (0, pi/2)")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise InputError(f"mu must be a finite number >= 0, got {self.mu!r}")
        if self.bc not in ("robin", "dirichlet"):
            raise InputError(f"bc must be robin|dirichlet, got {self.bc!r}")

    @property
    def H(self) -> float:
        """Robin coefficient: the cone's mean curvature (d-2) tan(half_width), > 0."""
        return (self.dim - 2) * math.tan(self.half_width)


def band_spec(p: ConeProfile, mu: float, bc: str) -> SLSpec:
    """SLSpec on the cone band and grid of ``p``."""
    return SLSpec(dim=p.dim, half_width=p.theta0, mu=float(mu), bc=bc,
                  grid_n=p.grid.size - 1)


@dataclasses.dataclass(frozen=True)
class SLEigenpair:
    k: int
    lam: float
    nodes: int
    fn: np.ndarray
    fn_prime: np.ndarray
    grid: np.ndarray
    bc_residual: tuple[float, float]


def _disc(spec: SLSpec):
    """Full and left half-band grids of a spec: views of its read-only band grid."""
    th = band_grid(spec.half_width, spec.grid_n)
    return {"theta": th, "left": th[: th.size // 2 + 1]}


def _y_left(spec):
    return (1.0, -spec.H) if spec.bc == "robin" else (0.0, 1.0)


def _nodes(g):
    """Sign changes of g; exact zero samples are skipped, not counted as a sign."""
    s = np.sign(g)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def _shots(spec, disc, lams):
    """Left half-band trajectories at each of ``lams``: one (g, g') each.

    Several lams are the lanes of one kernel call; a lone lam is a scalar
    shot, which costs less than a call with one lane.
    """
    args = spec.dim - 2, spec.mu
    if len(lams) == 1:
        return [propagate_band(*args, lams[0], disc["left"], *_y_left(spec))]
    return list(zip(*propagate_band(*args, np.array(lams), disc["left"], *_y_left(spec))))


def _parity(k):
    return "even" if k % 2 == 1 else "odd"


def _assemble_fn(spec, disc, lams, parities):
    """Full-band eigenfunctions (g, g') at ``lams``, of the given parities: the
    left half-band shots and their mirror images, in one normalization by
    Simpson on the band grid (L^2 norm of weight sin^{d-2}), signed g'(a) > 0."""
    th = disc["theta"]
    fns = [mirror_half(g, gp, even=parity == "even", left=True)
           for (g, gp), parity in zip(_shots(spec, disc, lams), parities)]
    g, gp = (np.array(v) for v in zip(*fns))
    # an exact power-of-two prescale keeps g*g finite when g is huge (large mu)
    scale = 2.0 ** np.frexp(np.max(np.abs(g), axis=1))[1][:, None]
    g, gp = g / scale, gp / scale
    norm = np.sqrt(simpson(g * g * np.sin(th) ** (spec.dim - 2), x=th))[:, None]
    if not norm.all():
        raise NonConvergent("assembled eigenfunction has zero norm")
    norm = np.where(gp[:, :1] < 0, -norm, norm)
    return list(zip(g / norm, gp / norm))


@functools.lru_cache(maxsize=4)
def _legendre_basis(n):
    """Half of the (2n + 10)-point Gauss-Legendre rule and the first n Legendre
    polynomials on it: (x, weights, p, p'), where x > 0 are the positive nodes
    and p_j = sqrt(j + 1/2) P_j, j < n, is the orthonormal Legendre basis.

    The nodes are Newton roots of P_{2n+10} from Tricomi's estimates, and
    P_j, P_j' come from the three-term recurrence and P_{j+1}' = P_{j-1}' +
    (2j + 1) P_j.  Built once per n, on first use.
    """
    m = 2 * n + 10
    x = np.cos(math.pi * (np.arange(1, m // 2 + 1) - 0.25) / (m + 0.5))
    for _ in range(_NEWTON_CAP):
        p0, p1 = np.ones_like(x), x
        for j in range(1, m):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    wt = 2.0 / ((1.0 - x * x) * dp * dp)
    p, dp = np.empty((2, n, x.size))
    p[0], dp[0], p[1], dp[1] = 1.0, 0.0, x, 1.0
    for j in range(1, n - 1):
        p[j + 1] = ((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1)
        dp[j + 1] = dp[j - 1] + (2 * j + 1) * p[j]
    scale = np.sqrt(np.arange(n) + 0.5)[:, None]
    return x, wt, p * scale, dp * scale


def band_measure(spec: SLSpec) -> float:
    """int of sin^{d-2} over the band of ``spec``, on the Gauss-Legendre rule of
    the smallest Ritz basis (:func:`_legendre_basis`): theta0 int_{-1}^{1}
    cos^{d-2}(theta0 x) dx, whose even integrand the positive nodes hold.  No
    band grid is built; against the exact reduction of int cos^n it reads
    within 1e-14 relative for d <= 100 and theta0 < pi/2."""
    x, wt, _, _ = _legendre_basis(_RITZ_N[0])
    return 2.0 * spec.half_width * float(wt @ np.cos(spec.half_width * x) ** (spec.dim - 2))


def _ritz_size(spec):
    """Legendre degrees N_0 of the Ritz ladder's bottom rung: 48, or about
    9 (theta0^2 mu)^(1/4) rounded up to a multiple of 16, capped at 256.

    (theta0^2 mu)^(1/4) is the band's half-width over the width of an
    eigenfunction pinned near pi/2 by a large mu; 8.7 of it sufficed for the
    first 16 Ritz values to land within 1e-8 of RK4 shots' eigenvalues.  N_0
    depends on the spec alone.  A value that has not converged on it (high k,
    or past the cap) fails the check of :func:`_ritz` and is taken from a
    higher rung, on 2^r N_0 degrees up to _RITZ_TOP (:func:`_ritz_eigenvalue`).
    """
    q = (spec.half_width ** 2 * spec.mu) ** 0.25
    return min(_RITZ_N[1], max(_RITZ_N[0], 16 * math.ceil(9.0 * q / 16.0)))


@functools.lru_cache(maxsize=4)  # about 92 KB at N = 48, 2.6 MB at N = 256, 42 MB at 1024
def _ritz_forms(dim, half_width, bc, n, parity):
    """The mu-free matrices of :func:`_ritz`'s pencil on one band, parity and N:
    (K0, K1, robin, M, inv), read-only, with S = K0 + mu K1 - robin.

    K0 = int w g'v' and K1 = int w g v / sin^2 over 2 theta0, robin the rank-one
    end term (None under Dirichlet), M the mass matrix and inv the inverse of
    its Cholesky factor.  One band's modes differ only in mu, so they share
    these: verify at one d builds them once per parity.
    """
    x, wt, p, dp = _legendre_basis(n)
    degrees = slice(parity == "odd", n, 2)
    p, dp = p[degrees], dp[degrees]
    c = np.cos(half_width * x)  # sin theta at the nodes
    w = wt * c ** (dim - 2)
    if bc == "dirichlet":
        p, dp = (1.0 - x * x) * p, (1.0 - x * x) * dp - 2.0 * x * p
    # the form over 2 theta0: d/dtheta = (d/dx) / theta0, and the two ends are alike
    k0 = (dp * (w / half_width ** 2)) @ dp.T
    k1 = (p * (w / (c * c))) @ p.T
    robin = None
    if bc == "robin":
        end = np.sqrt(np.arange(n)[degrees] + 0.5)  # p_j(1)
        h = (dim - 2) * math.tan(half_width)  # SLSpec.H
        robin = h * math.cos(half_width) ** (dim - 2) / half_width * np.outer(end, end)
    mass = (p * w) @ p.T
    inv = np.linalg.inv(np.linalg.cholesky(mass))
    forms = k0, k1, robin, mass, inv
    for a in forms:
        if a is not None:
            a.flags.writeable = False
    return forms


@functools.lru_cache(maxsize=256)
def _ritz(spec: SLSpec, parity: str, rung: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Rayleigh-Ritz value of one parity on rung ``rung`` of the ladder,
    N = min(_RITZ_TOP, 2^rung :func:`_ritz_size`) Legendre degrees, and the Ritz
    vectors of the values it vouches for: (values, vectors), vectors[i] the
    coefficients of value i on the basis.

    The weak form of the module docstring is solved on the basis of
    :func:`_legendre_basis`: the even degrees span the even eigenfunctions and
    the odd degrees the odd ones, times (1 - x^2) under Dirichlet.  The
    integrands are even, so the positive Gauss nodes hold them.  Every matrix
    but the mu-product comes from :func:`_ritz_forms`, built once per band,
    parity and N and shared by that band's modes.  A Cholesky
    factor L of the mass matrix M reduces the pencil (S, M) to one ``eigh``; the
    leading rows of L are the Cholesky factor of M's leading block, so the
    leading block of the reduced matrix is the smaller basis's.  Each value is
    the Rayleigh quotient c'Sc / c'Mc of its Ritz vector c mapped back to (S, M),
    which sheds the reduction's roundoff: at the zero eigenvalue (1, 1),
    d = 3..40, the ``eigh`` values read up to 1.1e-10, the quotients 1.3e-13.
    M is the band's L^2(sin^{d-2}) inner product over 2 theta0, and each vector
    c satisfies c'Mc = 1, as Ritz vectors of the reduced pencil do (Parlett,
    The Symmetric Eigenvalue Problem, 1980): to 2.2e-14 over d = 3..40,
    mu <= 1e6 and both bcs.
    The values vouched for are the leading ones that agree to _LAM_TOL
    max(1, |lam|) with those on the first N - 16 degrees, and only their
    vectors are kept.  Everything returned is read-only, as the cache shares it.
    """
    n = min(_RITZ_TOP, _ritz_size(spec) << rung)
    k0, k1, robin, mass, inv = _ritz_forms(spec.dim, spec.half_width, spec.bc, n, parity)
    stiff = k0 + spec.mu * k1
    if robin is not None:
        stiff -= robin
    reduced = inv @ stiff @ inv.T

    def quotients(m):  # values and vectors on the first m rows
        vec = inv[:m, :m].T @ np.linalg.eigh(reduced[:m, :m])[1]
        return ((stiff[:m, :m] @ vec) * vec).sum(0) / ((mass[:m, :m] @ vec) * vec).sum(0), vec

    (values, vec), (coarse, _) = quotients(n // 2), quotients(n // 2 - 8)
    fine = values[:coarse.size]
    agree = np.abs(fine - coarse) <= _LAM_TOL * np.maximum(1.0, np.abs(fine))
    vectors = vec[:, :np.logical_and.accumulate(agree).sum()].T.copy()
    values.flags.writeable = vectors.flags.writeable = False
    return values, vectors


def _top_rung(spec):
    """The ladder's top rung: the first r with 2^r :func:`_ritz_size` >= _RITZ_TOP."""
    return ((_RITZ_TOP - 1) // _ritz_size(spec)).bit_length()


def _vouched(spec, k):
    """(values, vectors) of :func:`_ritz` on the lowest rung of the ladder that
    vouches for eigenvalue k, solving the rungs of its parity from the bottom
    up, or None past the top rung.  A rung of N degrees vouches for at most
    N/2 - 8 values of a parity, so one too small to hold value (k - 1) // 2 is
    skipped unsolved."""
    i = (k - 1) // 2
    for rung in range(_top_rung(spec) + 1):
        if min(_RITZ_TOP, _ritz_size(spec) << rung) // 2 - 8 > i:
            values, vectors = _ritz(spec, _parity(k), rung)
            if i < len(vectors):
                return values, vectors
    return None


def _ritz_eigenvalue(spec, k):
    """The k-th Ritz value on the lowest rung that vouches for it, or None past
    the top rung.  Each rung's N depends on the spec alone, so the answer does
    not depend on the other ks requested."""
    rung = _vouched(spec, k)
    return None if rung is None else float(rung[0][(k - 1) // 2])


@functools.lru_cache(maxsize=2)
def _grid_basis(m, n):
    """The even orthonormal Legendre polynomials p_0, p_2, ..., p_{n-2} on
    x = linspace(-1, 0, m), and the maps from a series' coefficients to those
    of its values and derivative on them: (x, p, maps), read-only.

    Each half of :func:`conespec.profile.band_grid` is a linspace from pi/2, so
    its left half is x = (theta - pi/2) / theta0 at these m samples for every
    half-width: one basis serves every spec of one grid size and N.  p is built
    once per (m, n) by the three-term recurrence, in place.

    An odd polynomial is x times an even one, so even degrees carry every
    series: a series of parity o (0 even, 1 odd) with coefficients c is
    (c @ maps[o][0]) @ p, times x if o is odd, and its derivative is
    (c @ maps[o][1]) @ p, times x if o is even.  The derivative takes
    p_j' = sum over i < j, j - i odd, of sqrt((2i+1)(2j+1)) p_i, and the odd
    series divides by x through x p_j = a_{j+1} p_{j+1} + a_j p_{j-1},
    a_j = j / sqrt(4j^2 - 1).
    """
    x = np.linspace(-1.0, 0.0, m)
    p = np.empty((n // 2, m))
    p[0], odd, tmp = 1.0, x.copy(), np.empty(m)  # P_0 and P_1
    for j in range(1, n - 1, 2):  # P_{j+1} = ((2j + 1) x P_j - j P_{j-1}) / (j + 1), then P_{j+2}
        even = p[(j + 1) // 2]
        np.multiply(x, odd, out=even)
        even *= (2 * j + 1) / (j + 1)
        np.multiply(p[(j - 1) // 2], j / (j + 1), out=tmp)
        even -= tmp
        odd *= -(j + 1) / (j + 2)
        np.multiply(x, even, out=tmp)
        tmp *= (2 * j + 3) / (j + 2)
        odd += tmp
    root = np.sqrt(2.0 * np.arange(n) + 1.0)  # sqrt(2j + 1), by degree
    p *= root[::2, None] / math.sqrt(2.0)
    deriv = [np.where(np.arange(1 - o, n, 2)[None, :] < np.arange(o, n, 2)[:, None],
                      np.outer(root[o::2], root[1 - o::2]), 0.0) for o in (0, 1)]
    a = np.arange(1, n) / np.sqrt(4.0 * np.arange(1, n) ** 2 - 1.0)  # a[j - 1] = a_j
    times_x = np.diag(a[::2]) + np.diag(a[1:-1:2], -1)  # even coefficients -> odd ones of x h
    over_x = np.linalg.inv(times_x)
    maps = np.array([[np.eye(n // 2), deriv[0] @ over_x], [over_x, deriv[1]]])
    p.flags.writeable = maps.flags.writeable = False
    return x, p, maps


def _series_fn(spec, k):
    """Full-band (g, g') of eigenfunction k from its Ritz vector on the lowest
    rung that vouches for eigenvalue k (:func:`_vouched`), summed as a Legendre
    series on the left half band (:func:`_grid_basis`) and mirrored, or None
    past the top rung, where the basis would pass _BASIS_SIZE samples (fine
    grids at large mu), or where the half band does not show the (k - 1) // 2
    nodes of eigenfunction k (at large mu its tails sit below the series'
    roundoff, which changes sign).

    The series is normalized on its coefficients: c'Mc = 1 (:func:`_ritz`) is
    a band norm of 2 theta0, so c / sqrt(2 theta0) has unit norm, and it is
    signed g'(a) > 0 before the mirror.  On the default grid its Simpson norm
    reads within 1.6e-12 of 1 (k <= 8, d = 3..40, mu <= 1e6), Simpson's own
    error.  Each series is summed by its own vector-matrix products, not one
    batched product, so it does not depend on the other ks requested.
    """
    rung = _vouched(spec, k)
    if rung is None:
        return None
    odd = k % 2 == 0
    c = rung[1][(k - 1) // 2]
    m = _disc(spec)["left"].size
    if c.size * m > _BASIS_SIZE:
        return None
    x, p, maps = _grid_basis(m, 2 * c.size)
    c = c / math.sqrt(2.0 * spec.half_width)  # c'Mc = 1 is a band norm of 2 theta0
    g, gx = ((c @ a) @ p for a in maps[int(odd)])
    g, gx = (x * g, gx) if odd else (g, x * gx)
    if spec.bc == "dirichlet":  # 1 - x^2 is exactly 0.0 at x = -1
        g, gx = (1.0 - x * x) * g, (1.0 - x * x) * gx - 2.0 * x * g
    if _nodes(g) != (k - 1) // 2:
        return None
    if gx[0] < 0:
        g, gx = -g, -gx
    return mirror_half(g, gx / spec.half_width, even=not odd, left=True)


def eigenvalues(spec: SLSpec, ks) -> list[float]:
    """Eigenvalues k (each >= 1) of ``ks``, in order: each the Ritz value on the
    lowest rung of the ladder that vouches for it (:func:`_ritz_eigenvalue`),
    held by the Ritz cache.  A k past the top rung is refused: an InputError.
    """
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise InputError("k must be >= 1")
    lams = [_ritz_eigenvalue(spec, k) for k in ks]
    for k, lam in zip(ks, lams):
        if lam is None:
            raise InputError(f"eigenvalue k={k} at mu={spec.mu:g} is past the Ritz ladder: "
                             f"no basis of up to N={_RITZ_TOP} Legendre degrees resolves it")
    return lams


def eigenvalue(spec: SLSpec, k: int) -> float:
    """k-th eigenvalue (k >= 1) of the band problem: :func:`eigenvalues` of one k."""
    return eigenvalues(spec, (k,))[0]


def _eigenpair(spec, th, k, lam, g, gp):
    """Eigenpair k at ``lam`` from its normalized, signed full-band eigenfunction
    (g, g'), whose k - 1 nodes :func:`eigen_pairs` has checked."""
    if spec.bc == "robin":
        resid = (abs(gp[0] + spec.H * g[0]), abs(-gp[-1] + spec.H * g[-1]))
    else:
        resid = (abs(g[0]), abs(g[-1]))
    return SLEigenpair(k=k, lam=lam, nodes=k - 1, fn=g, fn_prime=gp, grid=th,
                       bc_residual=resid)


def eigen_pairs(spec: SLSpec, ks) -> list[SLEigenpair]:
    """Eigenpairs k of ``ks``: their eigenvalues (:func:`eigenvalues`) with their
    eigenfunctions, each of unit L^2 norm of weight sin^{d-2} and signed g'(a) > 0.

    An eigenfunction is its Legendre series (:func:`_series_fn`), normalized
    on its Ritz coefficients with no grid arithmetic, or, where there is no
    series, one of a lane-batched assembly of shots normalized by Simpson on
    the grid (:func:`_assemble_fn`).  Only a shot eigenfunction
    has its nodes counted on the full band (BracketFail unless k - 1): a series
    has shown (k - 1) // 2 on its half band, and its mirror adds the rest.  The
    eigenfunctions are not cached.
    """
    ks = [int(k) for k in ks]
    lams = eigenvalues(spec, ks)
    disc = _disc(spec)
    fns = [_series_fn(spec, k) for k in ks]
    shot = [i for i, fn in enumerate(fns) if fn is None]
    if shot:
        assembled = _assemble_fn(spec, disc, [lams[i] for i in shot],
                                 [_parity(ks[i]) for i in shot])
        for i, fn in zip(shot, assembled):
            nodes = _nodes(fn[0])
            if nodes != ks[i] - 1:
                raise BracketFail(
                    f"eigenfunction for k={ks[i]} has {nodes} nodes (grid too coarse?)")
            fns[i] = fn
    return [_eigenpair(spec, disc["theta"], k, lam, *fn) for k, lam, fn in zip(ks, lams, fns)]


def eigen_k(spec: SLSpec, k: int) -> SLEigenpair:
    """k-th eigenpair (k >= 1): :func:`eigen_pairs` of one k."""
    return eigen_pairs(spec, (k,))[0]


def _fv_robin(dim: int, half_width: float, mu: float, n: int):
    """Finite-volume Robin operator on n cells of the band: (diag, off, w, lump).

    Fluxes use the weight at half-points; the mu-term and the mass matrix are
    lumped by the trapezoid rule (half cells at the two ends).  Robin data
    H = (d-2) tan(half_width) enters the endpoint diagonal with the negative
    sign of the quadratic form boundary term.  The interior rows are the
    Dirichlet operator.
    """
    H = (dim - 2) * math.tan(half_width)
    a, b = math.pi / 2 - half_width, math.pi / 2 + half_width
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
    """Mass-symmetrized finite-volume operator on n cells: (diagonal, off-diagonal).

    Oracle only (:func:`eigen_fd_crosscheck`); the solver solves by :func:`_ritz`.
    """
    diag, off, w, lump = _fv_robin(spec.dim, spec.half_width, spec.mu, n)
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


def eigen_fd_crosscheck(spec: SLSpec, count: int) -> np.ndarray:
    """Independent finite-difference eigenvalues (the in-repo oracle).

    The O(h^2) values on n and 2n cells are Richardson extrapolated to
    (4*v_{2n} - v_n)/3.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    n = spec.grid_n
    v1 = _fd_values(spec, count, n)
    v2 = _fd_values(spec, count, 2 * n)
    return (4.0 * v2 - v1) / 3.0


def rayleigh(spec: SLSpec, g: np.ndarray, gp: np.ndarray | None = None) -> float:
    """Rayleigh quotient of a sampled trial function on the spec's grid.

    Numerator: int w g'^2 + mu int sin^{d-4} g^2 - H w(a) g(a)^2 - H w(b) g(b)^2
    (boundary term present for Robin only), denominator int w g^2.
    """
    th = _disc(spec)["theta"]
    g = np.asarray(g, dtype=float)
    if g.shape != th.shape:
        raise InputError(f"trial function must be sampled on the {th.size}-point grid")
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
        num -= spec.H * (w[0] * g[0] ** 2 + w[-1] * g[-1] ** 2)
    return float(num / den)
