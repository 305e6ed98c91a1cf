"""Construction of the axially symmetric cone profile.

The cone is U(r, theta) = r*g(theta) over the latitude band
[pi/2 - theta0, pi/2 + theta0], where g solves

    g'' + (d-2) cot(theta) g' + (d-1) g = 0,   g(pi/2) = 1, g'(pi/2) = 0,

theta0 is the first zero of g past pi/2, and g is rescaled so |g'| = 1 at
both band endpoints (the free-boundary gradient condition).  The boundary
mean curvature is H = (d-2) tan(theta0).

In z = cos^2(theta) the equation is hypergeometric, and its solution even
about pi/2 is the series (Abramowitz and Stegun ch. 15; DLMF 15.2.1)

    g = 2F1(-1/2, (d-1)/2; 1/2; z) = sum a_k z^k,
    a_0 = 1,  a_{k+1} / a_k = (k - 1/2)(k + (d-1)/2) / ((k + 1)(k + 1/2)).

Every term past a_0 is negative, so g falls and is concave in z, and Newton's
method from z = 2/d reaches the series' root z0 from the g < 0 side.  Then
theta0 = asin(sqrt(z0)), and |g'| = sin(2 theta0) |dg/dz| at the band end
gives the normalization.  The profile on the grid is one shot of the band
kernel over the right half band, mirrored.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import EvaluationUnstable, InputError, NoZeroFound
from .kernels import propagate_band

# Newton steps allowed for the aperture root; 4 suffice for every d tried (3 to 1000).
_NEWTON_CAP = 20


@dataclasses.dataclass(frozen=True, eq=False)  # hashed by identity: a memo key
class ConeProfile:
    dim: int
    theta0: float
    grid: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    H: float
    norm_c: float

    @property
    def band(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "theta0": self.theta0,
            "H": self.H,
            "norm_c": self.norm_c,
            "grid": self.grid.tolist(),
            "g": self.g.tolist(),
            "g_prime": self.g_prime.tolist(),
        }


def band_points(grid_n: int) -> int:
    """Number of band grid points: smallest 4k+1 >= grid_n+1.

    Both the full band and each half then have an even panel count, so
    composite Simpson applies everywhere without ad hoc end corrections.
    """
    n = grid_n + 1
    rem = (n - 1) % 4
    if rem:
        n += 4 - rem
    return n


_band_grids: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def band_grid(half_width: float, grid_n: int) -> np.ndarray:
    """Grid of every band problem: [pi/2 - half_width, pi/2 + half_width] on band_points(grid_n)
    points, each half a linspace from pi/2 outward; one read-only array per half-width and
    size for as long as anything holds it (a profile holds its own)."""
    key = half_width, band_points(grid_n)
    grid = _band_grids.get(key)
    if grid is None:
        halves = np.linspace(math.pi / 2, math.pi / 2 + np.array([-half_width, half_width]),
                             key[1] // 2 + 1)  # columns: the left half and the right half
        grid = np.concatenate([halves[::-1, 0], halves[1:, 1]])
        grid.flags.writeable = False
        _band_grids[key] = grid
    return grid


def mirror_half(g, gp, even: bool, left: bool):
    """Full-band (g, g') from the half band ending (``left``) or starting at pi/2:
    the other half mirrors it, g even or odd and g' the opposite (an odd image negated)."""
    def full(h, odd):
        image = h[-2::-1] if left else h[:0:-1]
        if odd:
            image = -image
        return np.concatenate([h, image] if left else [image, h])
    return full(g, not even), full(gp, even)


def _series(d, z):
    """g(z) and dg/dz from the aperture series, summed until a term of z dg/dz
    no longer moves 1.0 (a term of g is smaller still)."""
    b = (d - 1) / 2
    term, g, z_dg, k = 1.0, 1.0, 0.0, 0
    while True:
        term *= (k - 0.5) * (k + b) / ((k + 1) * (k + 0.5)) * z
        k += 1
        if 1.0 + k * term == 1.0:
            return g, z_dg / z
        g += term
        z_dg += k * term


def _aperture(d):
    """(theta0, norm_c) from the root of the series in z = cos^2(theta) by Newton.

    From the first step on every iterate lies on the g < 0 side and z falls, so
    the root is the iterate where a step stops falling.
    """
    z = 2.0 / d
    for step in range(_NEWTON_CAP):
        g, dg = _series(d, z)
        z_next = z - g / dg
        if not 0.0 < z_next < 1.0:
            break
        if step and not z_next < z:
            return math.asin(math.sqrt(z)), 1.0 / (2.0 * math.sqrt(z * (1.0 - z)) * abs(dg))
        z = z_next
    raise NoZeroFound(f"aperture series for d={d} has no root in (0, 1) "
                      f"after {step + 1} Newton steps (z={z_next!r})")


def solve_profile(d: int, cfg: SolverConfig | None = None) -> ConeProfile:
    """Find the aperture and the normalized profile for dimension d >= 3.

    The profile depends on ``cfg.grid_n`` alone, and each (d, grid_n) is solved
    once per process: callers share one profile, whose arrays are read-only.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (isinstance(d, (int, np.integer)) and d >= 3):
        raise InputError(f"dimension must be an integer >= 3, got {d!r}")
    return _solved_profile(int(d), cfg.grid_n)


@functools.lru_cache(maxsize=8)  # one profile holds about 96 KB at grid_n 4096
def _solved_profile(d: int, grid_n: int) -> ConeProfile:
    theta0, norm_c = _aperture(d)
    grid = band_grid(theta0, grid_n)
    g_r, gp_r = propagate_band(d - 2, 0.0, d - 1, grid[grid.size // 2:], 1.0, 0.0)

    # g is even about pi/2 (cot is odd there), so the left half is the mirror image
    g_all, gp_all = (norm_c * v for v in mirror_half(g_r, gp_r, even=True, left=False))
    g_all[0] = g_all[-1] = 0.0  # g vanishes on the free boundary, up to the shot's error
    g_all.flags.writeable = gp_all.flags.writeable = False

    return ConeProfile(dim=d, theta0=theta0, grid=grid, g=g_all, g_prime=gp_all,
                       H=(d - 2) * math.tan(theta0), norm_c=norm_c)


def jacobi_fields(p: ConeProfile) -> dict[str, np.ndarray]:
    """Theta-profiles of the analytic Jacobi-field families.

    t1: axial translation, cos(theta) g - sin(theta) g'   (sphere degree 0)
    tk: transverse translation, cos(theta) g' + sin(theta) g  (degree 1)
    rot: rotation, g'                                        (degree 1)
    """
    th = p.grid
    return {
        "t1": np.cos(th) * p.g - np.sin(th) * p.g_prime,
        "tk": np.cos(th) * p.g_prime + np.sin(th) * p.g,
        "rot": p.g_prime.copy(),
    }


def _legendre_values(d, x, dps):
    """Closed-form angular factor at x = cos(theta), at mpmath precision dps."""
    import mpmath as mp

    vals = np.empty(x.size)
    with mp.workdps(dps):
        if d % 2 == 1:
            # integer order/degree, second kind
            from scipy.special import lqmn

            m, nu = (d - 3) // 2, (d - 1) // 2
            for j, xx in enumerate(x):
                vals[j] = lqmn(m, nu, float(xx))[0][m][nu]
        else:
            # half-integer order/degree, first kind (Ferrers)
            m, nu = (d - 3) / 2.0, (d - 1) / 2.0
            for j, xx in enumerate(x):
                vals[j] = float(mp.legenp(nu, m, float(xx), type=2))
    return vals


def legendre_crosscheck(p: ConeProfile) -> float:
    """Max relative deviation of the profile from its Legendre closed form.

    The closed form is c * (1-x^2)^{-(d-3)/4} * F(x) with F an associated
    Legendre function (second kind for odd d, Ferrers first kind for even d),
    normalized to match g at theta = pi/2.
    """
    d = p.dim
    idx = np.arange(0, p.grid.size, max(1, (p.grid.size - 1) // 256))
    mid = p.grid.size // 2
    if mid not in idx:
        idx = np.sort(np.append(idx, mid))
    th = p.grid[idx]
    x = np.cos(th)

    F = _legendre_values(d, x, 30)
    if d % 2 == 0:  # mpmath path: spot-check precision on a small subset
        spot = idx[:: max(1, len(idx) // 8)]
        F_lo = _legendre_values(d, np.cos(p.grid[spot]), 30)
        F_hi = _legendre_values(d, np.cos(p.grid[spot]), 60)
        scale = np.max(np.abs(F_hi)) or 1.0
        if np.max(np.abs(F_lo - F_hi)) > 1e-8 * scale:
            raise EvaluationUnstable("Legendre evaluation unstable between dps=30 and dps=60")

    closed = (1.0 - x ** 2) ** (-(d - 3) / 4.0) * F
    mid_pos = int(np.searchsorted(idx, mid))
    scale = p.g[mid] / closed[mid_pos]
    return float(np.max(np.abs(closed * scale - p.g[idx])) / np.max(np.abs(p.g)))
