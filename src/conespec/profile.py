"""Construction of the axially symmetric cone profile.

The cone is U(r, theta) = r*g(theta) over the latitude band
[pi/2 - theta0, pi/2 + theta0], where g solves

    g'' + (d-2) cot(theta) g' + (d-1) g = 0,   g(pi/2) = 1, g'(pi/2) = 0,

theta0 is the first zero of g past pi/2, and g is rescaled so |g'| = 1 at
both band endpoints (the free-boundary gradient condition).  The boundary
mean curvature is H = (d-2) tan(theta0).

The first zero is found in two steps: a hunt shot block by block along a
fine grid until g changes sign, then Brent's method inside that hunt cell,
each value an end-state shot from the cell's left end.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from ._quad import brentq
from .errors import EvaluationUnstable, NoZeroFound
from .kernels import propagate_band, propagate_band_end

# Hunt window for the first zero: stay clear of the cot(theta) pole at pi.
_HUNT_END_MARGIN = 0.01
# Hunt steps integrated per shot; the hunt stops at the first block with a zero.
_HUNT_BLOCK = 1024
# Brent tolerance on the aperture root.
_ROOT_TOL = 1e-12


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


def band_grid(half_width: float, grid_n: int) -> np.ndarray:
    """Grid of every band problem: [pi/2 - half_width, pi/2 + half_width] on band_points(grid_n)
    points, each half a linspace from pi/2 outward; one read-only array per half-width and size."""
    return _band_grid(half_width, band_points(grid_n))


@functools.lru_cache(maxsize=128)  # 32 KB per 4,097-point grid
def _band_grid(half_width, n):
    halves = np.linspace(math.pi / 2, math.pi / 2 + np.array([-half_width, half_width]),
                         n // 2 + 1)  # columns: the left half and the right half
    grid = np.concatenate([halves[::-1, 0], halves[1:, 1]])
    grid.flags.writeable = False
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


def _refined_root(d, lo, y_lo, hi):
    """Brent's method for the zero of g in [lo, hi]: (root, g'(root)).

    Each value at theta > lo is an end-state shot from lo on a 33-point grid;
    the state at lo is the hunt's.
    """
    states = {lo: y_lo}

    def g_at(theta):
        if theta not in states:
            states[theta] = propagate_band_end(d - 2, 0.0, d - 1,
                                               np.linspace(lo, theta, 33), *y_lo)
        return states[theta][0]

    root = brentq(g_at, lo, hi, _ROOT_TOL)
    return root, states[root][1]


def _hunt_sign_change(d, n_hunt):
    """Last hunt point with g > 0, its state (g, g'), and the next hunt point.

    The hunt grid runs from pi/2 towards the cot pole at pi.  Past the first
    zero the solution blows up (it overflows for d in the hundreds), so the
    grid is shot block by block, each block starting from the previous
    block's end state, and the hunt stops at the first block where g <= 0.
    """
    hunt = np.linspace(math.pi / 2, math.pi - _HUNT_END_MARGIN, n_hunt + 1)
    state = (1.0, 0.0)
    for start in range(0, n_hunt, _HUNT_BLOCK):
        block = hunt[start:start + _HUNT_BLOCK + 1]
        g, gp = propagate_band(d - 2, 0.0, d - 1, block, *state)
        below = np.nonzero(g <= 0.0)[0]
        if below.size:
            i = int(below[0])
            return block[i - 1], (g[i - 1], gp[i - 1]), block[i]
        state = (g[-1], gp[-1])
    raise NoZeroFound(f"profile for d={d} has no zero before theta={hunt[-1]:.4f}")


def solve_profile(d: int, cfg: SolverConfig | None = None) -> ConeProfile:
    """Find the aperture and the normalized profile for dimension d >= 3.

    The profile depends on ``cfg.grid_n`` alone, and each (d, grid_n) is solved
    once per process: callers share one profile, whose arrays are read-only.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (isinstance(d, (int, np.integer)) and d >= 3):
        raise ValueError(f"dimension must be an integer >= 3, got {d!r}")
    return _solved_profile(int(d), cfg.grid_n)


@functools.lru_cache(maxsize=8)  # one profile holds about 96 KB at grid_n 4096
def _solved_profile(d: int, grid_n: int) -> ConeProfile:
    lo, y_lo, hi = _hunt_sign_change(d, 4 * grid_n)
    root, slope = _refined_root(d, lo, y_lo, hi)

    theta0 = float(root) - math.pi / 2
    if not (0.0 < theta0 < math.pi / 2 - 1e-9):
        raise NoZeroFound(f"aperture {theta0} outside (0, pi/2)")
    norm_c = 1.0 / abs(slope)

    grid = band_grid(theta0, grid_n)
    g_r, gp_r = propagate_band(d - 2, 0.0, d - 1, grid[grid.size // 2:], 1.0, 0.0)

    # g is even about pi/2 (cot is odd there), so the left half is the mirror image
    g_all, gp_all = (norm_c * v for v in mirror_half(g_r, gp_r, even=True, left=False))
    g_all[0] = g_all[-1] = 0.0  # g vanishes on the free boundary, up to _ROOT_TOL
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
