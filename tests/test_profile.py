"""Cone profile construction.

The aperture oracle used here is deliberately independent of the shooting
construction: theta0 is the unique half-width at which the first *Dirichlet*
eigenvalue of the mu=0 band problem equals d-1 (the profile itself is that
eigenfunction), and we locate it by bisecting the finite-difference
eigenvalue — a different discretization and a different characterization.
"""

import math

import numpy as np
import pytest

from conespec.config import SolverConfig
from conespec.errors import EvaluationUnstable
from conespec.profile import (ConeProfile, band_points, jacobi_fields,
                              legendre_crosscheck, solve_profile)
from conespec.sl import SLSpec, band_spec, eigen_fd_crosscheck, rayleigh

# Apertures pinned from the Dirichlet-calibration oracle below (and, for
# d = 4, from the exact value theta0 = pi/4, H = 2).
FROZEN_THETA0 = {
    3: 0.9855147378623781,
    4: math.pi / 4,
    7: 0.5437286919823721,
    12: 0.3980381548,
}


def _aperture_oracle(d, lo=0.05, hi=1.5):
    """Bisect theta for lambda_1^D(band(theta)) = d - 1, FD discretization."""

    def gap(theta):
        spec = SLSpec(dim=d, band=(math.pi / 2 - theta, math.pi / 2 + theta),
                      mu=0.0, bc="dirichlet", grid_n=1024)
        return eigen_fd_crosscheck(spec, 1)[0] - (d - 1)

    # lambda_1^D decreases in the band width, so gap is decreasing in theta
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("d", [3, 7])
def test_aperture_against_fd_dirichlet_oracle(d):
    p = solve_profile(d)
    assert abs(p.theta0 - _aperture_oracle(d)) < 1e-6


def test_frozen_apertures():
    for d, ref in FROZEN_THETA0.items():
        p = solve_profile(d)
        tol = 1e-9 if d != 12 else 1e-9
        assert abs(p.theta0 - ref) < tol, (d, p.theta0)


def test_dimension_four_is_exact():
    # the d=4 profile is cos(2 theta') in disguise; theta0 = pi/4, H = 2
    p = solve_profile(4)
    assert abs(p.theta0 - math.pi / 4) < 1e-10
    assert abs(p.H - 2.0) < 1e-9


def test_profile_invariants_across_dimensions():
    prev = math.pi / 2
    for d in range(3, 13):
        p = solve_profile(d)
        assert 0.0 < p.theta0 < math.pi / 2
        assert p.theta0 < prev  # aperture shrinks with dimension
        prev = p.theta0
        assert abs(p.H - (d - 2) * math.tan(p.theta0)) < 1e-12
        a, b = p.band
        assert abs((a + b) - math.pi) < 1e-12
        assert abs(b - a - 2 * p.theta0) < 1e-12
        # free-boundary data: g vanishes at the ends with unit slope
        assert abs(p.g[0]) < 1e-10 and abs(p.g[-1]) < 1e-10
        assert abs(abs(p.g_prime[0]) - 1.0) < 1e-9
        assert abs(abs(p.g_prime[-1]) - 1.0) < 1e-9
        assert np.all(p.g[1:-1] > 0)
        assert abs(p.g[p.grid.size // 2] - p.norm_c) < 1e-14


def test_profile_is_exactly_even(p7):
    # g is even and g' odd about pi/2, sample for sample
    assert np.array_equal(p7.g, p7.g[::-1])
    assert np.array_equal(p7.g_prime, -p7.g_prime[::-1])


def test_profile_is_dirichlet_ground_state(p7):
    # Rayleigh quotient of g in the Dirichlet form reproduces d-1
    spec = band_spec(p7, 0.0, "dirichlet")
    assert abs(rayleigh(spec, p7.g, p7.g_prime) - 6.0) < 1e-9


def test_grid_shape_and_refinement():
    assert band_points(4096) == 4097
    assert band_points(64) == 65
    assert band_points(66) == 69
    coarse = solve_profile(5, SolverConfig(grid_n=1024))
    fine = solve_profile(5)
    assert coarse.grid.size == band_points(1024)
    assert abs(coarse.theta0 - fine.theta0) < 1e-9


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        solve_profile(2)


def test_jacobi_fields_are_linearization_modes(p7):
    """t1/tk sit in the kernel of the linearized operator, rot at d-1."""
    jf = jacobi_fields(p7)
    d = p7.dim
    assert abs(rayleigh(band_spec(p7, 0.0, "robin"), jf["t1"])) < 1e-6
    mu1 = float(d - 2)
    assert abs(rayleigh(band_spec(p7, mu1, "robin"), jf["tk"])) < 1e-6
    assert abs(rayleigh(band_spec(p7, mu1, "robin"), jf["rot"]) - (d - 1)) < 1e-6


def test_jacobi_fields_parity(p3):
    jf = jacobi_fields(p3)
    # axial translation is odd about pi/2, transverse translation even
    assert abs(jf["t1"][0] + jf["t1"][-1]) < 1e-12
    assert abs(jf["tk"][0] - jf["tk"][-1]) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 7])
def test_legendre_closed_form(d):
    assert legendre_crosscheck(solve_profile(d)) < 1e-6


def test_legendre_crosscheck_detects_corruption(p3):
    # multiplicative 2% wobble, invisible at the normalization point pi/2
    bad_g = p3.g * (1.0 + 0.02 * np.cos(5.0 * p3.grid))
    bad = ConeProfile(dim=p3.dim, theta0=p3.theta0, grid=p3.grid, g=bad_g,
                      g_prime=p3.g_prime, H=p3.H, norm_c=p3.norm_c)
    assert legendre_crosscheck(bad) > 1e-2
