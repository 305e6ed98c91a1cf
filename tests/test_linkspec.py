"""Assembled link spectrum, homogeneity bookkeeping, and the
strong-integrability verdict."""

import math

import pytest

from conespec.config import SolverConfig
from conespec.errors import AmbiguousCluster
from conespec.linkspec import (decay_exponents, homogeneity, link_spectrum,
                               verify_strong_integrability)


def test_homogeneity_algebra():
    for d in (3, 7, 10):
        h0 = homogeneity(d, 0.0)
        assert h0["gamma_plus"] == 0.0
        assert h0["gamma_minus"] == -(d - 2)
        hrot = homogeneity(d, float(d - 1))
        assert abs(hrot["gamma_plus"] - 1.0) < 1e-14
        assert abs(hrot["gamma_minus"] - (1.0 - d)) < 1e-14
    crit = -((7 - 2) / 2) ** 2
    assert homogeneity(7, crit)["log_mode"]
    below = homogeneity(7, crit - 1.0)
    assert below["complex_radicand"]
    assert below["delta"] is None


def test_spectrum_is_sorted_with_kernels(link7):
    lams = [e.lam for e in link7.entries]
    assert lams == sorted(lams)
    assert link7.lambda1 == lams[0]
    k0 = sum(e.multiplicity for e in link7.entries if abs(e.lam) <= 1e-6)
    kr = sum(e.multiplicity for e in link7.entries if abs(e.lam - 6.0) <= 1e-6)
    assert k0 == 7 and kr == 6
    # translations come from (0,2) and (1,1); rotations from (1,2)
    assert {e.source for e in link7.entries if abs(e.lam) <= 1e-6} == {(0, 2), (1, 1)}
    assert {e.source for e in link7.entries if abs(e.lam - 6.0) <= 1e-6} == {(1, 2)}


def test_find_and_bad_lambda_max(p3, link7):
    assert link7.find((0, 1)).lam == link7.lambda1
    with pytest.raises(KeyError):
        link7.find((9, 9))
    with pytest.raises(ValueError):
        link_spectrum(p3, 1.5)  # must exceed d-1


def test_verify_stable_dimension(p7):
    rep = verify_strong_integrability(p7)
    assert rep.strictly_stable and rep.verdict
    assert abs(rep.lambda1 - (-5.698402217765498)) < 1e-8
    assert rep.stability_margin > 1e-4
    assert rep.dim_kernel0 == 7
    assert rep.dim_kernel_d_minus_1 == 6
    assert abs(rep.gap_above - 7.947140991418) < 1e-8
    assert rep.match_error_max <= 1e-5


def test_verify_unstable_dimension(p3):
    rep = verify_strong_integrability(p3)
    assert not rep.strictly_stable and not rep.verdict
    assert abs(rep.lambda1 - (-1.6731316676332293)) < 1e-8
    assert rep.stability_margin < -1e-4
    assert rep.dim_kernel0 == 3
    assert rep.dim_kernel_d_minus_1 == 2
    assert rep.match_error_max <= 1e-5


def test_profile_alone_sets_the_band_grid(p7):
    # the band problems live on the profile's grid, whatever grid_n the
    # config passed to the spectrum names
    ref = verify_strong_integrability(p7)
    rep = verify_strong_integrability(p7, SolverConfig(grid_n=1024))
    assert rep.verdict == ref.verdict
    assert rep.dim_kernel0 == ref.dim_kernel0
    assert rep.dim_kernel_d_minus_1 == ref.dim_kernel_d_minus_1
    assert abs(rep.lambda1 - ref.lambda1) <= 1e-12


def test_ambiguous_cluster_on_absurd_tolerance(p3):
    # with everything clustered together, generic eigenfunctions cannot be
    # identified against the three analytic Jacobi families
    with pytest.raises(AmbiguousCluster):
        verify_strong_integrability(p3, SolverConfig(cluster_tol=40.0))


def test_decay_exponents(link3, link7):
    d3 = decay_exponents(link3.entries)
    assert d3 == sorted(d3)
    assert all(b - a > 1e-12 for a, b in zip(d3, d3[1:]))  # deduplicated
    # the unstable first mode of d=3 is complex and contributes nothing real,
    # while the kernels contribute {0, -(d-2)} and rotations {1, 1-d}
    for v in (0.0, -1.0, 1.0, -2.0):
        assert any(abs(x - v) < 1e-9 for x in d3)
    assert all(x > -1.7 or x < -1.75 for x in d3)  # no gamma from lambda_1
    d7 = decay_exponents(link7.entries)
    lam1 = link7.lambda1
    delta1 = math.sqrt(6.25 + lam1)
    assert any(abs(x - (-2.5 + delta1)) < 1e-9 for x in d7)
    with pytest.raises(ValueError):
        decay_exponents([])
