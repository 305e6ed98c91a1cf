"""Assembled link spectrum, homogeneity bookkeeping, and the
strong-integrability verdict."""

import math

import pytest

from conespec.config import SolverConfig
from conespec.errors import AmbiguousCluster
from conespec.linkspec import (_walk, decay_exponents, homogeneity,
                               link_spectrum, verify_strong_integrability)
from conespec.profile import solve_profile


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


@pytest.mark.parametrize("d", [3, 4, 7, 12, 24])
def test_verify_matches_full_assembly(d):
    # the walk to the gap reads the same numbers off the bottom of the
    # spectrum as the rules applied to every eigenvalue <= 4d
    p = solve_profile(d)
    tol = SolverConfig().cluster_tol
    entries = link_spectrum(p, 4.0 * d).entries
    lam1 = entries[0].lam
    margin = lam1 + (0.5 * (d - 2)) ** 2
    kernel0 = sum(e.multiplicity for e in entries if abs(e.lam) <= tol)
    kernel_rot = sum(e.multiplicity for e in entries if abs(e.lam - (d - 1)) <= tol)
    strays = [e for e in entries[1:]
              if abs(e.lam) > tol and abs(e.lam - (d - 1)) > tol and e.lam < d - 1]
    above = [e.lam for e in entries if e.lam > d - 1 + tol]
    verdict = margin > 0 and kernel0 == d and kernel_rot == d - 1 and not strays

    rep = verify_strong_integrability(p)
    assert rep.lambda1 == lam1
    assert rep.stability_margin == margin
    assert rep.strictly_stable == (margin > 0)
    assert rep.dim_kernel0 == kernel0
    assert rep.dim_kernel_d_minus_1 == kernel_rot
    assert rep.verdict == verdict
    assert rep.gap_above == min(above)


@pytest.mark.parametrize("d", [3, 7, 12, 24])
def test_walk_solves_nothing_above_the_gap(d):
    # modes with eigenvalues below d - 1 are sliced above it only once the
    # higher modes have set the gap, so the walk solves exactly the
    # assembled eigenvalues below gap + tol: not mode 0's (0, 3) on the way
    p = solve_profile(d)
    tol = SolverConfig().cluster_tol
    gap = verify_strong_integrability(p).gap_above
    want = [(e.lam, e.source) for e in link_spectrum(p, 4.0 * d).entries if e.lam < gap + tol]
    assert [(e.lam, e.source) for e in _walk(p, min(d - 1 + tol, 4.0 * d), 4.0 * d, tol)] == want


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


@pytest.mark.parametrize("shift", [0.0, 1e-13, -1e-13])
@pytest.mark.parametrize("d", [7, 12])
def test_tied_eigenvalues_come_out_by_source(d, shift, monkeypatch):
    # (0, 2) and (1, 1) are both the translations' eigenvalue 0 and agree to
    # roundoff: within the solver's tolerance entries are ordered by source,
    # not by the last bits of their eigenvalues, here moved by ``shift``
    from conespec import linkspec
    solved, calls = linkspec.eigenvalue, []

    def moved(spec, k):
        calls.append((spec.mu, k))
        return solved(spec, k) + shift * (spec.mu == 0.0 and k == 2)

    monkeypatch.setattr(linkspec, "eigenvalue", moved)
    entries = link_spectrum(solve_profile(d), 4.0 * d).entries
    assert (0.0, 2) in calls  # the walk asked for the shifted eigenvalue
    sources = [e.source for e in entries]
    i = sources.index((0, 2))
    assert sources[i + 1] == (1, 1), sources[:4]
    assert abs(entries[i].lam - entries[i + 1].lam) <= 1e-12


@pytest.mark.parametrize("d", [3, 7, 12, 24])
def test_match_error_equals_the_per_profile_loop(d, monkeypatch):
    # identify pairs each eigenfunction with the analytic profiles of its
    # parity (k even: the odd t1 and rot; k odd: the even tk) and integrates
    # them on the left half band, each quantity in one Simpson call whose rows
    # are its 1-D calls bit for bit: match_error_max equals the loop over the
    # matched pairs written out here, on the eigenfunctions verify identified.
    # The full-band loop over all three profiles is the oracle it approximates
    # (the misfit is a roundoff-level residual, so its last digits move), and a
    # wrong-parity pair is orthogonal on the full band: its misfit is 1
    import numpy as np

    from conespec import linkspec
    from conespec._quad import simpson
    from conespec.profile import jacobi_fields

    fns = []

    def recorded(spec, k, _eigen_k=linkspec.eigen_k):
        pair = _eigen_k(spec, k)
        fns.append((k, pair.fn))
        return pair

    monkeypatch.setattr(linkspec, "eigen_k", recorded)
    p = solve_profile(d)
    rep = verify_strong_integrability(p)
    assert len(fns) >= 2
    jf, th = jacobi_fields(p), p.grid
    w = np.sin(th) ** (d - 2)

    def misfit(q, a, x, wx):
        resid = q - (simpson(q * a * wx, x=x) / simpson(a * a * wx, x=x)) * a
        return math.sqrt(simpson(resid * resid * wx, x=x) / simpson(q * q * wx, x=x))

    m = th.size // 2 + 1
    match_err = full_err = 0.0
    for k, q in fns:
        same = ("t1", "rot") if k % 2 == 0 else ("tk",)
        match_err = max(match_err, min(misfit(q[:m], jf[a][:m], th[:m], w[:m]) for a in same))
        full = {a: misfit(q, jf[a], th, w) for a in ("t1", "tk", "rot")}
        full_err = max(full_err, min(full.values()))
        assert all(full[a] >= 0.99 for a in full if a not in same), (k, full)
    assert rep.match_error_max == match_err
    assert abs(rep.match_error_max - full_err) <= 1e-2 * full_err


@pytest.mark.parametrize("d", [3, 4, 7, 12, 24, 40])
def test_mode_floor_is_a_lower_bound(d):
    # 1/sin^2 >= 1 on the band, so the form of mode ell is at least mode 0's
    # plus mu_ell and, by min-max, lambda_{ell,k} >= mu_ell + lambda_{0,k}:
    # the floor on which the walk ends a mode without solving its last
    # eigenvalue.  At d = 7 the finite-difference oracle reads the same values
    # and the same bound
    import numpy as np

    from conespec.sl import band_spec, eigen_fd_crosscheck, eigenvalues
    from conespec.spheremodes import SphereMode

    p = solve_profile(d)
    specs = [band_spec(p, SphereMode.of(d, ell).mu, "robin") for ell in range(4)]
    lams = [np.array(eigenvalues(spec, range(1, 5))) for spec in specs]
    for spec, lam in zip(specs[1:], lams[1:]):
        assert np.all(lam >= spec.mu + lams[0] - 1e-10 * np.maximum(1.0, abs(lam))), spec.mu
    if d == 7:
        fds = [eigen_fd_crosscheck(spec, 4) for spec in specs]
        for lam, fd in zip(lams, fds):
            assert np.all(abs(fd - lam) <= 1e-7 * np.maximum(1.0, abs(lam))), (lam, fd)
        for spec, fd in zip(specs[1:], fds[1:]):
            assert np.all(fd >= spec.mu + fds[0] - 1e-7 * np.maximum(1.0, abs(fd))), spec.mu
