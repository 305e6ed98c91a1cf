"""Particular solutions of the linearized problem: boundary transfer,
per-mode Cauchy-Euler solves, and decay classification.

All constructions run at d=7 (the strictly stable range): at d=3 the ground
link mode has a complex homogeneity pair, so the radial solver refuses it by
design (tested below).
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from conespec.boundary import boundary_modes
from conespec.config import SolverConfig
from conespec.errors import (NonFiniteResult, NumericalError, ResonantExponent,
                             TailDivergence)
from conespec.linkspec import LinkEigenvalue, homogeneity, link_spectrum
from conespec.profile import solve_profile
from conespec._quad import (_cumulative_up, _d2_uniform, _derivative, _segment_integrals,
                            simpson)
from conespec.radial import (RadialField, SourceSpec,
                             add_fields, boundary_residual, build_up, classify_decay,
                             make_source, ode_residuals, project_interior,
                             radial_grid, scale_field, solve_radial_modes,
                             transfer_boundary)
from conespec.sl import band_spec, eigen_pairs
from conespec.spheremodes import SphereMode

BETA = 0.7


def _interior_field(link, entry, coeff_rows, beta, grid):
    """Hand-built interior-basis field in the link's dimension with flat
    angular rows (the radial solver never looks at the angular part)."""
    n = len(coeff_rows)
    return RadialField("interior", link.dim, radial_grid(), np.array(coeff_rows), beta,
                       tuple([entry] * n) if not isinstance(entry, tuple)
                       else entry, grid,
                       np.ones((n, grid.size)), np.zeros((n, grid.size)))


@pytest.fixture(scope="module")
def base_build(p7, bmodes7):
    src = make_source(BETA, {1: 1.0, 3: 2.0})
    u1, f = transfer_boundary(src, bmodes7, p7)
    f_int, tail = project_interior(f, p7)
    u2 = solve_radial_modes(f_int)
    return src, u1, f, f_int, tail, u2


def test_radial_grid_geometry():
    r = radial_grid()
    assert r[0] == 1.0 and r[-1] == pytest.approx(1024.0, rel=1e-14)
    assert np.allclose(r[1:] / r[:-1], 2.0 ** (1 / 16), rtol=1e-14)
    r2 = radial_grid(SolverConfig(r0=2.0, r_max=32.0))
    assert r2.size == 65 and r2[0] == 2.0


def test_source_spec_validation():
    with pytest.raises(ValueError):
        make_source(0.0, {1: 1.0})
    with pytest.raises(ValueError):
        SourceSpec(beta=-0.3, boundary_coeffs=((1, 1.0),))
    for k in (0, -5):
        with pytest.raises(ValueError, match=f"boundary mode index {k} must be >= 1"):
            make_source(BETA, {k: 1.0})
    # "1" and "01" are one index: the second amplitude would silently win
    with pytest.raises(ValueError, match="boundary mode index 1 is named twice"):
        make_source(BETA, {"1": 1.0, "01": 2.0})
    with pytest.raises(ValueError, match="boundary mode index 3 is named twice"):
        SourceSpec(beta=BETA, boundary_coeffs=((3, 1.0), (1, 1.0), (3, 1.0)))


def test_admissibility_window_is_the_solver_window(p7, link7, bmodes7):
    # Q = d/2 - delta_(0,1) - beta = -5e-8 sits inside the solver's resonance
    # window, so solve_radial_modes refuses the source before any mode is solved
    beta = 3.5 - link7.find((0, 1)).delta + 5e-8
    assert beta == pytest.approx(2.7573037579440838, abs=1e-15)
    with pytest.raises(ResonantExponent, match=r"beta=2\.757\d* resonates .*\(0, 1\)"):
        build_up(make_source(beta, {1: 1.0}), p7, bmodes7)


def test_transfer_nonresonant_exact(p7, bmodes7):
    # u1 = r G psi / ell and f from the two radial-derivative terms only
    src = make_source(0.5, {1: 2.0})
    u1, f = transfer_boundary(src, bmodes7, p7)
    m = bmodes7[0]
    r = u1.r_grid
    c_euler = (1 - 0.5) * (7 - 1 - 0.5)
    assert np.allclose(u1.coeffs[0], 2.0 * r ** 0.5 / p7.H, rtol=1e-14)
    assert np.array_equal(u1.angular[0], m.psi)
    assert np.allclose(f.coeffs[0], -2.0 * r ** -1.5 / p7.H, rtol=1e-14)
    assert np.allclose(f.angular[0], c_euler * m.psi, rtol=1e-13)


def test_transfer_resonant_exact(p7, bmodes7):
    # resonant lift r G U psi picks up the sphere-Laplacian correction
    src = make_source(0.5, {2: 3.0})
    u1, f = transfer_boundary(src, bmodes7, p7)
    m = next(b for b in bmodes7 if b.k == 2)
    assert m.in_resonance
    r = u1.r_grid
    c_euler = (1 - 0.5) * (7 - 1 - 0.5)
    assert np.allclose(u1.coeffs[0], 3.0 * r ** 0.5, rtol=1e-14)
    assert np.allclose(u1.angular[0], p7.g * m.psi, atol=1e-15)
    assert np.allclose(u1.angular_prime[0],
                       p7.g_prime * m.psi + p7.g * m.psi_prime, atol=1e-13)
    assert np.allclose(f.coeffs[0], -3.0 * r ** -1.5, rtol=1e-14)
    want = (c_euler - 6.0) * p7.g * m.psi + 2.0 * p7.g_prime * m.psi_prime
    assert np.allclose(f.angular[0], want, atol=1e-13)


def test_transfer_zero_source(p7, bmodes7):
    src = make_source(BETA, {})
    u1, f = transfer_boundary(src, bmodes7, p7)
    assert u1.coeffs.shape == (0, u1.r_grid.size)
    assert np.all(u1.mode_norm() == 0.0) and u1.slope() == -math.inf
    assert boundary_residual(u1, src, bmodes7, p7) == 0.0


def test_transfer_errors(p7, bmodes7):
    with pytest.raises(ValueError):
        transfer_boundary(make_source(BETA, {99: 1.0}), bmodes7, p7)
    # beta = d/2 - delta of the lambda = 0 modes: transferred, then refused by the solve
    transfer_boundary(make_source(1.0, {1: 1.0}), bmodes7, p7)
    with pytest.raises(ResonantExponent):
        build_up(make_source(1.0, {1: 1.0}), p7, bmodes7)


def test_closed_form_cauchy_euler(p7, link7):
    # power ansatz: f = r^{-1-beta}, lambda = 0  ->  u = r^{1-beta}/K with
    # K = (1-beta)(d-1-beta) - lambda; beta=1/2, d=7 gives K = 2.75
    entry = link7.find((0, 2))
    assert abs(entry.lam) < 1e-9
    r = radial_grid()
    f = _interior_field(link7, entry, [r ** -1.5], 0.5, p7.grid)
    u = solve_radial_modes(f)
    ref = r ** 0.5 / 2.75
    rel = np.abs(u.coeffs[0] - ref) / ref
    assert np.max(rel[r.size // 2:]) <= 1e-6
    assert np.max(rel) <= 1e-6  # transient-free on the whole grid
    assert u.ode_residual[0] <= 1e-6


def test_zero_defect_row_stays_zero(p7, link7):
    entry = link7.find((0, 2))
    r = radial_grid()
    f = _interior_field(link7, entry, [np.zeros_like(r)], BETA, p7.grid)
    u = solve_radial_modes(f)
    assert np.all(u.coeffs == 0.0)


def test_solve_input_validation(p7, bmodes7, base_build):
    src, u1, f, f_int, tail, u2 = base_build
    with pytest.raises(ValueError):
        solve_radial_modes(f)  # boundary basis


def test_solve_resonant_exponent(p7, link7):
    # delta = d/2 - beta = 2.8  =>  lambda = 2.8^2 - ((d-2)/2)^2 = 1.59
    lam = 2.8 ** 2 - 2.5 ** 2
    entry = LinkEigenvalue(lam=lam, multiplicity=1, source=(0, 9),
                           **homogeneity(7, lam))
    r = radial_grid()
    f = _interior_field(link7, entry, [r ** (-1 - BETA)], BETA, p7.grid)
    with pytest.raises(ResonantExponent):
        solve_radial_modes(f)
    # the check runs over every real mode before any solve, a zero row included
    entries = (link7.find((0, 2)), entry)
    f = _interior_field(link7, entries, [r ** (-1 - BETA), np.zeros(r.size)], BETA, p7.grid)
    with pytest.raises(ResonantExponent, match=r"beta=0\.7 resonates .*\(0, 9\)"):
        solve_radial_modes(f)


def test_solve_complex_radicand(p3, link3):
    # d=3 ground mode: lambda1 < -((d-2)/2)^2, no real homogeneity pair
    entry = link3.find((0, 1))
    assert entry.complex_radicand
    r = radial_grid()
    f = _interior_field(link3, entry, [r ** (-1 - BETA)], BETA, p3.grid)
    with pytest.raises(NumericalError):
        solve_radial_modes(f)


def test_ode_residuals_skip_complex_pair_for_d(p3, link3):
    # the complex ground mode's zero row leads the field; d - 2 must come
    # from the field, not from the complex pair's gamma fields
    r = radial_grid()
    entries = (link3.find((0, 1)), link3.find((0, 2)))
    assert entries[0].complex_radicand and not entries[1].complex_radicand
    f = _interior_field(link3, entries, [np.zeros(r.size), r ** (-1 - BETA)],
                        BETA, p3.grid)
    u = solve_radial_modes(f)
    assert u.ode_residual[1] <= 1e-7
    res = ode_residuals(u, f)
    assert res[0] == 0.0 and res[1] <= 1e-7


def test_solve_log_resonant(p7, link7):
    lam = -(2.5 ** 2)
    entry = LinkEigenvalue(lam=lam, multiplicity=1, source=(0, 9),
                           **homogeneity(7, lam))
    assert entry.log_mode
    r = radial_grid()
    f = _interior_field(link7, entry, [r ** (-1 - BETA)], BETA, p7.grid)
    with pytest.raises(NumericalError):
        solve_radial_modes(f)


def test_tail_divergence(p7, link7):
    # lambda = 25.6 has Q < 0 at beta = 0.7: the outer limit is infinite, so
    # a non-power profile (or a power with the wrong exponent) must be refused
    entry = link7.find((0, 3))
    r = radial_grid()
    wobble = r ** -1.7 * (1 + 0.5 * np.sin(np.log(r)))
    f = _interior_field(link7, entry, [wobble], BETA, p7.grid)
    with pytest.raises(TailDivergence):
        solve_radial_modes(f)
    f2 = _interior_field(link7, entry, [r ** -2.2], BETA, p7.grid)
    with pytest.raises(TailDivergence):
        solve_radial_modes(f2)


def test_non_power_profile_with_finite_limits(p7, link7):
    # ground mode at beta = 0.7: P = 3.54 and Q = 2.06 are both positive, so
    # both limits are R0 and a row that is not C r^{-1-beta} (a wobble, or a
    # power of another decay) is integrated as sampled
    entry = link7.find((0, 1))
    assert 3.5 < 3.5 + entry.delta - BETA < 3.6 and 2.0 < 3.5 - entry.delta - BETA < 2.1
    r = radial_grid()
    wobble = r ** -1.7 * (1 + 0.5 * np.sin(np.log(r)))
    # the power's amplitude gives it the wobble's source scale max r^2 |c|
    for c in (wobble, 10.5 * r ** -2.2):
        f = _interior_field(link7, entry, [c], BETA, p7.grid)
        u = solve_radial_modes(f)
        assert np.all(np.isfinite(u.coeffs))
        scale = float(np.max(r ** 2 * np.abs(c)))
        assert 10.0 < scale < 11.0
        res = ode_residuals(u, f)
        assert res[0] <= 1e-4 * scale
        assert res[0] == pytest.approx(u.ode_residual[0], rel=1e-9)


def test_build_residuals_and_slope(p7, bmodes7):
    src = make_source(BETA, {1: 1.0, 2: 0.8, 4: -0.5})
    up, rep = build_up(src, p7, bmodes7)
    assert rep.interior_residual <= 1e-6
    assert rep.boundary_residual <= 1e-6
    assert rep.slope <= 1 - BETA + 0.05
    assert up.slope(1.0) <= 1 - BETA + 0.05
    assert 0.0 <= rep.projection_tail < 0.3
    json.dumps(rep.to_dict())  # report must serialize
    for pm in rep.per_mode:
        assert pm["a"] == ("R0" if pm["P"] > 0 else "inf")
        assert pm["b"] == ("R0" if pm["Q"] > 0 else "inf")


def test_resonant_only_boundary_residual(p7, bmodes7):
    src = make_source(BETA, {2: 1.0, 3: -0.5})
    up, rep = build_up(src, p7, bmodes7)
    assert rep.boundary_residual <= 1e-7


def test_defect_slope_invariant(base_build):
    src, u1, f, f_int, tail, u2 = base_build
    assert abs(f.slope(1.0) - (-1 - BETA)) < 1e-6
    assert abs(u1.slope(1.0) - (1 - BETA)) < 1e-6
    # the top 0.01 decades hold one sample of the 2^(1/16) grid: no line to fit
    with pytest.raises(ValueError, match="fewer than two radial samples"):
        u1.slope(0.01)


@pytest.mark.parametrize("dim", [7, 10])
def test_build_slope_is_one_minus_beta(dim):
    # every interior row of a r^{-beta} source is a power of decay -1-beta,
    # solved in closed form: the particular solution is an exact r^{1-beta}
    p = solve_profile(dim)
    _, rep = build_up(make_source(BETA, {1: 1.0, 3: -0.5, 5: 0.25}), p, boundary_modes(p, 5))
    assert abs(rep.slope - (1 - BETA)) <= 1e-13


def test_ode_residuals_pin_the_radial_solve(base_build):
    # the stencil check, independent of the closed form the solve returns
    src, u1, f, f_int, tail, u2 = base_build
    scale = float(np.max(f_int.r_grid ** 2 * f_int.mode_norm()))
    assert np.max(ode_residuals(u2, f_int)) <= 1e-8 * scale


def test_linearity(p7, bmodes7):
    upA, _ = build_up(make_source(BETA, {1: 1.0, 3: 2.0}), p7, bmodes7)
    upB, _ = build_up(make_source(BETA, {1: -0.5, 3: 1.0}), p7, bmodes7)
    upC, _ = build_up(make_source(BETA, {1: 0.5, 3: 3.0}), p7, bmodes7)
    upAB = add_fields(upA, upB)
    scale = np.max(np.abs(upC.coeffs))
    assert np.max(np.abs(upAB.coeffs - upC.coeffs)) <= 1e-10 * scale
    up2A, _ = build_up(make_source(BETA, {1: 2.0, 3: 4.0}), p7, bmodes7)
    assert np.max(np.abs(scale_field(upA, 2.0).coeffs - up2A.coeffs)) \
        <= 1e-10 * scale


def test_field_combination_errors(base_build):
    src, u1, f, f_int, tail, u2 = base_build
    with pytest.raises(ValueError):
        add_fields(u1, u2)  # boundary vs interior basis
    shifted = dataclasses.replace(u1, r_grid=u1.r_grid * 2.0)
    with pytest.raises(ValueError):
        add_fields(u1, shifted)


def test_homogeneous_invariance(p7, bmodes7, base_build):
    """Adding a decaying homogeneous solution a r^gamma phi_j leaves the ODE
    and boundary residuals unchanged (up to the FD truncation of the added
    power, ~ |gamma|^6 h^4 / 90)."""
    src, u1, f, f_int, tail, u2 = base_build
    res0 = ode_residuals(u2, f_int)
    r = u2.r_grid

    # gamma = 0 branch of the lambda=0 mode: FD-exact
    j0 = next(i for i, e in enumerate(u2.modes) if e.source == (0, 2))
    c = u2.coeffs.copy()
    c[j0] += 0.5
    res_const = ode_residuals(dataclasses.replace(u2, coeffs=c), f_int)
    assert np.max(np.abs(res_const - res0)) <= 1e-9

    # gamma_minus of the ground mode: truncation-limited but tiny
    j1 = next(i for i, e in enumerate(u2.modes) if e.source == (0, 1))
    gam = u2.modes[j1].gamma_minus
    c = u2.coeffs.copy()
    c[j1] += 1e-3 * r ** gam
    res_dec = ode_residuals(dataclasses.replace(u2, coeffs=c), f_int)
    assert np.max(np.abs(res_dec - res0)) <= 1e-5

    # boundary trace of the full field is insensitive to interior additions
    up, rep = build_up(src, p7, bmodes7)
    j_mix = len(u1.modes) + j0
    c = up.coeffs.copy()
    c[j_mix] += 0.5
    bres = boundary_residual(dataclasses.replace(up, coeffs=c), src,
                             bmodes7, p7)
    assert abs(bres - rep.boundary_residual) <= 1e-6


def test_flip_rules_injects_growth(link7, base_build):
    """Negative test: forcing both limits finite wrecks every mode whose sign
    rule demanded an infinite limit (slope jumps from 1-beta to 1-beta-Q)."""
    src, u1, f, f_int, tail, u2 = base_build
    u2f = solve_radial_modes(f_int, flip_rules=True)
    d = link7.dim
    flipped = 0
    for j, e in enumerate(f_int.modes):
        if np.max(np.abs(f_int.coeffs[j])) == 0.0:
            continue
        row = dataclasses.replace(
            u2f, coeffs=u2f.coeffs[j:j + 1], modes=(e,),
            angular=u2f.angular[j:j + 1],
            angular_prime=u2f.angular_prime[j:j + 1], ode_residual=None)
        good = dataclasses.replace(
            u2, coeffs=u2.coeffs[j:j + 1], modes=(e,),
            angular=u2.angular[j:j + 1],
            angular_prime=u2.angular_prime[j:j + 1], ode_residual=None)
        assert good.slope(1.0) <= 1 - BETA + 0.05
        if d / 2 - e.delta - BETA < 0:
            flipped += 1
            assert row.slope(1.0) > 1 - BETA + 0.5
    assert flipped >= 2


def test_quadratic_source_decay(p7, bmodes7):
    # squared-gradient source scale: G = O(r^{-2 alpha0}) with alpha0 = 0.4
    src = make_source(0.8, {1: 0.3, 4: 1.1})
    up, rep = build_up(src, p7, bmodes7)
    assert rep.slope <= 1 - 0.8 + 0.05
    assert rep.interior_residual <= 1e-6


def test_classify_decay_retention(p7, link7):
    r = radial_grid()
    rot = link7.find((1, 2))       # lambda = d-1: gammas (1, 1-d)
    lam0 = link7.find((0, 2))      # lambda = 0: gammas (0, 2-d)
    # pure gamma=1 rotation branch against beta = -1: kept
    f = _interior_field(link7, rot, [2.0 * r], -1.0, p7.grid)
    cls = classify_decay(f, beta=-1.0)
    assert len(cls.retained) == 1 and not cls.zeroed
    src, gam, coef = cls.retained[0]
    assert gam == pytest.approx(1.0, abs=1e-9)
    assert coef == pytest.approx(2.0, rel=1e-9)
    assert cls.projection_error <= 1e-10
    # mixture r^0 + 3 r^{2-d} against beta = 1: constant branch zeroed
    f = _interior_field(link7, lam0, [1.0 + 3.0 * r ** -5.0], 1.0, p7.grid)
    cls = classify_decay(f, beta=1.0)
    assert [g for _, g, _ in cls.retained] == pytest.approx([-5.0], abs=1e-9)
    assert [g for _, g, _ in cls.zeroed] == pytest.approx([0.0], abs=1e-9)
    assert np.max(np.abs(cls.field.coeffs[0] - 3.0 * r ** -5.0)) <= 1e-8
    # very permissive beta keeps everything
    cls = classify_decay(f, beta=-30.0)
    assert not cls.zeroed and len(cls.retained) == 2


def test_classify_decay_default_beta(p7, link7):
    r = radial_grid()
    lam0 = link7.find((0, 2))
    f = _interior_field(link7, lam0, [4.0 * r ** -5.0], 5.0, p7.grid)
    cls = classify_decay(f)
    assert cls.beta == pytest.approx(5.0, abs=1e-6)
    assert len(cls.retained) == 1


def test_classify_decay_complex_pair(p3, link3):
    # oscillatory pair r^{-(d-2)/2} (cos, sin)(omega ln r) is fitted exactly
    entry = link3.find((0, 1))
    om = math.sqrt(-0.25 - entry.lam)
    r = radial_grid()
    row = r ** -0.5 * (0.7 * np.cos(om * np.log(r)) - 0.2 * np.sin(om * np.log(r)))
    f = _interior_field(link3, entry, [row], 0.4, p3.grid)
    cls = classify_decay(f, beta=0.4)
    assert len(cls.retained) == 2 and not cls.zeroed
    assert np.max(np.abs(cls.field.coeffs[0] - row)) <= 1e-8


def test_classify_decay_basis_check(base_build):
    src, u1, f, f_int, tail, u2 = base_build
    with pytest.raises(ValueError):
        classify_decay(u1)
    with pytest.raises(ValueError):
        ode_residuals(u1, f)


def test_project_interior_work_count(p7, bmodes7, monkeypatch):
    # one sphere degree's eight eigenpairs are solved together: the Ritz
    # solve vouches for all eight eigenvalues and their eigenfunctions are its
    # Legendre series, so on a fresh memo at d = 7 no kernel is called, where
    # shooting the eigenfunctions made 1 call, shooting the eigenvalues from the
    # Ritz seeds' 1e-7 brackets 5 and one eigenpair at a time 53.
    from conespec import boundary, kernels, sl
    u1, f = transfer_boundary(make_source(BETA, {1: 1.0}), bmodes7, p7)
    assert len({m.ell for m in f.modes}) == 1
    sl._ritz.cache_clear()
    sl._ritz_forms.cache_clear()
    boundary._pairs.clear()
    calls = []

    def counted(*args, _fn=kernels.propagate_band):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(sl, "propagate_band", counted)
    project_interior(f, p7)
    assert len(calls) == 0, len(calls)


@pytest.mark.parametrize("dim", [3, 7, 12])
def test_projected_entries_are_the_link_entries(dim):
    # project_interior builds each entry from the eigenpair it solves; where
    # the link spectrum holds the same (ell, j) the two must be equal, also
    # when the Ritz cache is cold and nothing is shared between them
    from conespec import sl
    p = solve_profile(dim)
    link = link_spectrum(p, 4.0 * dim)
    bmodes = boundary_modes(p, 8)
    _, f = transfer_boundary(make_source(BETA, {m.k: 1.0 for m in bmodes}), bmodes, p)
    sl._ritz.cache_clear()
    f_int, _ = project_interior(f, p)
    held = {e.source for e in link.entries}
    pairs = [(e, link.find(e.source)) for e in f_int.modes if e.source in held]
    assert f_int.dim == dim and len(pairs) >= 9
    assert all(got == want for got, want in pairs), pairs


@pytest.mark.parametrize("source, beta", [
    ((0, 2), 6.5),   # P = -0.5, Q = -5.5: both limits infinite
    ((0, 3), BETA),  # P = 8.45, Q = -2.85: outer limit infinite
    ((2, 1), BETA),  # P = 6.57, Q = -0.97: outer limit infinite
    ((0, 1), BETA),  # P = 3.54, Q = 2.06: both limits at R0
])
def test_solve_mode_power_law_oracle(p7, link7, source, beta):
    # c = C r^sigma with sigma = -1-beta has the particular solution
    # A r^{sigma+2}, A = C / ((sigma+2)(sigma+d) - lambda): the solve must
    # leave no homogeneous transient anywhere on the grid
    d, C = 7, -2.5
    entry = link7.find(source)
    P, Q = 3.5 + entry.delta - beta, 3.5 - entry.delta - beta
    assert (P < 0) == (source == (0, 2)) and (Q < 0) == (source != (0, 1))
    r = radial_grid()
    sigma = -1.0 - beta
    u2 = solve_radial_modes(_interior_field(link7, entry, [C * r ** sigma], beta, p7.grid))
    u, resid = u2.coeffs[0], u2.ode_residual[0]
    ref = C / ((sigma + 2) * (sigma + d) - entry.lam) * r ** (sigma + 2)
    # a power row of decay -1-beta is returned in closed form, with the
    # exponent -1-beta itself and the amplitude read off c r^{1+beta}
    assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-14
    assert resid <= 1e-7 * float(np.max(np.abs(C * r ** (sigma + 2))))


def test_stencils_match_slice_formulas():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(97)
    h = 0.037
    seg = _segment_integrals(y, h)
    want = h / 24.0 * (-y[:-3] + 13 * y[1:-2] + 13 * y[2:-1] - y[3:])
    np.testing.assert_allclose(seg[1:-1], want, rtol=1e-12, atol=1e-15)
    assert seg[0] == h / 24.0 * (9 * y[0] + 19 * y[1] - 5 * y[2] + y[3])
    assert seg[-1] == h / 24.0 * (y[-4] - 5 * y[-3] + 19 * y[-2] + 9 * y[-1])
    np.testing.assert_allclose(_cumulative_up(y, h), np.concatenate([[0.0], np.cumsum(seg)]),
                               rtol=1e-12, atol=1e-14)
    d2 = _d2_uniform(y, h)
    want = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h * h)
    np.testing.assert_allclose(d2[2:-2], want, rtol=1e-12, atol=1e-9)
    assert np.all(d2[:2] == d2[2]) and np.all(d2[-2:] == d2[-3])
    d1 = _derivative(y, h)
    want = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    np.testing.assert_allclose(d1[2:-2], want, rtol=1e-12, atol=1e-11)
    assert d1[0] == (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    assert d1[-1] == (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)


@pytest.mark.parametrize("case", ["scaled row", "stencil sum"])
def test_overflowing_row_is_nonfinite_result(p7, link7, base_build, case):
    # a scaled row's closed form overflows in an elementwise product; the bump
    # row stays finite until the interior quadrature stencil sums it past the
    # float range, where np.convolve raises nothing and the inf travels on
    if case == "scaled row":
        f = scale_field(base_build[3], 1e308)
    else:
        entry = link7.find((0, 1))
        r = radial_grid()
        bump = np.exp(-(np.log(r) - 3.5) ** 2)
        f = _interior_field(link7, entry, [1e307 * r ** -(entry.delta + 4.5) * bump],
                            BETA, p7.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match="non-finite radial coefficients in mode"):
            solve_radial_modes(f)


def test_scaled_row_solves_in_closed_form(base_build):
    # at 1e300 the closed form stays finite and scales with its row
    f_int, u2 = base_build[3], base_build[5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = solve_radial_modes(scale_field(f_int, 1e300))
    assert np.max(np.abs(big.coeffs / 1e300 - u2.coeffs)) <= 1e-12 * np.max(np.abs(u2.coeffs))


def test_silent_stencil_overflow_is_caught(p7, link7, monkeypatch):
    # an inf from a convolve stencil in the residual raises no floating-point
    # error, so the solve must check the finiteness of what it returns
    from conespec import radial

    def overflowing(vals, h):
        d1 = _derivative(vals, h)
        d1[d1.size // 2] = np.inf
        return d1

    monkeypatch.setattr(radial, "_derivative", overflowing)
    # a closed-form power row takes no stencil: the wobble is integrated as sampled
    entry = link7.find((0, 1))
    r = radial_grid()
    wobble = r ** -1.7 * (1 + 0.5 * np.sin(np.log(r)))
    f = _interior_field(link7, entry, [wobble], BETA, p7.grid)
    with pytest.raises(NonFiniteResult, match=r"mode \(0, 1\): overflow"):
        solve_radial_modes(f)


@pytest.fixture(scope="module", params=[7, 10, 12])
def cone_and_modes(request):
    p = solve_profile(request.param)
    return p, boundary_modes(p, 6)


def _full_band_projections(f, p):
    # the projection loop written out on the full band: every source row onto
    # all eight eigenfunctions of its sphere degree, whatever their parity
    w = np.sin(p.grid) ** (p.dim - 2)
    out = {}
    for ell in sorted({m.ell for m in f.modes}):
        pairs = eigen_pairs(band_spec(p, SphereMode.of(p.dim, ell).mu, "robin"), range(1, 9))
        fns = np.stack([pair.fn for pair in pairs])
        for i, m in enumerate(f.modes):
            if m.ell == ell:
                out[i] = simpson(f.angular[i] * fns * w, x=p.grid)
    return out


@pytest.mark.parametrize("ks", [(1, 4, 5), (2, 3, 6)])
def test_projection_by_parity_on_the_half_band(cone_and_modes, ks):
    # radial rows e_i make the projected coefficients the projections
    # themselves: coefficient (ell, j) of row i at radial sample i
    p, bmodes = cone_and_modes
    _, f = transfer_boundary(make_source(BETA, {k: 1.0 for k in ks}), bmodes, p)
    n = len(f.modes)
    f_unit = dataclasses.replace(f, coeffs=np.eye(n, f.r_grid.size))
    f_int, _ = project_interior(f_unit, p)
    oracle = _full_band_projections(f, p)
    for i, m in enumerate(f.modes):
        odd = int(m.parity == "odd")
        want = oracle[i]
        got = np.array([f_int.coeffs[row, i] for row, e in enumerate(f_int.modes)
                        if e.source[0] == m.ell])
        scale = np.max(np.abs(want[odd::2]))
        assert scale > 1e-3
        # eigenfunction j has parity (-1)^(j-1): the other parity is orthogonal
        assert np.max(np.abs(want[1 - odd::2])) <= 1e-13 * scale
        assert np.all(got[1 - odd::2] == 0.0)
        np.testing.assert_allclose(got[odd::2], want[odd::2], rtol=1e-13, atol=1e-13 * scale)
    # a mismatched coefficient row is 0, and its radial solve leaves it 0
    f_int, _ = project_interior(f, p)
    u2 = solve_radial_modes(f_int)
    zero = [j for j, c in enumerate(f_int.coeffs) if not c.any()]
    assert zero and all(not u2.coeffs[j].any() and u2.ode_residual[j] == 0.0 for j in zero)


def _per_row_closed_form(c, r, d, delta, beta):
    # the power-row test and closed form written out for one row
    P, Q = d / 2 + delta - beta, d / 2 - delta - beta
    mask = np.abs(c) > 1e-14 * float(np.max(np.abs(c)))
    a = c[mask] * r[mask] ** (1.0 + beta)
    C = float(np.mean(a))
    if np.max(np.abs(a - C)) > 1e-7 * abs(C):
        return None
    r2f = C * r ** (1.0 - beta)
    return r2f / (P * Q), float(np.max(np.abs(r2f - r * r * c)))


@pytest.mark.parametrize("ks", [(1, 4, 5), (2, 3, 6)])
@pytest.mark.parametrize("beta", [BETA, 4.5])
def test_power_block_equals_the_per_row_closed_form(cone_and_modes, ks, beta):
    # at beta = 4.5 every row's tail r^{-5.5} falls below 1e-14 of its peak
    p, bmodes = cone_and_modes
    _, f = transfer_boundary(make_source(beta, {k: 1.0 for k in ks}), bmodes, p)
    f_int, _ = project_interior(f, p)
    u2 = solve_radial_modes(f_int)
    r, solved = f_int.r_grid, 0
    for j, e in enumerate(f_int.modes):
        c = f_int.coeffs[j]
        if c.any():
            u, resid = _per_row_closed_form(c, r, p.dim, e.delta, beta)
            assert np.array_equal(u2.coeffs[j], u) and u2.ode_residual[j] == resid
            solved += 1
    assert solved >= 8


def test_power_block_mixes_full_masked_and_sampled_rows(p7, link7):
    # one block: a full power row, a power row whose tail is masked and a
    # wobble the block leaves to the sampled solve
    r = radial_grid()
    entries = tuple(link7.find(s) for s in ((0, 1), (0, 2), (1, 1), (0, 1)))
    masked = -3.0 * r ** (-1 - BETA) * np.where(r > 100.0, 1e-15, 1.0)
    wobble = r ** -1.7 * (1 + 0.5 * np.sin(np.log(r)))
    rows = [2.0 * r ** (-1 - BETA), masked, 0.5 * r ** (-1 - BETA), wobble]
    f = _interior_field(link7, entries, rows, BETA, p7.grid)
    u2 = solve_radial_modes(f)
    for j in range(3):
        u, resid = _per_row_closed_form(f.coeffs[j], r, 7, entries[j].delta, BETA)
        assert np.array_equal(u2.coeffs[j], u) and u2.ode_residual[j] == resid
        one = solve_radial_modes(_interior_field(link7, entries[j], [rows[j]], BETA, p7.grid))
        assert np.array_equal(one.coeffs[0], u)
    assert _per_row_closed_form(wobble, r, 7, entries[3].delta, BETA) is None
    assert u2.ode_residual[3] == pytest.approx(ode_residuals(u2, f)[3], rel=1e-9)
