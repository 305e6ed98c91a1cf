"""Weiss functional: constancy on cones, the boundary-measure identity, the
derivative identity on non-homogeneous fields, and aperture criticality."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conespec.boundary import sphere_area
from conespec.errors import GridTooCoarse, MissingCoefficient, NumericalError
from conespec.profile import solve_profile
from conespec.weiss import (AxisymField, Component, F_functional, cone_field,
                            foliation_leading_term, halfplane_field,
                            link_measure_identity, perturbed_field,
                            power_field, weiss, weiss_derivative_check,
                            weiss_report)

# pinned by the boundary-measure identity below (independent quadrature)
FROZEN_W1 = {3: 3.4915935520, 7: 3.8309496285}

RADII = (0.5, 1.0, 2.0, 4.0)


def _sinlog_field(p):
    """u = r (1 + 0.1 sin log r) g(theta): smooth, never homogeneous."""
    comp = Component(
        rho=lambda r: np.asarray(r, float) * (1 + 0.1 * np.sin(np.log(np.asarray(r, float)))),
        q=p.g,
        drho=lambda r: 1 + 0.1 * np.sin(np.log(np.asarray(r, float)))
                         + 0.1 * np.cos(np.log(np.asarray(r, float))),
        d2rho=lambda r: 0.1 * (np.cos(np.log(np.asarray(r, float)))
                               - np.sin(np.log(np.asarray(r, float)))) / np.asarray(r, float),
        q_prime=p.g_prime)
    return AxisymField(p.dim, p.grid, (comp,))


def _tapered_jacobi_field(p, eps=1e-3, s0=0.15):
    """Cone plus a tapered copy of the singular (gamma = 2-d) axial-translation
    Jacobi field: rho = eps s^{pw} (s^2 + a)^{-m}, pw = 2 - d + 2m, behaving
    like s^{pw} at 0 and s^{2-d} at infinity."""
    d = p.dim
    m = d
    pw = 2 - d + 2 * m
    a = s0 * s0

    def rho(r):
        s = np.asarray(r, float)
        return eps * s ** pw * (s * s + a) ** -m

    def drho(r):
        s = np.asarray(r, float)
        return eps * (pw * s ** (pw - 1) * (s * s + a) ** -m
                      - 2 * m * s ** (pw + 1) * (s * s + a) ** (-m - 1))

    def d2rho(r):
        s = np.asarray(r, float)
        return eps * (pw * (pw - 1) * s ** (pw - 2) * (s * s + a) ** -m
                      - 2 * m * (2 * pw + 1) * s ** pw * (s * s + a) ** (-m - 1)
                      + 4 * m * (m + 1) * s ** (pw + 2) * (s * s + a) ** (-m - 2))

    th = p.grid
    q = np.cos(th) * p.g - np.sin(th) * p.g_prime
    q_prime = (d - 2) * (np.sin(th) * p.g + np.cos(th) * p.g_prime)
    base = cone_field(p).components[0]
    taper = Component(rho=rho, q=q, drho=drho, d2rho=d2rho, q_prime=q_prime)
    return AxisymField(d, th, (base, taper))


@pytest.mark.parametrize("dim", [3, 7])
def test_cone_constancy_and_frozen_value(dim, p3, p7):
    p = p3 if dim == 3 else p7
    u = cone_field(p)
    vals = [weiss(u, r, dim) for r in RADII]
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))
    assert vals[1] == pytest.approx(FROZEN_W1[dim], abs=1e-8)


@pytest.mark.parametrize("dim", [3, 7])
def test_link_measure_identity(dim, p3, p7):
    p = p3 if dim == 3 else p7
    w1, ref, gap = link_measure_identity(p)
    assert gap <= 1e-7
    assert ref == pytest.approx(FROZEN_W1[dim], abs=1e-8)


def test_link_measure_identity_rejects_closed_band(p3):
    wide = dataclasses.replace(p3, theta0=math.pi / 2)
    with pytest.raises(ValueError):
        link_measure_identity(wide)


@pytest.mark.parametrize("dim", [3, 7])
def test_halfplane_value(dim):
    u = halfplane_field(dim)
    ref = sphere_area(dim - 1) / (2 * dim)
    got = weiss(u, 1.0, dim)
    assert abs(got - ref) / ref <= 1e-7
    vals = [weiss(u, r, dim) for r in RADII]
    assert max(vals) - min(vals) <= 1e-8


def test_cone_derivative_vanishes(p7):
    u = cone_field(p7)
    for r in (1.0, 2.0):
        lhs, rhs, gap = weiss_derivative_check(u, r)
        assert abs(lhs) <= 1e-7 and abs(rhs) <= 1e-7 and gap <= 1e-7


def test_derivative_identity_tapered_jacobi(p3):
    u = _tapered_jacobi_field(p3)
    # sanity: the analytic radial derivative matches a numerical one
    taper = u.components[1]
    s = np.linspace(0.3, 2.0, 7)
    h = 1e-5
    fd = (taper.rho(s + h) - taper.rho(s - h)) / (2 * h)
    assert np.allclose(taper.drho(s), fd, rtol=1e-6)
    for r in (0.7, 1.0):
        lhs, rhs, gap = weiss_derivative_check(u, r)
        assert gap <= 1e-4 * max(1.0, abs(lhs), abs(rhs))


def test_derivative_identity_sinlog(p7):
    u = _sinlog_field(p7)
    for r in (1.0, 2.5):
        lhs, rhs, gap = weiss_derivative_check(u, r)
        assert abs(lhs) > 1e-4  # genuinely non-homogeneous at this radius
        assert gap <= 1e-4 * max(1.0, abs(lhs), abs(rhs))


def test_derivative_identity_power(p7):
    u = power_field(p7, 1.4)
    lhs, rhs, gap = weiss_derivative_check(u, 1.0)
    assert lhs > 0
    assert gap <= 1e-4 * max(1.0, abs(lhs))


def test_power_monotone_above_one(p7):
    rep = weiss_report(power_field(p7, 1.1), RADII)
    assert np.all(np.diff(rep.W) > 0)
    assert np.all(rep.dW_rhs >= 0)
    assert np.all(rep.dW_lhs > 0)


def test_perturbed_harmonic_bump(p7, link7):
    # bump r^{gamma_plus} phi_3 is harmonic: rhs reduces to the deficit
    entry = link7.find((0, 3))
    u = perturbed_field(p7, 1e-3, entry.gamma_plus, k=3)
    lhs, rhs, gap = weiss_derivative_check(u, 1.0)
    assert gap <= 1e-6 * max(1.0, abs(lhs))


def test_homogeneous_equipartition_random_profile(p7):
    rng = np.random.default_rng(0)
    for _ in range(3):
        amp, freq = rng.uniform(0.05, 0.3), rng.integers(1, 5)
        th = p7.grid
        q = np.exp(amp * np.cos(freq * th))
        comp = Component(
            rho=lambda r: np.asarray(r, float) * 1.0,
            q=q,
            drho=lambda r: np.ones_like(np.asarray(r, float)),
            d2rho=lambda r: np.zeros_like(np.asarray(r, float)),
            q_prime=-amp * freq * np.sin(freq * th) * q)
        u = AxisymField(p7.dim, th, (comp,))
        vals = [weiss(u, r, p7.dim) for r in RADII]
        assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))


def test_rescaling_coherence(p7):
    u = _sinlog_field(p7)
    for s in (2.0, 0.5):
        got = weiss(u.rescaled(s), 1.0, p7.dim)
        want = weiss(u, s, p7.dim)
        assert got == pytest.approx(want, rel=1e-10)


def test_finite_difference_fallback_matches_analytic_derivatives(p7):
    # a component without drho/d2rho takes its radial derivatives from
    # 5-point stencils of rho; the sin-log field has them in closed form
    full = _sinlog_field(p7)
    c = full.components[0]
    bare = AxisymField(p7.dim, p7.grid, (Component(rho=c.rho, q=c.q, q_prime=c.q_prime),))
    for r in RADII:
        assert weiss(bare, r, p7.dim) == pytest.approx(weiss(full, r, p7.dim), rel=1e-12)
        got = weiss_derivative_check(bare, r)
        want = weiss_derivative_check(full, r)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def _log_oscillating_field(p7):
    comp = Component(
        rho=lambda r: np.asarray(r, float)
            * (1 + 0.5 * np.sin(40 * np.log(np.maximum(np.asarray(r, float), 1e-300)))),
        q=p7.g,
        drho=lambda r: 1 + 0.5 * np.sin(40 * np.log(np.asarray(r, float)))
                         + 20 * np.cos(40 * np.log(np.asarray(r, float))),
        d2rho=lambda r: (20 * np.cos(40 * np.log(np.asarray(r, float)))
                         - 800 * np.sin(40 * np.log(np.asarray(r, float))))
                        / np.asarray(r, float),
        q_prime=p7.g_prime)
    return AxisymField(p7.dim, p7.grid, (comp,))


def test_grid_too_coarse(p7):
    u = _log_oscillating_field(p7)
    with pytest.raises(GridTooCoarse):
        weiss(u, 1.0, p7.dim)


def test_report_errors_name_the_first_bad_radius(p7):
    u = _log_oscillating_field(p7)
    radii = [1.5, 0.75, 3.0]
    with pytest.raises(GridTooCoarse) as first:
        weiss(u, radii[0], p7.dim)
    with pytest.raises(GridTooCoarse) as report:
        weiss_report(u, radii)
    assert str(report.value) == str(first.value)
    assert "r=1.5 " in str(report.value)
    # the dW/dr stencil radii are range-checked too: r + 2h passes r_max
    capped = AxisymField(p7.dim, p7.grid, cone_field(p7).components, r_max=2.0)
    with pytest.raises(ValueError, match="r_max"):
        weiss_report(capped, [1.0, 2.0])


@pytest.mark.parametrize("make, p_name", [(_tapered_jacobi_field, "p3"),
                                          (_sinlog_field, "p7")])
def test_report_blocks_match_single_radius_calls(make, p_name, request):
    p = request.getfixturevalue(p_name)
    u = make(p)
    rng = np.random.default_rng(4)
    radii = list(np.exp(rng.uniform(math.log(0.5), math.log(3.0), 36)))
    radii.insert(20, radii[7])  # 37 radii: unsorted, one repeat, 2 blocks + 5
    rep = weiss_report(u, radii)
    want = np.array([weiss(u, r, p.dim) for r in radii])
    assert np.all(np.abs(rep.W - want) <= 1e-14 * np.abs(want))
    assert rep.W[20] == rep.W[7]
    for r, lhs in zip(radii, rep.dW_lhs):
        h = 1e-3 * r
        w = [weiss(u, r + k * h, p.dim) for k in (-2, -1, 1, 2)]
        fd = (w[0] - 8 * w[1] + 8 * w[2] - w[3]) / (12 * h)
        assert abs(lhs - fd) <= 1e-10 * max(1.0, abs(fd))


def test_report_work_count(p7):
    # 300 radii and their 1200 stencil radii are sampled in blocks, so rho
    # is evaluated about 100 times, not twice per radius (4800 calls)
    calls = []
    base = cone_field(p7).components[0]

    def rho(r):
        calls.append(1)
        return base.rho(r)

    u = AxisymField(p7.dim, p7.grid, (dataclasses.replace(base, rho=rho),))
    rep = weiss_report(u, np.linspace(0.25, 4.0, 300))
    assert 0 < len(calls) <= 100, len(calls)
    assert np.ptp(rep.W) <= 1e-8 * abs(rep.W[0])


def test_fields_build_across_dimensions():
    # the free-boundary ends of g are exactly 0, so the nonnegativity check
    # of AxisymField accepts every profile
    for d in range(3, 17):
        p = solve_profile(d)
        assert p.g[0] == 0.0 and p.g[-1] == 0.0
        cone = cone_field(p)
        power_field(p, 1.4)
        perturbed_field(p, 0.05, 1.5)
        w1, ref, gap = link_measure_identity(p)
        assert gap <= 1e-7, d
        assert weiss(cone, 2.0, d) == pytest.approx(w1, rel=1e-8, abs=1e-8)


def test_weiss_argument_validation(p7):
    u = cone_field(p7)
    with pytest.raises(ValueError):
        weiss(u, 1.0, 3)
    with pytest.raises(ValueError):
        weiss(u, 0.0, 7)
    capped = AxisymField(p7.dim, p7.grid, u.components, r_max=2.0)
    with pytest.raises(ValueError):
        weiss(capped, 3.0, 7)


def test_field_validation(p7):
    comp = cone_field(p7).components[0]
    with pytest.raises(ValueError):
        AxisymField(p7.dim, p7.grid[::-1], (comp,))
    with pytest.raises(ValueError):
        AxisymField(p7.dim, p7.grid[:-1], (comp,))
    neg = Component(rho=comp.rho, q=-p7.g, drho=comp.drho, d2rho=comp.d2rho,
                    q_prime=comp.q_prime)
    with pytest.raises(ValueError):
        AxisymField(p7.dim, p7.grid, (neg,))
    with pytest.raises(ValueError):
        AxisymField(2, p7.grid, (comp,))


def test_report_fields_and_kappa0(p7):
    u = cone_field(p7)
    rep = weiss_report(u, RADII)
    assert rep.W.shape == (4,) and rep.dW_lhs.shape == (4,)
    assert np.all(rep.dW_rhs >= -1e-12)  # deficit term is a square
    w = np.sin(p7.grid) ** (p7.dim - 2)
    want = sphere_area(p7.dim - 2) * float(simpson(p7.g ** 2 * w, x=p7.grid))
    assert rep.kappa0 ** 2 == pytest.approx(want, rel=1e-12)
    d = rep.to_dict()
    assert set(d) == {"r_values", "W", "dW_lhs", "dW_rhs", "kappa0"}


@pytest.mark.parametrize("dim", [3, 7])
def test_aperture_functional_matches_weiss(dim, p3, p7):
    p = p3 if dim == 3 else p7
    f0 = F_functional(p.theta0, p, dim)
    assert f0 == pytest.approx(FROZEN_W1[dim], rel=1e-7)


@pytest.mark.parametrize("dim", [3, 7])
def test_aperture_criticality(dim, p3, p7):
    p = p3 if dim == 3 else p7
    eps = 1e-4
    f0 = F_functional(p.theta0, p, dim)
    dfde = (F_functional(p.theta0 + eps, p, dim)
            - F_functional(p.theta0 - eps, p, dim)) / (2 * eps)
    assert abs(dfde) <= 1e-5 * f0


def test_aperture_functional_validation(p7):
    with pytest.raises(ValueError):
        F_functional(p7.theta0, p7, 3)
    with pytest.raises(ValueError):
        F_functional(0.0, p7, 7)
    with pytest.raises(ValueError):
        F_functional(math.pi / 2, p7, 7)


def test_foliation_leaves(p7, link7):
    rs = np.array([0.5, 1.0, 3.0])
    grid = np.stack(np.meshgrid(rs, p7.grid, indexing="ij"), axis=-1)
    u0 = foliation_leading_term(p7, link7, "upper", 0.0, grid)
    assert np.allclose(u0, rs[:, None] * p7.g[None, :], atol=1e-12)

    up = foliation_leading_term(p7, link7, "upper", 0.2, grid)
    lo = foliation_leading_term(p7, link7, "lower", 0.2, grid)
    assert np.all(up >= u0 - 1e-14) and np.all(lo <= u0 + 1e-14)

    # the leaf offset scales like r^gamma with gamma from the ground mode
    mid = p7.grid.size // 2
    r_probe = np.linspace(1.0, 8.0, 20)
    pts = np.stack([r_probe, np.full_like(r_probe, p7.grid[mid])], axis=-1)
    diff = foliation_leading_term(p7, link7, "upper", 0.2, pts) \
        - foliation_leading_term(p7, link7, "upper", 0.0, pts)
    slope = np.polyfit(np.log(r_probe), np.log(diff), 1)[0]
    gamma = -(p7.dim - 2) / 2 + math.sqrt(((p7.dim - 2) / 2) ** 2 + link7.lambda1)
    assert slope == pytest.approx(gamma, abs=1e-6)

    # outside the band both the profile and the bump vanish
    outside = np.array([[1.0, 0.1], [2.0, math.pi - 0.1]])
    assert np.all(foliation_leading_term(p7, link7, "upper", 0.3, outside) == 0)


def test_foliation_validation(p3, p7, link3, link7):
    with pytest.raises(MissingCoefficient):
        foliation_leading_term(p7, link7, "upper", None, [[1.0, math.pi / 2]])
    with pytest.raises(ValueError):
        foliation_leading_term(p7, link7, "sideways", 0.1, [[1.0, math.pi / 2]])
    with pytest.raises(ValueError):
        foliation_leading_term(p7, link7, "upper", 0.1, [[0.0, math.pi / 2]])
    with pytest.raises(NumericalError):
        foliation_leading_term(p3, link3, "upper", 0.1, [[1.0, math.pi / 2]])
