"""Weiss functional: constancy on cones, the boundary-measure identity, the
derivative identity on non-homogeneous fields, and aperture criticality."""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from conespec.boundary import sphere_area
from conespec.errors import (GridTooCoarse, InputError, MissingCoefficient, NonFiniteResult,
                             NumericalError)
from conespec.profile import solve_profile
from conespec._quad import _derivative
from conespec._quad import simpson as quad_simpson
from conespec.weiss import (_BLOCK, _BOOLE, _T, AxisymField, Component, F_functional, _grams,
                            _power_component, _qform, _rho_matrices, cone_field,
                            foliation_leading_term, halfplane_field, link_measure_identity,
                            perturbed_field, power_field, weiss, weiss_derivative_check,
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
    vals = [weiss(u, r) for r in RADII]
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
    got = weiss(u, 1.0)
    assert abs(got - ref) / ref <= 1e-7
    vals = [weiss(u, r) for r in RADII]
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
        vals = [weiss(u, r) for r in RADII]
        assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))


def test_rescaling_coherence(p7):
    u = _sinlog_field(p7)
    for s in (2.0, 0.5):
        got = weiss(u.rescaled(s), 1.0)
        want = weiss(u, s)
        assert got == pytest.approx(want, rel=1e-10)


def test_finite_difference_fallback_matches_analytic_derivatives(p7):
    # a component without drho/d2rho takes its radial derivatives from
    # 5-point stencils of rho; the sin-log field has them in closed form
    full = _sinlog_field(p7)
    c = full.components[0]
    bare = AxisymField(p7.dim, p7.grid, (Component(rho=c.rho, q=c.q, q_prime=c.q_prime),))
    for r in RADII:
        assert weiss(bare, r) == pytest.approx(weiss(full, r), rel=1e-12)
        got = weiss_derivative_check(bare, r)
        want = weiss_derivative_check(full, r)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)
    # the stencil's step is 1e-4 s, so its points stay positive however small r is
    for r in (1e-9, 1e-12):
        assert weiss(bare, r) == pytest.approx(weiss(full, r), rel=1e-12)


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
        weiss(u, 1.0)


def _kinked_field(p, r_max=math.inf):
    """u = r g(theta) for r <= 1 and r (1 + 0.5 sin(40 log r)) g(theta) beyond:
    rho' jumps from 1 to 21 at r = 1, so radii up to 1 are resolved and the
    radial quadrature of every radius past 1 is too coarse."""
    def rho(r):
        r = np.asarray(r, float)
        return r * (1 + 0.5 * np.sin(40 * np.log(np.maximum(r, 1.0))))

    def drho(r):
        x = 40 * np.log(np.maximum(np.asarray(r, float), 1.0))
        return 1 + 0.5 * np.sin(x) + 20 * np.cos(x) * (np.asarray(r, float) > 1.0)

    comp = Component(rho=rho, q=p.g, drho=drho, q_prime=p.g_prime)
    return AxisymField(p.dim, p.grid, (comp,), r_max=r_max)


def test_report_errors_name_the_first_bad_radius(p7):
    u = _log_oscillating_field(p7)
    radii = [1.5, 0.75, 3.0]
    with pytest.raises(GridTooCoarse) as first:
        weiss(u, radii[0])
    with pytest.raises(GridTooCoarse) as report:
        weiss_report(u, radii)
    assert str(report.value) == str(first.value)
    assert "r=1.5 " in str(report.value)
    # dW/dr needs no radius past r: r = r_max answers, r > r_max raises
    capped = AxisymField(p7.dim, p7.grid, cone_field(p7).components, r_max=2.0)
    assert np.all(np.isfinite(weiss_report(capped, [1.0, 2.0]).dW_lhs))
    with pytest.raises(ValueError, match="r_max"):
        weiss_report(capped, [1.0, np.nextafter(2.0, 3.0)])
    # across blocks: resolved radii fill the first block, the first coarse one
    # sits past index _BLOCK, and a later block is coarse throughout
    radii = [*np.linspace(0.3, 1.0, _BLOCK + 3), 1.5, *np.linspace(1.2, 1.9, _BLOCK)]
    u = _kinked_field(p7)
    assert np.all(np.isfinite(weiss_report(u, radii[:_BLOCK + 3]).W))
    with pytest.raises(GridTooCoarse) as first:
        weiss(u, 1.5)
    with pytest.raises(GridTooCoarse) as report:
        weiss_report(u, radii)
    assert str(report.value) == str(first.value)
    assert "r=1.5 " in str(report.value)
    # a radius out of range before the first coarse one ends the radii evaluated
    with pytest.raises(InputError, match="r_max"):
        weiss_report(_kinked_field(p7, r_max=1.7), [*radii[:_BLOCK + 1], 1.8, *radii[_BLOCK + 1:]])


def test_report_overflow_in_a_later_block_beats_a_coarse_radius(p7):
    # every block's samples are taken before W is checked, so rho^2 overflowing
    # at r = 1e200 in the second block raises before the coarse r = 1.5 of the first
    u = _kinked_field(p7)
    radii = [1.5, *np.linspace(0.3, 1.0, _BLOCK), 1e200]
    with pytest.raises(GridTooCoarse):
        weiss_report(u, radii[:-1])
    with pytest.raises(NonFiniteResult):
        weiss_report(u, radii)


@pytest.mark.parametrize("make, p_name", [(_tapered_jacobi_field, "p3"),
                                          (_sinlog_field, "p7")])
def test_report_blocks_match_single_radius_calls(make, p_name, request):
    p = request.getfixturevalue(p_name)
    u = make(p)
    rng = np.random.default_rng(4)
    radii = list(np.exp(rng.uniform(math.log(0.5), math.log(3.0), 2 * _BLOCK + 4)))
    radii.insert(20, radii[7])  # unsorted, one repeat, 2 blocks + 5
    rep = weiss_report(u, radii)
    want = np.array([weiss(u, r) for r in radii])
    assert np.all(np.abs(rep.W - want) <= 1e-14 * np.abs(want))
    assert rep.W[20] == rep.W[7]
    for r, lhs in zip(radii, rep.dW_lhs):
        h = 1e-3 * r
        w = [weiss(u, r + k * h) for k in (-2, -1, 1, 2)]
        fd = (w[0] - 8 * w[1] + 8 * w[2] - w[3]) / (12 * h)
        assert abs(lhs - fd) <= 1e-10 * max(1.0, abs(fd))


def _fields(p):
    return {"cone": cone_field(p), "halfplane": halfplane_field(p.dim),
            "power": power_field(p, 1.4), "perturbed": perturbed_field(p, 0.05, 1.5)}


@pytest.mark.parametrize("dim, r", [(60, 1e-6), (60, 1e6), (7, 1e-50), (7, 1e60)])
def test_cone_energy_is_scale_free_at_extreme_radii(dim, r, p7):
    # r^d under- or overflows at these radii, while r^{-d} int_{B_r} of a
    # 1-homogeneous field is the same number at every r
    p = p7 if dim == 7 else solve_profile(dim)
    ref = link_measure_identity(p)[1]
    got = weiss(cone_field(p), r)
    assert abs(got - ref) <= 1e-7 * abs(ref)
    assert got == pytest.approx(weiss(cone_field(p), 1.0), rel=1e-12)
    half = halfplane_field(dim)
    got = weiss(half, r)
    ref = sphere_area(dim - 1) / (2 * dim)
    assert abs(got - ref) <= 1e-7 * ref
    assert got == pytest.approx(weiss(half, 1.0), rel=1e-12)


def _sample_power_weiss(u, radii):
    """(W, dW_lhs, dW_rhs) by the radial quadrature with s^{d-1} and s^{d-3}
    taken on the samples and the plain Boole weights, r^d divided out after."""
    d = u.dim
    gq, gqp, sw = _grams(u)
    sd2 = sphere_area(d - 2)
    r = np.asarray(radii, float)
    s = (r[:, None] * _T).ravel()
    rr, rp, _ = _rho_matrices(u, s)
    y = (np.einsum("is,ij,js->s", rp, gq, rp) * s ** (d - 1)
         + np.einsum("is,ij,js->s", rr, gqp, rr) * s ** (d - 3)).reshape(r.size, -1)
    full = r * (y @ _BOOLE)
    end, dend = rr[:, _T.size - 1::_T.size], rp[:, _T.size - 1::_T.size]
    bnd = np.einsum("is,ij,js->s", end, gq, end)
    cross = np.einsum("is,ij,js->s", end, gq, dend)
    w = sd2 * (full / r ** d + sw / d - bnd / r ** 2)
    dw = sd2 * ((y[:, -1] - d * full / r) / r ** d + 2 * (bnd / r - cross) / r ** 2)
    c = r * dend - end
    return w, dw, 2.0 * sd2 * np.einsum("is,ij,js->s", c, gq, c) / r ** 3


@pytest.mark.parametrize("dim", [3, 7, 12, 24])
def test_radial_weights_match_sample_powers(dim, p3, p7):
    # the t-powers carried by the weight tables give what the powers of the
    # samples gave, within rounding
    p = {3: p3, 7: p7}.get(dim) or solve_profile(dim)
    radii = np.exp(np.linspace(math.log(0.25), math.log(4.0), 37))
    for name, u in _fields(p).items():
        rep = weiss_report(u, radii)
        want = _sample_power_weiss(u, radii)
        for got, ref in zip((rep.W, rep.dW_lhs, rep.dW_rhs), want):
            scale = np.fmax(np.abs(ref), np.fmax(1.0, np.abs(want[0])))
            worst = np.max(np.abs(got - ref) / scale)
            assert worst <= 1e-13, (name, worst)


@pytest.mark.parametrize("dim", [3, 7, 12])
def test_leibniz_derivative_matches_five_point_stencil(dim, p3, p7):
    fields = _fields({3: p3, 7: p7}.get(dim) or solve_profile(dim))
    c = fields["power"].components[0]
    fields["bare"] = AxisymField(dim, fields["power"].theta,
                                 (Component(rho=c.rho, q=c.q, q_prime=c.q_prime),))
    fields["rescaled"] = fields["perturbed"].rescaled(1.7)
    radii = (0.4, 1.0, 2.3)
    for name, u in fields.items():
        rep = weiss_report(u, radii)
        for r, lhs in zip(radii, rep.dW_lhs):
            h = 1e-3 * r
            w = [weiss(u, r + k * h) for k in (-2, -1, 1, 2)]
            fd = (w[0] - 8 * w[1] + 8 * w[2] - w[3]) / (12 * h)
            scale = max(abs(fd), np.max(np.abs(rep.W)))
            assert abs(lhs - fd) <= 1e-10 * scale, (name, r, lhs, fd)


@pytest.mark.parametrize("name", ["power", "perturbed"])
def test_one_pass_one_answer(name, p7):
    u = _fields(p7)[name]
    w = np.sin(u.theta) ** (u.dim - 2)
    qs = [c.q for c in u.components]
    gq = np.array([[simpson(qi * qj * w, x=u.theta) for qj in qs] for qi in qs])
    for r in (0.6, 1.0, 2.5):
        rep = weiss_report(u, [r])
        assert weiss_derivative_check(u, r)[0] == rep.dW_lhs[0]
        c = np.array([r * comp.drho(r) - comp.rho(r) for comp in u.components])
        want = 2 * sphere_area(u.dim - 2) * (c @ gq @ c) / r ** 3
        assert rep.dW_rhs[0] == pytest.approx(want, rel=1e-13, abs=0)
    capped = AxisymField(u.dim, u.theta, u.components, r_max=2.0)
    rep = weiss_report(capped, [2.0])
    assert rep.W[0] == weiss(u, 2.0)
    assert rep.dW_lhs[0] == weiss_derivative_check(u, 2.0)[0]


def test_report_work_count(p7):
    # 300 radii are sampled in blocks of 16 that also give dW/dr and the
    # deficit, so rho is evaluated 19 times, not once per radius
    calls = []
    base = cone_field(p7).components[0]

    def rho(r):
        calls.append(1)
        return base.rho(r)

    u = AxisymField(p7.dim, p7.grid, (dataclasses.replace(base, rho=rho),))
    rep = weiss_report(u, np.linspace(0.25, 4.0, 300))
    assert 0 < len(calls) <= 19, len(calls)
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
        assert weiss(cone, 2.0) == pytest.approx(w1, rel=1e-8, abs=1e-8)


def test_weiss_argument_validation(p7):
    u = cone_field(p7)
    with pytest.raises(ValueError):
        weiss(u, 0.0)
    capped = AxisymField(p7.dim, p7.grid, u.components, r_max=2.0)
    with pytest.raises(ValueError):
        weiss(capped, 3.0)
    # a wrongly shaped radius argument is refused as input, naming its shape,
    # not left to numpy's indexing or broadcasting
    for call, bad, shape in ((weiss_report, 1.0, "()"), (weiss_report, [[1.0, 2.0]], "(1, 2)"),
                             (weiss, [1.0, 2.0], "(2,)"),
                             (weiss_derivative_check, [1.0, 2.0], "(2,)")):
        with pytest.raises(InputError, match=re.escape(f"shape {shape}")):
            call(u, bad)
    # a 0-d array is one radius, and an empty list no radii
    assert weiss(u, np.array(1.0)) == weiss(u, 1.0)
    assert weiss_derivative_check(u, np.array(1.0)) == weiss_derivative_check(u, 1.0)
    rep = weiss_report(u, [])
    assert rep.W.shape == rep.dW_lhs.shape == rep.dW_rhs.shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_form_equals_einsum(n):
    # the block forms are summed in einsum's own order, bit for bit
    rng = np.random.default_rng(n)
    for samples in (2, 7, 512, 6144, 8192):
        x, y = rng.standard_normal((2, n, samples)) * 10.0 ** rng.uniform(-3, 3, (2, n, 1))
        g = rng.standard_normal((n, n))
        g += g.T
        for xx, yy in ((x, y), (x, x)):
            want = np.einsum("is,ij,js->s", xx, g, yy)
            assert _qform(xx, g, yy).tobytes() == want.tobytes(), samples


def _grams_per_entry(u):
    """(G_q, G_q', sw) by one Simpson call per entry and one for sw."""
    th = u.theta
    w = np.sin(th) ** (u.dim - 2)
    h = (th[-1] - th[0]) / (th.size - 1)
    qs = [c.q for c in u.components]
    qps = [c.q_prime if c.q_prime is not None else _derivative(c.q, h) for c in u.components]
    gq, gqp = (np.array([[quad_simpson(a * b * w, x=th) for b in vs] for a in vs])
               for vs in (qs, qps))
    return gq, gqp, quad_simpson(w, x=th)


def test_grams_equal_the_per_entry_loop(p7):
    cone, perturbed = cone_field(p7), perturbed_field(p7, 0.05, 1.5)
    taper = _tapered_jacobi_field(p7).components[1]
    bare = [Component(rho=c.rho, q=c.q) for c in perturbed.components]
    fields = {"cone": cone, "perturbed": perturbed,
              "three": AxisymField(p7.dim, p7.grid, perturbed.components + (taper,)),
              "no q_prime": AxisymField(p7.dim, p7.grid, (bare[0], perturbed.components[1],
                                                          bare[1]))}
    for name, u in fields.items():
        gq, gqp, sw = _grams(u)
        want = _grams_per_entry(u)
        assert gq.tobytes() == want[0].tobytes(), name
        assert gqp.tobytes() == want[1].tobytes(), name
        assert sw == want[2], name


@pytest.mark.parametrize("amp", [1.0, 0.05])
def test_degree_one_factor_equals_the_power_formula(amp, p7):
    e = 1.0
    comps = [_power_component(p7.g, p7.g_prime, e, amp)]
    if amp == 1.0:
        comps += [cone_field(p7).components[0], halfplane_field(7).components[0],
                  perturbed_field(p7, 0.05, 1.5).components[0]]
    for r in (1e-6, 0.3, 1.0, 7.0, 1e6):
        s = r * _T
        for comp in comps:
            assert comp.rho(s).tobytes() == (amp * s ** e).tobytes()
            assert comp.drho(s).tobytes() == (amp * e * s ** (e - 1)).tobytes()


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


@pytest.mark.parametrize("dim", [3, 7, 12])
def test_q_prime_fallback_matches_analytic_profile_derivative(dim, p3, p7):
    # a component given q only takes q' from the fourth-order stencil on the
    # uniform theta grid; the budget is the radial quadrature's own 1e-9
    p = {3: p3, 7: p7}.get(dim) or solve_profile(dim)
    for u in (cone_field(p), perturbed_field(p, 0.05, 2.5, 1)):
        bare = AxisymField(u.dim, u.theta, tuple(dataclasses.replace(c, q_prime=None)
                                                 for c in u.components))
        assert weiss(bare, 1.3) == pytest.approx(weiss(u, 1.3), rel=1e-10)


def test_q_prime_fallback_needs_a_uniform_grid(p7):
    comp = dataclasses.replace(cone_field(p7).components[0], q_prime=None)
    th = p7.grid.copy()
    th[5] += 1e-3 * (th[6] - th[5])
    AxisymField(p7.dim, p7.grid, (comp,))
    with pytest.raises(ValueError, match="uniform theta grid"):
        AxisymField(p7.dim, th, (comp,))
    with pytest.raises(ValueError, match="uniform theta grid"):
        AxisymField(p7.dim, p7.grid[:4], (dataclasses.replace(comp, q=p7.g[:4]),))


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
    u0 = foliation_leading_term(p7, "upper", 0.0, grid)
    assert np.allclose(u0, rs[:, None] * p7.g[None, :], atol=1e-12)

    up = foliation_leading_term(p7, "upper", 0.2, grid)
    lo = foliation_leading_term(p7, "lower", 0.2, grid)
    assert np.all(up >= u0 - 1e-14) and np.all(lo <= u0 + 1e-14)

    # the leaf offset scales like r^gamma with gamma from the ground mode
    mid = p7.grid.size // 2
    r_probe = np.linspace(1.0, 8.0, 20)
    pts = np.stack([r_probe, np.full_like(r_probe, p7.grid[mid])], axis=-1)
    diff = foliation_leading_term(p7, "upper", 0.2, pts) \
        - foliation_leading_term(p7, "upper", 0.0, pts)
    slope = np.polyfit(np.log(r_probe), np.log(diff), 1)[0]
    gamma = -(p7.dim - 2) / 2 + math.sqrt(((p7.dim - 2) / 2) ** 2 + link7.lambda1)
    assert slope == pytest.approx(gamma, abs=1e-6)

    # outside the band both the profile and the bump vanish
    outside = np.array([[1.0, 0.1], [2.0, math.pi - 0.1]])
    assert np.all(foliation_leading_term(p7, "upper", 0.3, outside) == 0)


def test_foliation_validation(p3, p7):
    with pytest.raises(MissingCoefficient):
        foliation_leading_term(p7, "upper", None, [[1.0, math.pi / 2]])
    with pytest.raises(ValueError):
        foliation_leading_term(p7, "sideways", 0.1, [[1.0, math.pi / 2]])
    with pytest.raises(ValueError):
        foliation_leading_term(p7, "upper", 0.1, [[0.0, math.pi / 2]])
    with pytest.raises(NumericalError):
        foliation_leading_term(p3, "upper", 0.1, [[1.0, math.pi / 2]])


def test_every_weiss_entry_point_refuses_overflow(p7, monkeypatch):
    # r^200 overflows at r = 100: each entry point raises, none returns NaN
    u = power_field(p7, 200.0)
    # u rescaled by 100 is u at r = 100, as the cone field evaluated at r = 1;
    # the package's name ``weiss`` is the function, so reach the module itself
    monkeypatch.setattr(sys.modules[weiss.__module__], "cone_field",
                        lambda p: u.rescaled(100.0))
    calls = (lambda: weiss(u, 100.0), lambda: weiss_derivative_check(u, 100.0),
             lambda: weiss_report(u, [100.0]), lambda: link_measure_identity(p7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NonFiniteResult, match="non-finite Weiss energy"):
                call()
