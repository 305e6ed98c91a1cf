"""Boundary (Steklov-shifted Robin) spectrum of the link.

Closed-form oracle: for mu=0 the odd harmonic has psi' = c sin^{2-d}, so the
boundary eigenvalue is H - sin^{2-d}(b) / int_{pi/2}^b sin^{2-d}, computable
by ordinary quadrature with no ODE solve at all.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conespec import boundary
from conespec.boundary import (boundary_modes, sphere_area,
                               steklov_fd_crosscheck)
from conespec.errors import DegenerateBasis
from conespec.kernels import propagate_band
from conespec.profile import solve_profile

FROZEN_D7 = {  # (ell, parity) -> ell_k, checked against the oracles below
    (0, "even"): 3.0225473540539904,   # = H exactly
    (1, "even"): 0.0,                  # transverse-translation trace
    (0, "odd"): 0.0,                   # axial-translation trace
    (1, "odd"): -1.0614515576,
    (2, "even"): -1.8842341744,
    (2, "odd"): -2.2587432724,
}
# same oracle on the half-aperture band (no resonance there), with the
# half-band's own mean curvature H = (d-2) tan(theta0/2)
FROZEN_HALF_BAND_D7_MU0_ODD = -2.7678848077951335


def _ell_mu0_odd(d, theta0, H):
    b = math.pi / 2 + theta0
    val, err = quad(lambda t: math.sin(t) ** (2 - d), math.pi / 2, b)
    assert err < 1e-12
    return H - math.sin(b) ** (2 - d) / val


def test_sphere_area_values():
    assert abs(sphere_area(0) - 2.0) < 1e-15
    assert abs(sphere_area(1) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(2) - 4 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 2 * math.pi ** 2) < 1e-13


def test_first_mode_is_H_exactly(bmodes7, p7):
    top = bmodes7[0]
    assert (top.ell, top.parity) == (0, "even")
    assert top.ell_k == pytest.approx(p7.H, abs=1e-13)
    assert not top.in_resonance
    # the even mu=0 harmonic is the constant; its trace is flat
    assert np.max(np.abs(top.psi - top.psi[0])) < 1e-13


def test_frozen_d7_values(bmodes7):
    seen = {(m.ell, m.parity): m.ell_k for m in bmodes7}
    for key, ref in FROZEN_D7.items():
        assert seen[key] == pytest.approx(ref, abs=2e-9), key


def test_ordering_and_indexing(bmodes7):
    ells = [m.ell_k for m in bmodes7]
    assert ells == sorted(ells, reverse=True)
    assert [m.k for m in bmodes7] == [1, 2, 3, 4, 5, 6]


def test_resonance_set_is_the_translation_traces(bmodes7, p7):
    res = [m for m in bmodes7 if m.in_resonance]
    assert {(m.ell, m.parity) for m in res} == {(1, "even"), (0, "odd")}
    assert sum(m.multiplicity for m in res) == p7.dim
    for m in res:
        assert abs(m.ell_k) < 1e-9


def test_trace_normalization(bmodes7, p7):
    trace_w = math.cos(p7.theta0) ** (p7.dim - 2) * sphere_area(p7.dim - 2)
    for m in bmodes7:
        norm = trace_w * (m.psi[0] ** 2 + m.psi[-1] ** 2)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert m.psi[-1] > 0  # sign convention at the right endpoint


def test_quadrature_oracle_on_the_cone_band(bmodes7, p7):
    # on the solution band the mu=0 odd harmonic *is* the axial-translation
    # trace, so the closed form must return 0 = the resonance
    oracle = _ell_mu0_odd(p7.dim, p7.theta0, p7.H)
    assert abs(oracle) < 1e-10
    computed = next(m.ell_k for m in bmodes7 if (m.ell, m.parity) == (0, "odd"))
    assert abs(computed - oracle) < 1e-9


def test_quadrature_oracle_on_half_band(p7):
    # shrink the band to theta0/2: the mode leaves resonance and the solver
    # must match plain quadrature of the closed form
    th = p7.theta0 / 2
    d = p7.dim
    half = dataclasses.replace(
        p7, theta0=th, H=(d - 2) * math.tan(th),
        grid=np.linspace(math.pi / 2 - th, math.pi / 2 + th, p7.grid.size))
    modes = boundary_modes(half, 8)
    got = next(m.ell_k for m in modes if (m.ell, m.parity) == (0, "odd"))
    oracle = _ell_mu0_odd(d, th, half.H)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(FROZEN_HALF_BAND_D7_MU0_ODD, abs=1e-8)


def test_fd_crosscheck_first_six(bmodes7, p7):
    fd_cache = {}
    for m in bmodes7:
        if m.mu not in fd_cache:
            fd_cache[m.mu] = steklov_fd_crosscheck(p7, m.mu)
        even, odd = fd_cache[m.mu]
        ref = even if m.parity == "even" else odd
        assert abs(m.ell_k - ref) <= 1e-5, (m.ell, m.parity)


def test_degenerate_basis_on_coarse_grid(p7):
    a, b = p7.band
    mangled = dataclasses.replace(p7, grid=np.linspace(a, b, 5),
                                  g=np.zeros(5), g_prime=np.zeros(5))
    with pytest.raises(DegenerateBasis):
        boundary_modes(mangled, 4)


def test_count_validation(p7):
    with pytest.raises(ValueError):
        boundary_modes(p7, 0)


def test_modes_mirror_exactly(p7):
    # psi is even or odd about the centre sample, sample for sample, and
    # psi' has the opposite parity
    for m in boundary_modes(p7, 12):
        c = m.psi.size // 2
        sign = 1.0 if m.parity == "even" else -1.0
        assert np.array_equal(m.psi[:c], sign * m.psi[:c:-1]), (m.ell, m.parity)
        assert np.array_equal(m.psi_prime[:c], -sign * m.psi_prime[:c:-1]), (m.ell, m.parity)


@pytest.mark.parametrize("dim, count", [(3, 40), (7, 60), (12, 80)])
def test_high_degree_modes_match_fd(dim, count):
    # at high sphere degree the Wronskian's two products reach 1e9 and more;
    # their rounding is no lost independence, and the modes stay exact
    # (relative to max(1, |ell|): the translation traces are 0)
    p = solve_profile(dim)
    fd = {}
    for m in boundary_modes(p, count):
        if m.mu not in fd:
            fd[m.mu] = steklov_fd_crosscheck(p, m.mu)
        ref = fd[m.mu][0 if m.parity == "even" else 1]
        assert abs(m.ell_k - ref) <= 1e-9 * max(1.0, abs(ref)), (m.ell, m.parity, m.ell_k, ref)


def _shot_mus(monkeypatch):
    """The mu of every harmonic pair boundary shoots, recorded into the returned list."""
    mus = []

    def recorded(dm2, mu, *args, _fn=boundary.propagate_band):
        mus.append(mu)
        return _fn(dm2, mu, *args)

    monkeypatch.setattr(boundary, "propagate_band", recorded)
    return mus


def _mode_bytes(modes):
    return [(m.ell_k, m.psi.tobytes(), m.psi_prime.tobytes()) for m in modes]


def test_pairs_are_shot_once_per_band_and_mu(monkeypatch):
    # a second call on the same cone shoots only the sphere degrees the first
    # did not reach, and its modes equal those of a cold call bit for bit
    p = solve_profile(9)
    boundary._pairs.clear()
    cold = {count: _mode_bytes(boundary_modes(p, count)) for count in (5, 6)}
    boundary._pairs.clear()
    mus = _shot_mus(monkeypatch)
    first = boundary_modes(p, 5)
    held = list(mus)
    second = boundary_modes(p, 6)
    assert held and not set(mus[len(held):]) & set(held), mus
    assert _mode_bytes(first) == cold[5] and _mode_bytes(second) == cold[6]
    assert len(boundary._pairs) == len(mus)
    assert all(not a.flags.writeable for pair in boundary._pairs.values() for a in pair)
    boundary._pairs.clear()


def test_pair_memo_keeps_to_its_budget(monkeypatch):
    # the oldest pairs leave first, and a pair larger than the whole budget is not kept
    p = solve_profile(9)
    one = 4 * (p.grid.size // 2 + 1)  # samples of one pair: four right half-band arrays
    mus = _shot_mus(monkeypatch)
    for budget, kept in ((2 * one, 2), (one - 1, 0)):
        monkeypatch.setattr(boundary, "_PAIR_BUDGET", budget)
        boundary._pairs.clear()
        mus.clear()
        boundary_modes(p, 8)
        assert len(mus) > 2
        assert [key[3] for key in boundary._pairs] == mus[len(mus) - kept:], budget
    boundary._pairs.clear()


def test_pair_memo_ignores_a_grid_that_is_not_the_band_grid(p7):
    # the key names the band grid of (theta0, size); a profile on another grid
    # of that size neither reads nor fills the memo
    boundary._pairs.clear()
    boundary_modes(p7, 4)
    held = dict(boundary._pairs)
    a, b = p7.band
    other = dataclasses.replace(p7, grid=np.linspace(a, b, p7.grid.size))
    assert other.grid is not p7.grid
    (qe, _), _ = boundary._harmonic_pair(other, 0.0)
    right = other.grid[other.grid.size // 2:]
    g, _ = propagate_band(p7.dim - 2, 0.0, 0.0, right, 1.0, 0.0)
    assert np.array_equal(qe[qe.size // 2:], g)
    assert list(boundary._pairs) == list(held)
    assert all(boundary._pairs[key] is pair for key, pair in held.items())
    boundary._pairs.clear()
