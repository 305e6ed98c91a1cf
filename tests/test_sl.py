"""Band Sturm-Liouville engine: the Ritz ladder's eigenvalues and the shots vs
the finite-difference oracle, oscillation/ordering properties, and frozen d=7
reference eigenvalues."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conespec import profile, sl
from conespec.config import GRID_N_MAX, SolverConfig
from conespec.errors import BracketFail, ZeroDenominator
from conespec.linkspec import _H2_LAMBDA_MAX
from conespec.sl import (SLSpec, band_spec, eigen_fd_crosscheck, eigen_k, eigen_pairs,
                         eigenvalue, eigenvalues, rayleigh)
from conespec.spheremodes import SphereMode

# d=7 interior Robin eigenvalues, frozen after cross-checking against the
# Richardson-extrapolated FD values below (agreement ~1e-9 at grid_n=4096).
# (mu, k): lambda.  mu=5 is the ell=1 sector, mu=12 the ell=2 sector.
FROZEN_D7 = {
    (0.0, 1): -5.698402217765,
    (0.0, 2): 0.0,
    (0.0, 3): 25.636723756989,
    (5.0, 1): 0.0,
    (5.0, 2): 6.0,
    (5.0, 3): 31.223790625059,
    (12.0, 1): 7.947140991418,
}


def test_frozen_d7_robin_values(p7):
    for (mu, k), ref in FROZEN_D7.items():
        pair = eigen_k(band_spec(p7, mu, "robin"), k)
        assert abs(pair.lam - ref) < 1e-8, (mu, k, pair.lam)
        assert pair.nodes == k - 1
        assert max(pair.bc_residual) < 1e-7


@pytest.mark.parametrize("d", [3, 7])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
@pytest.mark.parametrize("mu_kind", ["zero", "dm2"])
def test_shooting_agrees_with_fd_oracle(d, bc, mu_kind, p3, p7):
    p = p3 if d == 3 else p7
    mu = 0.0 if mu_kind == "zero" else float(d - 2)
    spec = band_spec(p, mu, bc)
    fd = eigen_fd_crosscheck(spec, 5)
    for k in range(1, 6):
        lam = eigen_k(spec, k).lam
        assert abs(lam - fd[k - 1]) <= 1e-5, (d, bc, mu, k, lam, fd[k - 1])


def test_oscillation_count_random_sector(p3, p7):
    # nodes == k-1 for the k-th eigenfunction, across random (d, mu, k)
    rng = np.random.default_rng(0)
    profiles = {3: p3, 7: p7}
    for _ in range(20):
        d = int(rng.choice([3, 7]))
        mu = float(rng.choice([0.0, 1.0, d - 2.0, 10.0 * rng.random()]))
        k = int(rng.integers(1, 7))
        bc = "robin" if rng.random() < 0.5 else "dirichlet"
        pair = eigen_k(band_spec(profiles[d], mu, bc), k)
        assert pair.nodes == k - 1
        assert pair.fn_prime[0] > 0  # sign convention


def test_eigenvalues_increase_in_k_and_mu(p7):
    for mu in (0.0, 5.0):
        vals = [eigen_k(band_spec(p7, mu, "robin"), k).lam for k in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    lo = [eigen_k(band_spec(p7, 0.0, "robin"), k).lam for k in (1, 2, 3)]
    hi = [eigen_k(band_spec(p7, 5.0, "robin"), k).lam for k in (1, 2, 3)]
    assert all(a < b for a, b in zip(lo, hi))


def test_robin_below_dirichlet(p3, p7):
    # dropping the negative boundary term can only raise the quotient
    for p in (p3, p7):
        for mu in (0.0, 2.0):
            lr = eigen_k(band_spec(p, mu, "robin"), 1).lam
            ld = eigen_k(band_spec(p, mu, "dirichlet"), 1).lam
            assert lr < ld


def test_eigenfunction_normalization_and_rayleigh(p7):
    spec = band_spec(p7, 0.0, "robin")
    pair = eigen_k(spec, 3)
    w = np.sin(pair.grid) ** (p7.dim - 2)
    from scipy.integrate import simpson
    assert abs(simpson(pair.fn ** 2 * w, x=pair.grid) - 1.0) < 1e-10
    assert abs(rayleigh(spec, pair.fn, pair.fn_prime) - pair.lam) < 1e-7
    # FD fallback for the derivative stays close
    assert abs(rayleigh(spec, pair.fn) - pair.lam) < 1e-6


def test_rayleigh_is_variational_upper_bound(p7):
    spec = band_spec(p7, 0.0, "robin")
    lam1 = eigen_k(spec, 1).lam
    rng = np.random.default_rng(7)
    th = eigen_k(spec, 1).grid
    for _ in range(5):
        trial = np.cos(th - np.pi / 2) + 0.3 * rng.standard_normal() * \
            np.cos(3 * (th - np.pi / 2))
        assert rayleigh(spec, trial) >= lam1 - 1e-9


def test_rayleigh_rejects_null_trial(p7):
    spec = band_spec(p7, 0.0, "robin")
    n = eigen_k(spec, 1).grid.size
    with pytest.raises(ZeroDenominator):
        rayleigh(spec, np.zeros(n))
    with pytest.raises(ValueError):
        rayleigh(spec, np.ones(17))


def test_spec_validation():
    rows = [
        ("half_width", -0.1, "half-width"),
        ("half_width", 0.0, "half-width"),
        ("half_width", np.pi / 2, "half-width"),
        ("half_width", 2.0, "half-width"),
        ("half_width", float("nan"), "half-width"),
        # dim = 1 used to answer lambda_1 = 8.107
        ("dim", 1, "dimension"),
        ("dim", 2, "dimension"),
        ("dim", 7.0, "dimension"),
        # grid_n = 0 used to raise a bare IndexError, 4.5 a TypeError
        ("grid_n", 0, "grid_n"),
        ("grid_n", 63, "grid_n"),
        ("grid_n", 4.5, "grid_n"),
        ("grid_n", "4096", "grid_n"),
        ("grid_n", GRID_N_MAX + 1, "grid_n"),
        ("mu", -1.0, "mu"),
        # a non-finite mu used to reach LAPACK ("Eigenvalues did not converge")
        ("mu", float("nan"), "mu"),
        ("mu", float("inf"), "mu"),
        ("bc", "neumann", "bc"),
    ]
    for field, value, message in rows:
        fields = dict(dim=7, half_width=0.5, mu=0.0, bc="dirichlet", grid_n=4096)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            SLSpec(**fields)
    with pytest.raises(ValueError):
        eigen_k(SLSpec(dim=7, half_width=np.pi / 2 - 1.0, mu=0.0, bc="dirichlet"), 0)


def test_nodes_skip_exact_zero_samples():
    assert sl._nodes(np.array([1.0, 0.0, -1.0])) == 1
    assert sl._nodes(np.array([1.0, 0.0, 1.0])) == 0
    # an odd eigenfunction at a lambda within 2e-13 of the 6th eigenvalue,
    # with its centre sample (zero by symmetry) set to exactly 0.0: 5 nodes, not 4
    spec = SLSpec(10, half_width=0.4410669586998437, mu=18.0, bc="robin")
    [(g, _)] = sl._assemble_fn(spec, sl._disc(spec), [324.60657338767527], ["odd"])
    g[g.size // 2] = 0.0
    assert np.count_nonzero(g == 0.0) == 1
    assert sl._nodes(g) == 5
    assert eigen_k(spec, 6).nodes == 5


@pytest.mark.parametrize("mu", [0.0, 5.0, 12.0])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_count_below_matches_fd_oracle(p3, p7, mu, bc):
    # below each probe, under the oracle's first eigenvalue and between its
    # next ones, lie as many ladder eigenvalues as oracle ones
    for p in (p3, p7):
        spec = band_spec(p, mu, bc)
        fd = eigen_fd_crosscheck(spec, 7)
        lams = np.array(eigenvalues(spec, range(1, 8)))
        probes = np.concatenate([[fd[0] - 1.0], 0.5 * (fd[:-1] + fd[1:])])
        for lam in probes:
            assert np.count_nonzero(lams < lam) == np.count_nonzero(fd < lam), (p.dim, lam)


def _shot_eigenvalues(spec, ks):
    """Eigenvalues ks of ``spec`` shot: scipy's brentq on the midpoint defect
    g'(pi/2) (k odd) or g(pi/2) (k even) of the left half-band end state of
    the RK4 kernel, inside the Ritz value +- 1e-7 max(1, |value|)."""
    from scipy.optimize import brentq
    left = sl._disc(spec)["left"]

    def defect(lam, k):
        g, gp = sl.propagate_band(spec.dim - 2, spec.mu, lam, left, *sl._y_left(spec))
        return (gp[-1] if k % 2 else g[-1]) / math.hypot(g[-1], gp[-1])

    shots = []
    for k, lam in zip(ks, eigenvalues(spec, ks)):
        half = 1e-7 * max(1.0, abs(lam))
        shots.append(brentq(defect, lam - half, lam + half, args=(k,), xtol=sl._LAM_TOL))
    return shots


@pytest.fixture(scope="module")
def seed_profiles(p3, p7):
    from conespec.profile import solve_profile
    return {3: p3, 7: p7, 12: solve_profile(12), 24: solve_profile(24)}


@pytest.mark.parametrize("mu", [0.0, 84.0, 500.0])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_ritz_seeds_land_on_the_eigenvalues(seed_profiles, mu, bc):
    # the shot's eigenvalue lies above the exact one by its RK4 error (<= 2e-10
    # here); the Ritz values of the ladder, on the lowest rung that vouches for
    # each, lie within that of it
    for d, p in seed_profiles.items():
        spec = band_spec(p, mu, bc)
        lams = np.array(eigenvalues(spec, range(1, 17)))
        shot = np.array(_shot_eigenvalues(spec, range(1, 17)))
        rel = (lams - shot) / np.maximum(1.0, np.abs(shot))
        assert np.abs(rel).max() <= 1e-9, (d, rel)


def test_structural_eigenvalues_in_closed_form():
    # the translations give lambda_(0,2) = 0 and lambda_(1,1) = 0, the rotations
    # lambda_(1,2) = d - 1 (mu = d - 2 is the ell = 1 sector); the RK4 shots read
    # up to 6.0e-12, 2.8e-13 and 4.4e-14 (relative) here
    from conespec.profile import solve_profile
    for d in range(3, 41):
        p = solve_profile(d)
        lam02 = eigenvalue(band_spec(p, 0.0, "robin"), 2)
        lam11, lam12 = eigenvalues(band_spec(p, d - 2.0, "robin"), [1, 2])
        assert abs(lam02) <= 1e-12, (d, lam02)
        assert abs(lam11) <= 1e-12, (d, lam11)
        assert abs(lam12 - (d - 1)) <= 2e-14 * (d - 1), (d, lam12)


def test_eigenvalues_where_every_shot_overflows(p3):
    # at d = 3, mu = 3e6 the band shots overflow, so these come from the Ritz
    # solve alone; the oracle runs on a grid of 8192, where its own error is
    # <= 2e-13 (on the default 4096 it reads 3e-12 at k = 3)
    spec = band_spec(p3, 3e6, "robin")
    got = np.array(eigenvalues(spec, [1, 2, 3]))
    fd = eigen_fd_crosscheck(dataclasses.replace(spec, grid_n=8192), 3)
    assert np.abs(got / fd - 1.0).max() <= 1e-12, (got, fd)


def _guarded(spec, top):
    """``spec`` on the coarsest power-of-two grid, no coarser than its own, whose
    step h keeps h^2 top within linkspec's guard on the shots."""
    n = 2.0 * spec.half_width * math.sqrt(top / _H2_LAMBDA_MAX)
    return dataclasses.replace(spec, grid_n=max(spec.grid_n, 1 << math.ceil(math.log2(n))))


def _sturm_counts(spec, lams):
    """Band eigenvalues strictly below each of ``lams``, by the Pruefer phase
    rule on full left half-band trajectories of the RK4 kernel, one lane per
    lam: the phase at pi/2 is nodes*pi + frac with frac in (0, pi], and the
    half-band eigenfunctions reach nodes*pi + pi/2 (even: g'(pi/2) = 0) and
    nodes*pi + pi (odd: g(pi/2) = 0), so each parity counts nodes + [frac
    past its target]."""
    g, gp = sl.propagate_band(spec.dim - 2, spec.mu, np.asarray(lams, dtype=float),
                              sl._disc(spec)["left"], *sl._y_left(spec))
    counts = []
    for row, prow in zip(g, gp):
        frac = math.atan2(row[-1], prow[-1])
        if frac <= 0.0:
            frac += math.pi
        counts.append(sum(sl._nodes(row) + (frac > target) for target in (math.pi / 2, math.pi)))
    return counts


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
@pytest.mark.parametrize("d", [3, 7, 12, 24, 40])
def test_ritz_count_matches_shot_count(d, bc):
    # the ladder's indexing against an independent count: at each value the
    # bottom rung vouches for, +- 1e-6 and +- 2e-8 relative (twice a guarded
    # shot's error), and at the midpoints between values, as many ladder
    # eigenvalues lie below lam as the Sturm count of a shot says.  The shots
    # are taken on a grid that resolves the scan as linkspec's guard demands
    # (at d = 7, mu = 1e6 the default grid's shot undercounts by one just above
    # a value: its h^2 lam is 100 times the guard's)
    p = profile.solve_profile(d)
    for mu in [SphereMode.of(d, ell).mu for ell in range(4)] + [1e4, 1e5, 1e6]:
        spec = band_spec(p, mu, bc)
        vouched = [sl._ritz(spec, parity, 0) for parity in ("even", "odd")]
        values = np.sort(np.concatenate([v[:len(c)] for v, c in vouched]))
        scale = np.maximum(1.0, np.abs(values))
        lams = np.concatenate([values + rel * scale for rel in (-1e-6, 1e-6, -2e-8, 2e-8)]
                              + [0.5 * (values[:-1] + values[1:])])
        ladder = [eigenvalue(spec, 1)]
        while ladder[-1] < lams.max():
            ladder.append(eigenvalue(spec, len(ladder) + 1))
        counts = [int(np.count_nonzero(np.array(ladder) < lam)) for lam in lams]
        assert counts == _sturm_counts(_guarded(spec, lams.max()), lams), mu


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_eigenvalue_past_seeds_at_large_mu(p7, bc):
    # k = 17 is the 9th eigenvalue of its parity, past the 8 Ritz values that
    # once seeded its shot; the Ritz ladder vouches for it, and a shot agrees
    spec = band_spec(p7, 3e6, bc)
    fd = eigen_fd_crosscheck(spec, 17)[-1]
    pair = eigen_k(spec, 17)
    assert abs(pair.lam - fd) <= 1e-8 * fd, (pair.lam, fd)
    assert pair.nodes == 16
    [shot] = _shot_eigenvalues(spec, [17])
    assert abs(shot - fd) <= 1e-8 * fd, (shot, fd)


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_counting_stride_at_large_mu(p7, bc):
    # at mu = 3e6 eigenvalues 16, 17 and 18 lie more than 1e-6 relative apart,
    # and a shot on a grid that resolves them counts 16 below lam_17 (1 - 1e-6)
    # and 17 below lam_17 (1 + 1e-6)
    spec = band_spec(p7, 3e6, bc)
    lam16, lam17, lam18 = eigenvalues(spec, [16, 17, 18])
    lams = lam17 * (1 + np.array([-1e-6, 1e-6]))
    assert lam16 < lams[0] and lams[1] < lam18, (lam16, lam17, lam18)
    assert _sturm_counts(_guarded(spec, lams[1]), lams) == [16, 17]


@pytest.mark.parametrize("mu", [0.0, 84.0])
def test_eigenvalues_past_seeds_are_counted_in_order(p7, mu):
    # eigenvalues 17..24 come in order, each more than 1e-6 relative from its
    # neighbours, and agree with the oracle
    spec = band_spec(p7, mu, "robin")
    fd = eigen_fd_crosscheck(spec, 24)
    lams = eigenvalues(spec, range(16, 26))
    for k, below, lam, above in zip(range(17, 25), lams, lams[1:], lams[2:]):
        delta = 1e-6 * max(1.0, abs(lam))
        assert below < lam - delta and lam + delta < above, (k, lam)
        assert abs(lam - fd[k - 1]) <= 1e-8 * abs(fd[k - 1]), (k, lam, fd[k - 1])


@pytest.mark.parametrize("d, mu, bc", [(7, 0.0, "robin"), (3, 1e4, "dirichlet"),
                                       (12, 84.0, "robin")])
def test_ladder_eigenvalues_match_fd_oracle(d, mu, bc, monkeypatch):
    # k = 17..80 reach past what the bottom rung vouches for and come from the
    # rungs above, with no kernel call, within 9.4e-9 of the oracle; RK4 shots
    # read up to 2.3e-7 from it, past 2e-8 from k = 44 on
    spec = band_spec(profile.solve_profile(d), mu, bc)
    sl._ritz.cache_clear()
    calls = _kernel_calls(monkeypatch)
    lams = np.array(eigenvalues(spec, range(17, 81)))
    assert not calls, len(calls)
    fd = eigen_fd_crosscheck(spec, 80)[16:]
    assert np.max(np.abs(lams / fd - 1.0)) <= 2e-8, np.max(np.abs(lams / fd - 1.0))


@pytest.mark.parametrize("k", [199, 200])
def test_ladder_rungs_agree_and_nest(p7, k):
    # the rung above the one that vouches for k = 200 (d = 7, mu = 0) agrees
    # with it to 1.6e-13 relative, and its basis holds the lower one's, so by
    # min-max none of its values lies above the lower rung's by more than rounding
    spec = band_spec(p7, 0.0, "robin")
    parity, i = sl._parity(k), (k - 1) // 2
    rung = next(r for r in range(8) if i < len(sl._ritz(spec, parity, r)[1]))
    (lo, vectors), (hi, _) = sl._ritz(spec, parity, rung), sl._ritz(spec, parity, rung + 1)
    assert eigenvalue(spec, k) == lo[i] and rung > 0
    assert abs(hi[i] - lo[i]) <= 1e-12 * abs(lo[i]), (rung, hi[i], lo[i])
    n = len(vectors)
    assert np.all(hi[:n] - lo[:n] <= 1e-12 * np.maximum(1.0, np.abs(lo[:n]))), rung


@pytest.mark.parametrize("k", [1, 4])
def test_eigenfunction_normalization_at_large_mu(p7, k):
    # g grows like exp(sqrt(mu)) into the band, so an unscaled g*g overflows
    # and would normalise the eigenfunction to all zeros
    from scipy.integrate import simpson
    spec = band_spec(p7, 1e7, "robin")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair = eigen_k(spec, k)
    assert not caught, [str(w.message) for w in caught]
    assert pair.nodes == k - 1
    w = np.sin(pair.grid) ** (p7.dim - 2)
    assert abs(simpson(pair.fn ** 2 * w, x=pair.grid) - 1.0) <= 1e-12
    fd = eigen_fd_crosscheck(spec, k)[-1]
    assert abs(pair.lam - fd) <= 1e-10 * fd, (pair.lam, fd)


def _one_at_a_time(spec, ks):
    values = []
    for k in ks:
        sl._ritz.cache_clear()
        values.append(eigenvalue(spec, k))
    sl._ritz.cache_clear()
    return values


@pytest.mark.parametrize("mu", [0.0, 12.0])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_lockstep_eigenvalues_equal_one_at_a_time(p3, p7, mu, bc):
    # each eigenvalue is the value of the lowest rung that vouches for it,
    # whatever else is asked in the same call; past the bottom rung (k > 12
    # or so) the rungs above answer
    for p in (p3, p7):
        spec = band_spec(p, mu, bc)
        want = _one_at_a_time(spec, range(1, 41))
        try:
            for top in (8, 40):
                sl._ritz.cache_clear()
                assert eigenvalues(spec, range(1, top + 1)) == want[:top], (p.dim, mu, bc, top)
            # the Ritz cache answers in any order, with repeats
            assert eigenvalues(spec, [3, 1, 3]) == [want[2], want[0], want[2]]
        finally:
            sl._ritz.cache_clear()


def test_lockstep_work_count(p7, monkeypatch):
    # the 40 eigenvalues of one call come from the Ritz ladder (rungs 0 to 2
    # here) with no kernel call; shooting them took 67 trajectory lanes in 9 calls
    spec = band_spec(p7, 0.0, "robin")
    sl._ritz.cache_clear()
    calls = _kernel_calls(monkeypatch)
    eigenvalues(spec, range(1, 41))
    assert not calls, len(calls)


def test_eigen_pairs_equal_eigen_k(p7):
    # eight eigenpairs at once are bit for bit the one-k path: each series is
    # summed and normalized on its own coefficients, and the rows of the shots'
    # one batched Simpson normalization equal its 1-D calls
    for bc in ("robin", "dirichlet"):
        for mu in (0.0, 12.0):
            spec = band_spec(p7, mu, bc)
            for k, pair in enumerate(eigen_pairs(spec, range(1, 9)), start=1):
                one = eigen_k(spec, k)
                assert pair.k == one.k == k and pair.lam == one.lam and pair.nodes == one.nodes
                assert np.array_equal(pair.fn, one.fn)
                assert np.array_equal(pair.fn_prime, one.fn_prime)
                assert np.array_equal(pair.grid, one.grid) and pair.bc_residual == one.bc_residual


def test_harmonic_pair_equals_its_scalar_shots(p7):
    from conespec.boundary import _harmonic_pair
    from conespec.kernels import propagate_band
    right = p7.grid[(p7.grid.size - 1) // 2:]
    for mu in (0.0, 12.0, 84.0):
        (qe, qpe), (qo, qpo) = _harmonic_pair(p7, mu)
        for (q, qp), start in (((qe, qpe), (1.0, 0.0)), ((qo, qpo), (0.0, 1.0))):
            g, gp = propagate_band(p7.dim - 2, mu, 0.0, right, *start)
            half = right.size - 1
            assert np.array_equal(q[half:], g) and np.array_equal(qp[half:], gp)


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_eigenfunctions_mirror_exactly(p7, bc):
    # eigenfunction k is even about the centre sample for odd k and odd for
    # even k, sample for sample, and its derivative has the opposite parity
    for k, pair in enumerate(eigen_pairs(band_spec(p7, 12.0, bc), range(1, 7)), start=1):
        c = pair.fn.size // 2
        sign = 1.0 if k % 2 else -1.0
        assert np.array_equal(pair.fn[:c], sign * pair.fn[:c:-1]), k
        assert np.array_equal(pair.fn_prime[:c], -sign * pair.fn_prime[:c:-1]), k


def _kernel_calls(monkeypatch):
    """Calls of the band kernel from sl, counted into the returned list."""
    calls = []

    def counted(*args, _fn=sl.propagate_band):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(sl, "propagate_band", counted)
    return calls


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
@pytest.mark.parametrize("d", [3, 7, 12, 24])
def test_series_eigenfunctions_match_fine_shots(seed_profiles, d, bc, monkeypatch):
    # each eigenfunction is its Ritz vector's Legendre series, with no shot,
    # on the lowest rung that vouches for its eigenvalue (rung 1 for k = 7, 8
    # at d = 3, mu = 500, which the bottom rung refuses).  Against the shot at
    # the same eigenvalue on a grid 4 times finer (every 4th sample) the series
    # read <= 6.1e-12 of max|fn| and max|fn'| (k <= 8).  Robin data hold to
    # 5.3e-12 of max|fn'|, and the Dirichlet ends are exactly 0.0.
    for mu in (0.0, 5.0, 84.0, 500.0):
        spec = band_spec(seed_profiles[d], mu, bc)
        sl._ritz.cache_clear()
        with monkeypatch.context() as m:
            calls = _kernel_calls(m)
            eigen_pairs(spec, range(1, 9))
        assert not calls, (mu, len(calls))
        with monkeypatch.context() as m:
            m.setattr(sl, "_series_fn", lambda spec, k: None)
            shots = eigen_pairs(dataclasses.replace(spec, grid_n=16384), range(1, 9))
        for a, b in zip(eigen_pairs(spec, range(1, 9)), shots):
            assert a.nodes == b.nodes == a.k - 1
            assert a.lam == b.lam  # the eigenvalue does not depend on the grid
            for u, v in ((a.fn, b.fn[::4]), (a.fn_prime, b.fn_prime[::4])):
                assert np.max(np.abs(u - v)) <= 5e-11 * np.max(np.abs(u)), (mu, a.k)
            if bc == "robin":
                assert max(a.bc_residual) <= 1e-9 * np.max(np.abs(a.fn_prime)), (mu, a.k)
            else:
                assert a.fn[0] == 0.0 and a.fn[-1] == 0.0, (mu, a.k)


def _gauss_mass(spec, parity, c):
    """c'Mc for Ritz coefficients c of one parity, M the band's L^2(sin^{d-2})
    inner product over 2 theta0, by numpy's own Gauss-Legendre rule."""
    n = sl._ritz_size(spec)
    x, wt = np.polynomial.legendre.leggauss(2 * n + 40)
    coef = np.zeros(n)
    degrees = np.arange(parity == "odd", n, 2)
    coef[degrees] = c * np.sqrt(degrees + 0.5)
    g = np.polynomial.legendre.legval(x, coef)
    if spec.bc == "dirichlet":
        g = (1.0 - x * x) * g
    return 0.5 * float(np.sum(wt * np.cos(spec.half_width * x) ** (spec.dim - 2) * g * g))


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
@pytest.mark.parametrize("d", [3, 7, 12, 24])
def test_series_eigenfunctions_are_normalized_on_their_coefficients(seed_profiles, d, bc,
                                                                    monkeypatch):
    # Ritz vectors are mass-orthonormal, c'Mc = 1, so a series is normalized on
    # its coefficients and eigen_pairs integrates nothing on the grid unless it
    # shoots: then one batched Simpson call normalizes the shots
    from scipy.integrate import simpson
    for mu in (0.0, 84.0, 500.0):
        spec = band_spec(seed_profiles[d], mu, bc)
        for parity in ("even", "odd"):
            for c in sl._ritz(spec, parity, 0)[1]:
                assert abs(_gauss_mass(spec, parity, c) - 1.0) <= 1e-13, (mu, parity)
        th = sl._disc(spec)["theta"]
        w = np.sin(th) ** (d - 2)
        series = [k for k in range(1, 9) if sl._series_fn(spec, k) is not None]
        assert series[:6] == list(range(1, 7)), (mu, series)
        for k in series:
            g, gp = sl._series_fn(spec, k)
            assert abs(simpson(g * g * w, x=th) - 1.0) <= 1e-11, (mu, k)
            assert gp[0] > 0, (mu, k)
        for ritz, want in ((True, 0), (False, 1)):
            with monkeypatch.context() as m:
                if not ritz:  # as shots_only: every eigenfunction shot
                    m.setattr(sl, "_series_fn", lambda spec, k: None)
                    sl._ritz.cache_clear()
                calls = []

                def counted(*args, _simpson=sl.simpson, **kwargs):
                    calls.append(1)
                    return _simpson(*args, **kwargs)

                m.setattr(sl, "simpson", counted)
                eigen_pairs(spec, series if ritz else range(1, 9))
            sl._ritz.cache_clear()
            assert len(calls) == want, (mu, ritz, len(calls))


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_series_falls_back_to_a_shot(p7, bc, monkeypatch):
    # at mu = 1e7 (N = 256) the Ritz solve vouches for the eigenvalues, but the
    # series' tails sit below its roundoff and change sign, so the node check
    # refuses it and the eigenfunction is shot; at mu = 84 nothing is shot,
    # unless the basis (24 rows of 2,049 samples) would pass _BASIS_SIZE
    for mu, size, shot in ((84.0, sl._BASIS_SIZE, False), (1e7, sl._BASIS_SIZE, True),
                           (84.0, 24 * 2049 - 1, True)):
        spec = band_spec(p7, mu, bc)
        ks = range(1, 5)
        assert all(sl._ritz_eigenvalue(spec, k) is not None for k in ks)
        eigenvalues(spec, ks)
        with monkeypatch.context() as m:
            m.setattr(sl, "_BASIS_SIZE", size)
            calls = _kernel_calls(m)
            pairs = eigen_pairs(spec, ks)
        assert bool(calls) == shot, (mu, size, len(calls))
        assert [pair.nodes for pair in pairs] == [k - 1 for k in ks]


def test_band_grid_is_shared_and_read_only(p7):
    # every mu and bc on one band holds the same grid, so no caller may write into it
    spec = band_spec(p7, 12.0, "robin")
    pair = eigen_k(spec, 1)
    assert eigen_k(band_spec(p7, 0.0, "dirichlet"), 2).grid is pair.grid
    for a in (pair.grid, sl._disc(spec)["left"]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("grid_n", [4096, 1001])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_band_problems_live_on_the_profile_grid(bc, grid_n):
    # every band problem of a cone is solved on the profile's own grid array;
    # band_points rounds 1001 up to 1005 points and band_spec passes grid_n 1004,
    # so the grid memo is keyed by the point count
    profile._solved_profile.cache_clear()  # the profile's grid is then the newest memo entry
    p = profile.solve_profile(7, SolverConfig(grid_n=grid_n))
    spec = band_spec(p, 12.0, bc)
    for pair in eigen_pairs(spec, range(1, 4)):
        assert pair.grid is p.grid
    assert np.shares_memory(sl._disc(spec)["left"], p.grid)


def test_only_shot_eigenfunctions_count_full_band_nodes(p7, monkeypatch):
    # a series shows its (k - 1) // 2 nodes on the half band and the mirror adds
    # the rest, so only a shot eigenfunction is counted on the full band
    spec = band_spec(p7, 0.0, "robin")
    ks = range(1, 5)
    assert all(sl._series_fn(spec, k) is not None for k in ks)
    sizes = []
    nodes = sl._nodes
    monkeypatch.setattr(sl, "_nodes", lambda g: sizes.append(g.size) or nodes(g))
    pairs = eigen_pairs(spec, ks)
    assert [pair.nodes for pair in pairs] == [nodes(pair.fn) for pair in pairs] == [0, 1, 2, 3]
    assert p7.grid.size not in sizes
    sizes.clear()
    monkeypatch.setattr(sl, "_series_fn", lambda s, k: None)
    assert [pair.nodes for pair in eigen_pairs(spec, ks)] == [0, 1, 2, 3]
    assert sizes.count(p7.grid.size) == len(ks)


def test_shot_eigenfunction_with_wrong_nodes_raises(p7, monkeypatch, shots_only):
    # eigenfunction 3 shot at the 5th eigenvalue has 4 nodes, not 2
    spec = band_spec(p7, 0.0, "robin")
    lam5 = eigenvalue(spec, 5)
    monkeypatch.setattr(sl, "eigenvalues", lambda spec, ks: [lam5])
    with pytest.raises(BracketFail, match="k=3 has 4 nodes"):
        eigen_k(spec, 3)


def test_vouched_eigenvalues_build_no_band_grid(p7, monkeypatch):
    # every k that the Ritz solve vouches for is answered without a shot, so
    # no band grid is built for a half-width no one has asked for before
    def no_grid(spec):
        raise AssertionError(f"band grid built at half-width {spec.half_width!r}")

    monkeypatch.setattr(sl, "_disc", no_grid)
    width = 0.9137 * p7.theta0
    spec = SLSpec(dim=7, half_width=width, mu=0.0, bc="dirichlet", grid_n=p7.grid.size - 1)
    assert sl._ritz_eigenvalue(spec, 1) is not None
    assert eigenvalue(spec, 1) > 0.0
    from conespec.weiss import F_functional
    assert math.isfinite(F_functional(1.0137 * p7.theta0, p7, 7))


def _cos_power_integral(n, w):
    """int_{-w}^{w} cos^n x dx by I_n = 2 sin w cos^{n-1} w / n + (n-1)/n I_{n-2}."""
    ints = [2.0 * w, 2.0 * math.sin(w)]
    for j in range(2, n + 1):
        ints.append(2.0 * math.sin(w) * math.cos(w) ** (j - 1) / j + (j - 1) / j * ints[j - 2])
    return ints[n]


def test_band_measure_matches_the_cosine_power_reduction():
    for d in range(3, 101):
        for w in np.linspace(0.05, math.pi / 2 - 1e-4, 40):
            spec = SLSpec(dim=d, half_width=float(w), mu=0.0, bc="dirichlet")
            want = _cos_power_integral(d - 2, float(w))
            assert abs(sl.band_measure(spec) - want) <= 1e-14 * want, (d, w)


@pytest.mark.parametrize("d", [3, 7, 12, 24])
def test_ritz_on_a_warm_band_equals_a_cold_solve(d):
    # the mu-free matrices of a band are built once and shared by its modes:
    # a solve whose band was warmed at another mu (a memo hit) equals a cold
    # solve bit for bit, values and vectors, past N = 48 too
    theta0 = profile.solve_profile(d).theta0
    for mu in (0.0, d - 2.0, 2.0 * d - 2.0, 500.0, 1e4, 1e6):
        for bc in ("robin", "dirichlet"):
            spec = SLSpec(dim=d, half_width=theta0, mu=mu, bc=bc)
            other = dataclasses.replace(spec, mu=mu + 1.0)
            assert sl._ritz_size(other) == sl._ritz_size(spec), (d, mu)
            for parity in ("even", "odd"):
                sl._ritz.cache_clear()
                sl._ritz_forms.cache_clear()
                cold = sl._ritz(spec, parity, 0)
                sl._ritz.cache_clear()
                sl._ritz_forms.cache_clear()
                sl._ritz(other, parity, 0)
                warm = sl._ritz(spec, parity, 0)
                assert sl._ritz_forms.cache_info().hits == 1, (d, mu, bc, parity)
                for got, want in zip(warm, cold):
                    assert got.tobytes() == want.tobytes(), (d, mu, bc, parity)
    assert sl._ritz_size(SLSpec(dim=d, half_width=theta0, mu=1e6, bc="robin")) > 48
    sl._ritz.cache_clear()
    sl._ritz_forms.cache_clear()


def test_verify_builds_the_mu_free_matrices_twice_per_dimension():
    # every mode verify solves at one d lies on the same band at N = 48, so
    # the band's matrices are built once per parity
    from conespec.linkspec import verify_strong_integrability
    sl._ritz.cache_clear()
    sl._ritz_forms.cache_clear()
    for d in range(3, 11):
        before = sl._ritz_forms.cache_info().misses
        verify_strong_integrability(profile.solve_profile(d))
        assert sl._ritz_forms.cache_info().misses - before == 2, d
