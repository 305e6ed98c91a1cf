"""Band Sturm-Liouville engine: shooting vs the finite-difference oracle,
oscillation/ordering properties, and frozen d=7 reference eigenvalues."""

import numpy as np
import pytest

from conespec import sl
from conespec.config import DEFAULT_CONFIG
from conespec.errors import ZeroDenominator
from conespec.sl import (SLSpec, band_spec, count_below, eigen_fd_crosscheck, eigen_k,
                         eigenvalue, rayleigh)

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
    with pytest.raises(ValueError):
        SLSpec(dim=7, band=(-0.1, 2.0), mu=0.0, bc="dirichlet")
    with pytest.raises(ValueError):
        eigen_k(SLSpec(dim=7, band=(1.0, np.pi - 1.0), mu=0.0, bc="dirichlet"), 0)


def test_spec_rejects_asymmetric_band():
    # the half-band solver mirrors about pi/2; an off-centre band would be
    # answered wrongly (lambda_1 = 6.880 against the FD value 7.520)
    with pytest.raises(ValueError, match="symmetric"):
        SLSpec(dim=7, band=(1.0, 2.0), mu=0.0, bc="dirichlet")


def test_nodes_skip_exact_zero_samples():
    assert sl._nodes(np.array([1.0, 0.0, -1.0])) == 1
    assert sl._nodes(np.array([1.0, 0.0, 1.0])) == 0
    # an odd eigenfunction at a lambda within 2e-13 of the 6th eigenvalue,
    # with its centre sample (zero by symmetry) set to exactly 0.0: 5 nodes, not 4
    spec = SLSpec(10, band=(1.1297293680950529, 2.0118632854947402), mu=18.0,
                  bc="robin", H=3.7766769293627203)
    g, _ = sl._assemble_fn(spec, sl._disc(spec), 324.60657338767527, "odd")
    g[g.size // 2] = 0.0
    assert np.count_nonzero(g == 0.0) == 1
    assert sl._nodes(g) == 5
    assert eigen_k(spec, 6).nodes == 5


@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_wrong_seeds_fall_back_to_bisection(p7, bc, monkeypatch):
    spec = band_spec(p7, 5.0, bc)
    sl._eigenvalue.cache_clear()
    seeded = [eigenvalue(spec, k) for k in range(1, 6)]
    sl._eigenvalue.cache_clear()
    isolated = []

    def isolate(*args):
        isolated.append(args[1])
        return _isolate(*args)

    _isolate = sl._isolate
    monkeypatch.setattr(sl, "_isolate", isolate)
    # the wrong seed of k is 40(k-1) - 30 for every k, split by parity
    monkeypatch.setattr(sl, "_seeds", lambda s, parity: tuple(
        40.0 * i - 30.0 for i in range(16))[parity == "odd"::2])
    try:
        for k, lam in enumerate(seeded, start=1):
            pair = eigen_k(spec, k)
            assert abs(pair.lam - lam) <= DEFAULT_CONFIG.lam_tol, (k, pair.lam, lam)
            assert pair.nodes == k - 1
    finally:
        sl._eigenvalue.cache_clear()
    assert isolated == [1, 1, 2, 2, 3]  # half-band index of k = 1..5


@pytest.mark.parametrize("mu", [0.0, 5.0, 12.0])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_count_below_matches_fd_oracle(p3, p7, mu, bc):
    for p in (p3, p7):
        spec = band_spec(p, mu, bc)
        fd = eigen_fd_crosscheck(spec, 7)
        probes = np.concatenate([[fd[0] - 1.0], 0.5 * (fd[:-1] + fd[1:])])
        for lam in probes:
            assert count_below(spec, lam) == int(np.count_nonzero(fd < lam)), (p.dim, lam)


@pytest.fixture(scope="module")
def seed_profiles(p3, p7):
    from conespec.profile import solve_profile
    return {3: p3, 7: p7, 12: solve_profile(12), 24: solve_profile(24)}


@pytest.mark.parametrize("mu", [0.0, 84.0, 500.0])
@pytest.mark.parametrize("bc", ["robin", "dirichlet"])
def test_parity_seeds_match_full_dense_solve(seed_profiles, mu, bc):
    # the parity-half seed matrices hold the even- and odd-indexed values of
    # the full persymmetric finite-volume matrix, solved densely here
    for d, p in seed_profiles.items():
        spec = band_spec(p, mu, bc)
        full = []
        for n in (64, 128):
            dd, ee = sl._fv_sym(spec, n)
            full.append(np.linalg.eigvalsh(np.diag(dd) + np.diag(ee, 1) + np.diag(ee, -1)))
        want = (4.0 * full[1][:16] - full[0][:16]) / 3.0
        for parity, start in (("even", 0), ("odd", 1)):
            got = np.array(sl._seeds(spec, parity))
            assert got.size == 8, (d, parity)
            rel = np.abs(got - want[start::2]) / np.maximum(1.0, np.abs(want[start::2]))
            assert rel.max() <= 1e-10, (d, parity, rel.max())


def test_count_below_shoots_once(p7, monkeypatch):
    # both parities are read off one left half-band trajectory
    spec = band_spec(p7, 5.0, "robin")
    calls = []

    def counted(*args, _shoot=sl.propagate_band):
        calls.append(args)
        return _shoot(*args)

    monkeypatch.setattr(sl, "propagate_band", counted)
    monkeypatch.setattr(sl, "propagate_band_end", None)  # must not be called
    assert count_below(spec, 20.0) == 2  # 0 and 6 (FROZEN_D7), not 31.22
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_seeded_bracket_ends_are_not_reshot(p7, monkeypatch, k):
    # the two validating trajectory shots give Brent its endpoint defects
    spec = band_spec(p7, 12.0, "dirichlet")
    parity, idx = ("even" if k % 2 else "odd"), (k + 1) // 2
    seed = sl._seeds(spec, parity)[idx - 1]
    half = sl._SEED_REL * max(1.0, abs(seed))
    lo, hi = seed - half, seed + half
    traj, ends = [], []

    def shot(fn, log):
        def counted(dm2, mu, lam, *rest):
            log.append(lam)
            return fn(dm2, mu, lam, *rest)
        return counted

    monkeypatch.setattr(sl, "propagate_band", shot(sl.propagate_band, traj))
    monkeypatch.setattr(sl, "propagate_band_end", shot(sl.propagate_band_end, ends))
    sl._eigenvalue.cache_clear()
    try:
        lam = eigenvalue(spec, k)
    finally:
        sl._eigenvalue.cache_clear()
    assert traj == [lo, hi]  # the seeded bracket validated, no fallback
    assert ends and lo not in ends and hi not in ends
    assert lo < lam < hi
