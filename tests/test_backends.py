"""Backend parity: the compiled RK4 loop and the numpy scan implement the
same arithmetic, so every downstream tolerance is backend-independent."""

import math

import numpy as np
import pytest

from conespec.config import SolverConfig
from conespec.kernels import (HAVE_NUMBA, _rk4_band, available_backends,
                              get_backend, propagate_band, propagate_band_end,
                              set_backend)
from conespec.profile import solve_profile

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")


@pytest.fixture
def restore_backend():
    yield
    set_backend(None)


def test_available_and_active(restore_backend):
    backs = available_backends()
    assert "numpy" in backs
    assert get_backend() in backs


def test_set_backend_validation(restore_backend):
    with pytest.raises(ValueError):
        set_backend("fortran")
    set_backend("numpy")
    assert get_backend() == "numpy"
    set_backend(None)
    assert get_backend() in available_backends()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 257])
@pytest.mark.parametrize("descending", [False, True])
def test_numpy_kernel_matches_python_loop(restore_backend, n, descending):
    # The uncompiled RK4 loop is the oracle: the numpy scan and the tree
    # reduction only reassociate its products.
    set_backend("numpy")
    thetas = np.linspace(math.pi / 2 - 1.0, math.pi / 2 + 0.4, n)
    if descending:
        thetas = thetas[::-1].copy()
    for d, mu, lam in [(3, 0.0, 2.0), (7, 0.0, -35.0), (7, 5.0, 6.0),
                       (12, 100.0, 250.0), (24, 484.0, -80.0)]:
        g0, gp0 = 0.8, -1.3
        g_ref, gp_ref = _rk4_band(d - 2.0, mu, lam, thetas, g0, gp0)
        scale = max(np.max(np.abs(g_ref)), np.max(np.abs(gp_ref)))
        g, gp = propagate_band(d - 2, mu, lam, thetas, g0, gp0)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * scale, (d, mu, lam)
        assert np.max(np.abs(gp - gp_ref)) <= 1e-12 * scale, (d, mu, lam)
        g_end, gp_end = propagate_band_end(d - 2, mu, lam, thetas, g0, gp0)
        assert abs(g_end - g_ref[-1]) <= 1e-12 * scale, (d, mu, lam)
        assert abs(gp_end - gp_ref[-1]) <= 1e-12 * scale, (d, mu, lam)


@needs_numba
def test_backend_parity_random_problems(restore_backend):
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(3, 13))
        mu = float(rng.choice([0.0, d - 2.0, rng.uniform(0.0, 30.0)]))
        lam = float(rng.uniform(-10.0, 300.0))
        th0 = float(rng.uniform(0.2, 1.2))
        n = int(rng.integers(65, 2049))
        a, b = math.pi / 2 - th0, math.pi / 2 + th0
        thetas = np.linspace(a, b, n)
        if rng.random() < 0.5:
            thetas = thetas[::-1].copy()  # both sweep directions
        g0, gp0 = float(rng.normal()), float(rng.normal())
        set_backend("numba")
        g_nb, gp_nb = propagate_band(d - 2, mu, lam, thetas, g0, gp0)
        set_backend("numpy")
        g_np, gp_np = propagate_band(d - 2, mu, lam, thetas, g0, gp0)
        scale = max(np.max(np.abs(g_nb)), np.max(np.abs(gp_nb)), 1.0)
        assert np.max(np.abs(g_nb - g_np)) <= 1e-10 * scale
        assert np.max(np.abs(gp_nb - gp_np)) <= 1e-10 * scale


@needs_numba
def test_profile_agrees_across_backends(restore_backend):
    cfg = SolverConfig(grid_n=1024)
    set_backend("numba")
    p_nb = solve_profile(7, cfg)
    set_backend("numpy")
    p_np = solve_profile(7, cfg)
    assert abs(p_nb.theta0 - p_np.theta0) <= 1e-12
    assert np.max(np.abs(p_nb.g - p_np.g)) <= 1e-10
