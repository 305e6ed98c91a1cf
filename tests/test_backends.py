"""Kernel parity: the memoized lambda-quadratic step matrices and the
up/down-sweep tree implement the plain RK4 loop's arithmetic, so every
downstream tolerance rests on that loop."""

import math
import warnings

import numpy as np
import pytest

from conespec import kernels
from conespec.errors import NonFiniteResult
from conespec.kernels import _rk4_band, propagate_band, propagate_band_end


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 257, 2049])
@pytest.mark.parametrize("descending", [False, True])
def test_numpy_kernel_matches_python_loop(n, descending):
    # The uncompiled RK4 loop is the oracle: the step tree only reassociates
    # its products.
    thetas = np.linspace(math.pi / 2 - 1.0, math.pi / 2 + 0.4, n)
    if descending:
        thetas = thetas[::-1].copy()
    for d, mu, lam in [(3, 0.0, 2.0), (7, 0.0, -35.0), (7, 5.0, 6.0),
                       (12, 100.0, 250.0), (24, 484.0, -80.0), (7, 500.0, 3000.0)]:
        g0, gp0 = 0.8, -1.3
        g_ref, gp_ref = _rk4_band(d - 2.0, mu, lam, thetas, g0, gp0)
        scale = max(np.max(np.abs(g_ref)), np.max(np.abs(gp_ref)))
        g, gp = propagate_band(d - 2, mu, lam, thetas, g0, gp0)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * scale, (d, mu, lam)
        assert np.max(np.abs(gp - gp_ref)) <= 1e-12 * scale, (d, mu, lam)
        g_end, gp_end = propagate_band_end(d - 2, mu, lam, thetas, g0, gp0)
        assert abs(g_end - g_ref[-1]) <= 1e-12 * scale, (d, mu, lam)
        assert abs(gp_end - gp_ref[-1]) <= 1e-12 * scale, (d, mu, lam)


@pytest.mark.parametrize("kernel", [propagate_band, propagate_band_end])
def test_overflow_is_nonfinite_result_without_warning(kernel):
    # At mu = 1e12 each RK4 step multiplies the state by ~1e13, so the shot
    # overflows long before the end of a 257-point band.
    thetas = np.linspace(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 257)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteResult, match="overflow"):
            kernel(5.0, 1e12, 6.0, thetas, 1.0, 0.0)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("mu", [0.0, 84.0, 5000.0])
def test_step_quadratic_matches_stage_arithmetic(mu):
    # P0 + lam P1 + lam^2 P2 from the memo against the RK4 stages evaluated
    # directly at lam; a wrong P1 or P2 term is off by far more than 1e-13.
    thetas = np.linspace(math.pi / 2 - 1.2, math.pi / 2 + 0.4, 2049)
    for lam in (-200.0, 0.0, 7.0, 150.0, 3000.0, 1e4):
        direct = kernels._step_entries(5.0, mu, lam, thetas)
        horner = kernels._steps(5.0, mu, lam, thetas).reshape(4, -1)
        for entry, (got, want) in enumerate(zip(horner, direct)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (mu, lam, entry)


@pytest.mark.parametrize("kernel", [propagate_band, propagate_band_end])
def test_memo_hit_and_miss_agree_exactly(kernel):
    thetas = np.linspace(math.pi / 2 - 0.6, math.pi / 2, 2049)
    kernels._step_poly.cache_clear()
    miss = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    hit = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    assert kernels._step_poly.cache_info().hits == 1
    kernels._step_poly.cache_clear()
    again = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    for a, b, c in zip(miss, hit, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_trajectory_ends_at_end_state():
    thetas = np.linspace(math.pi / 2 - 0.6, math.pi / 2, 1000)
    g, gp = propagate_band(5, 84.0, 150.0, thetas, 1.0, -2.0)
    assert (g[-1], gp[-1]) == propagate_band_end(5, 84.0, 150.0, thetas, 1.0, -2.0)
