"""Kernel parity: the numpy prefix scan and tree reduction implement the plain
RK4 loop's arithmetic, so every downstream tolerance rests on that loop."""

import math
import warnings

import numpy as np
import pytest

from conespec.errors import NonFiniteResult
from conespec.kernels import _rk4_band, propagate_band, propagate_band_end


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 257])
@pytest.mark.parametrize("descending", [False, True])
def test_numpy_kernel_matches_python_loop(n, descending):
    # The uncompiled RK4 loop is the oracle: the numpy scan and the tree
    # reduction only reassociate its products.
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
