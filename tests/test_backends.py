"""Kernel parity: the memoized (mu, lambda)-quadratic step matrices and the
up/down-sweep tree implement the plain RK4 loop's arithmetic, so every
downstream tolerance rests on that loop."""

import ctypes
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import conespec
from conespec import kernels
from conespec.errors import NonFiniteResult
from conespec.kernels import propagate_band


def _rk4_band(dm2, mu, lam, thetas, g0, gp0):
    """Fixed-step RK4 along ``thetas`` (monotone, either direction).

    The plain loop the step tree reassociates.  Returns (g, gp) sampled at
    every grid point, including the start.
    """
    n = thetas.shape[0]
    g = np.empty(n)
    gp = np.empty(n)
    y0 = g0
    y1 = gp0
    g[0] = y0
    gp[0] = y1
    for i in range(n - 1):
        t = thetas[i]
        h = thetas[i + 1] - t
        # k1
        a1 = y1
        b1 = -dm2 / math.tan(t) * y1 - (lam - mu / math.sin(t) ** 2) * y0
        # k2, k3 share the midpoint coefficients
        tm = t + 0.5 * h
        cot_m = 1.0 / math.tan(tm)
        q_m = lam - mu / math.sin(tm) ** 2
        u0 = y0 + 0.5 * h * a1
        u1 = y1 + 0.5 * h * b1
        a2 = u1
        b2 = -dm2 * cot_m * u1 - q_m * u0
        u0 = y0 + 0.5 * h * a2
        u1 = y1 + 0.5 * h * b2
        a3 = u1
        b3 = -dm2 * cot_m * u1 - q_m * u0
        # k4
        te = t + h
        u0 = y0 + h * a3
        u1 = y1 + h * b3
        a4 = u1
        b4 = -dm2 / math.tan(te) * u1 - (lam - mu / math.sin(te) ** 2) * u0
        y0 = y0 + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y1 = y1 + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g[i + 1] = y0
        gp[i + 1] = y1
    return g, gp


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


@pytest.mark.parametrize("kernel", [propagate_band])
def test_overflow_is_nonfinite_result_without_warning(kernel):
    # At mu = 1e12 each RK4 step multiplies the state by ~1e13, so the shot
    # overflows long before the end of a 257-point band.
    thetas = np.linspace(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 257)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteResult, match="overflow"):
            kernel(5.0, 1e12, 6.0, thetas, 1.0, 0.0)
    assert not caught, [str(w.message) for w in caught]


def _clear_memos():
    for memo in (kernels._step_poly, kernels._lam_part, kernels._mu_part):
        memo.cache_clear()


@pytest.mark.parametrize("mu", [0.0, 84.0, 5000.0])
def test_step_quadratic_matches_stage_arithmetic(mu):
    # P0 + lam P1 + lam^2 P2 collapsed at each mu from one (dm2, grid) entry
    # against the RK4 stages evaluated directly at (mu, lam); a wrong
    # coefficient is off by far more than 1e-13.  Whichever mu comes first,
    # the lam part and the mu part are each built once.
    thetas = np.linspace(math.pi / 2 - 1.2, math.pi / 2 + 0.4, 2049)
    mus = [mu] + [m for m in (0.0, 84.0, 5000.0) if m != mu]
    _clear_memos()
    for m in mus:
        for lam in (-200.0, 0.0, 7.0, 150.0, 3000.0, 1e4):
            direct = kernels._step_entries(5.0, m, lam, thetas)
            horner = kernels._steps(5.0, m, lam, thetas).reshape(4, -1)
            for entry, (got, want) in enumerate(zip(horner, direct)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (m, lam, entry)
        # every memo level hands out read-only arrays
        assert not any(p.flags.writeable for p in kernels._step_poly(5.0, m, thetas.tobytes()))
    assert kernels._lam_part.cache_info().misses == 1
    assert kernels._mu_part.cache_info().misses == 1
    assert kernels._step_poly.cache_info().misses == 3


def test_mu_zero_grid_builds_no_mu_part():
    thetas = np.linspace(math.pi / 2 - 0.6, math.pi / 2, 2049)
    _clear_memos()
    for lam in (-3.0, 6.0, 40.0):
        propagate_band(5, 0.0, lam, thetas, 1.0, 0.0)
    assert kernels._lam_part.cache_info().misses == 1
    assert kernels._mu_part.cache_info().currsize == 0


@pytest.mark.parametrize("kernel", [propagate_band])
def test_memo_hit_and_miss_agree_exactly(kernel):
    thetas = np.linspace(math.pi / 2 - 0.6, math.pi / 2, 2049)
    _clear_memos()
    miss = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    hit = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    assert kernels._step_poly.cache_info().hits == 1
    kernels._step_poly.cache_clear()  # collapse again from the memoized parts
    parts = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    assert kernels._lam_part.cache_info().hits == kernels._mu_part.cache_info().hits == 1
    _clear_memos()
    again = kernel(5, 84.0, 150.0, thetas, 1.0, -2.0)
    for a, b, c, e in zip(miss, hit, parts, again):
        assert np.array_equal(a, b) and np.array_equal(a, c) and np.array_equal(a, e)


def _lane_grids():
    ascending = np.linspace(math.pi / 2 - 0.6, math.pi / 2, 2049)
    return {"ascending": ascending, "descending": ascending[::-1].copy(),
            "odd steps": np.linspace(math.pi / 2 - 0.6, math.pi / 2 + 0.1, 258),
            "one point": ascending[:1].copy()}


@pytest.mark.parametrize("grid", ["ascending", "descending", "odd steps", "one point"])
@pytest.mark.parametrize("lanes", [1, 2, 8, 9])
def test_lam_lanes_equal_scalar_shots(grid, lanes):
    # lanes only widen the step matrices and the tree, so each lane repeats
    # its scalar shot operation for operation; 9 lanes run as 8 + 1
    thetas = _lane_grids()[grid]
    lams = np.linspace(-40.0, 300.0, lanes)
    for mu in (0.0, 84.0):
        g, gp = propagate_band(5, mu, lams, thetas, 1.0, -2.0)
        assert g.shape == gp.shape == (lanes, thetas.size)
        for i, lam in enumerate(lams):
            want_g, want_gp = propagate_band(5, mu, lam, thetas, 1.0, -2.0)
            assert np.array_equal(g[i], want_g) and np.array_equal(gp[i], want_gp), (mu, i)


@pytest.mark.parametrize("grid", ["ascending", "descending", "odd steps", "one point"])
def test_start_state_lanes_equal_scalar_shots(grid):
    # start-state lanes at one lam share one step tree
    thetas = _lane_grids()[grid]
    g0, gp0 = np.array([1.0, 0.0, 0.7]), np.array([0.0, 1.0, -3.0])
    g, gp = propagate_band(5, 12.0, 6.0, thetas, g0, gp0)
    for i in range(3):
        want_g, want_gp = propagate_band(5, 12.0, 6.0, thetas, g0[i], gp0[i])
        assert np.array_equal(g[i], want_g) and np.array_equal(gp[i], want_gp), i
    # lam lanes and start-state lanes together
    lams = np.array([6.0, 40.0, -3.0])
    g, _ = propagate_band(5, 12.0, lams, thetas, g0, gp0)
    for i in range(3):
        assert np.array_equal(g[i], propagate_band(5, 12.0, lams[i], thetas, g0[i], gp0[i])[0])


@pytest.mark.parametrize("kernel", [propagate_band])
def test_overflow_in_one_lane_is_nonfinite_result_without_warning(kernel):
    # only the large-lam lane overflows; the whole call raises
    thetas = np.linspace(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 257)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteResult, match="overflow"):
            kernel(5.0, 6.0, np.array([6.0, 7.0, -1e12]), thetas, 1.0, 0.0)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("kernel", [propagate_band])
@pytest.mark.parametrize("lam, g0, shapes", [
    (np.array([6.0, 7.0]), np.array([1.0, 0.0, 0.5]), "lam (2,), g0 (3,), gp0 ()"),
    (np.array([[6.0, 7.0]]), 1.0, "lam (1, 2), g0 (), gp0 ()"),
    (np.array([]), 1.0, "lam (0,), g0 (), gp0 ()"),
    (6.0, np.array([]), "lam (), g0 (0,), gp0 ()"),
], ids=["lengths differ", "2-D lam", "empty lam", "empty g0"])
def test_malformed_lanes_are_rejected(kernel, lam, g0, shapes):
    # lanes of different lengths, a 2-D lam and an empty lane array are
    # refused before any step tree is built, naming the shapes
    thetas = np.linspace(math.pi / 2 - 0.5, math.pi / 2, 33)
    with pytest.raises(ValueError, match=re.escape(shapes)):
        kernel(5.0, 6.0, lam, thetas, g0, 0.0)


def test_kernel_bench_runs():
    # the benchmark reaches into kernels' private memos and step builder by
    # name, so a kernel refactor that renames them must break this test
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(root / "benchmarks" / "kernel_bench.py"),
                          "--sizes", "33", "--repeats", "1"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "band propagation, d=7" in res.stdout
    assert "warm lane shots" in res.stdout
    assert any(line.split()[:2] == ["33", "traj"] for line in res.stdout.splitlines())
    # boundary's call: start states (1, 0) and (0, 1) at one lam, as 2 lanes
    assert any(line.split()[:2] == ["33", "states"] for line in res.stdout.splitlines())


_FAULTS_PER_CALL = """
import resource
import numpy as np
import conespec
thetas = np.linspace(np.pi / 2 - 0.55, np.pi / 2, 2049)
lams = 6.0 + np.arange(8.0)
for _ in range(3):
    conespec.propagate_band(5.0, 12.0, lams, thetas, 1.0, 0.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    conespec.propagate_band(5.0, 12.0, lams, thetas, 1.0, 0.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_warm_lane_shots_do_not_page_fault():
    # importing conespec keeps freed temporaries in the heap; with glibc's
    # default thresholds each warm 8-lane 2,049-point trajectory re-faults
    # about 300 pages
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 8


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "oserror"])
def test_keep_freed_heap_without_mallopt_returns(monkeypatch, cdll):
    calls = []

    def fake(name):
        calls.append(name)
        return cdll(name)

    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", fake)
    assert conespec._keep_freed_heap() is None
    assert calls == [None]
