"""In-package Simpson and Brent: bit-for-bit against SciPy (the oracle
library), their rejections, and scipy kept off the solver's import path."""

import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from conespec import _quad, sl
from conespec.config import DEFAULT_CONFIG
from conespec.errors import NonConvergent, NonFiniteResult
from conespec.profile import solve_profile
from conespec.radial import radial_grid
from conespec.weiss import halfplane_field


@pytest.fixture(scope="module")
def profiles(p3, p7):
    return {3: p3, 7: p7, 10: solve_profile(10), 24: solve_profile(24)}


def _integrands(p):
    th = p.grid
    w = np.sin(th) ** (p.dim - 2)
    pair = sl.eigen_k(sl.band_spec(p, 5.0, "robin"), 2)
    return [(th, w), (th, p.g ** 2 * w), (th, p.g_prime ** 2 * w),
            (th, p.g ** 2 * w / np.sin(th) ** 2), (th, pair.fn * pair.fn * w),
            (th, pair.fn * p.g * w)]


def test_simpson_matches_scipy_bit_for_bit(profiles):
    cases = [c for d in (3, 7) for c in _integrands(profiles[d])]
    hp = halfplane_field(7)
    cases.append((hp.theta, np.cos(hp.theta) ** 2 * np.sin(hp.theta) ** 5))
    r = radial_grid(DEFAULT_CONFIG)[:129]            # geometric, irregular spacing
    cases += [(r, r ** -1.7), (r, np.sin(np.log(r)) * r ** 2), (r[:3], r[:3] ** 3)]
    assert len(cases) == 16
    for x, y in cases:
        assert _quad.simpson(y, x=x) == scipy.integrate.simpson(y, x=x)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 4096])
def test_simpson_rejects_even_and_short_counts(n):
    x = np.linspace(0.0, 1.0, n)
    with pytest.raises(ValueError, match="odd sample count"):
        _quad.simpson(np.ones(n), x=x)


def _traced(fn):
    xs = []

    def f(x):
        xs.append(x)
        return fn(x)
    return f, xs


def test_brentq_matches_scipy_on_band_defects(profiles):
    solved = 0
    for d, p in profiles.items():
        for mu in (0.0, 5.0, 84.0):
            for bc in ("robin", "dirichlet"):
                spec = sl.band_spec(p, mu, bc)
                disc = sl._disc(spec)
                for k in (1, 2, 3, 5):
                    parity = "even" if k % 2 == 1 else "odd"
                    idx = (k + 1) // 2
                    lo, hi = sl._bracket(spec, parity, idx, lambda lam: sl._phase_count(
                        *sl._half_shot(spec, disc, lam), parity))
                    def defect(lam):  # the end-state shot of sl's Brent loop
                        return sl._defect(*sl.propagate_band_end(
                            spec.dim - 2, spec.mu, lam, disc["left"], *sl._y_left(spec)), parity)
                    ours, ours_xs = _traced(defect)
                    ref, ref_xs = _traced(defect)
                    root = _quad.brentq(ours, lo, hi, xtol=sl._LAM_TOL)
                    want = scipy.optimize.brentq(ref, lo, hi, xtol=sl._LAM_TOL,
                                                 rtol=_quad._RTOL)
                    assert root == want and ours_xs == ref_xs, (d, mu, bc, k)
                    assert root == sl.eigenvalue(spec, k)
                    solved += 1
    assert solved == 96


@pytest.mark.parametrize("f, a, b", [
    (math.cos, 1.0, 2.0),
    (lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 2.0),
    (lambda x: x ** 3 - 2.0, 0.0, 3.0),
    (lambda x: x ** 9 - 1e-3, 0.0, 4.0),
    (lambda x: math.atan(1e3 * (x - 1.0 / 3.0)), -5.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -3.0, 8.0),
])
def test_brentq_matches_scipy_on_hard_brackets(f, a, b):
    # steep, flat and skewed roots force bisection and rejected steps
    ours, ours_xs = _traced(f)
    ref, ref_xs = _traced(f)
    root = _quad.brentq(ours, a, b, xtol=1e-14)
    assert root == scipy.optimize.brentq(ref, a, b, xtol=1e-14, rtol=_quad._RTOL)
    assert ours_xs == ref_xs


def test_brentq_rejections(monkeypatch):
    with pytest.raises(ValueError, match="different signs"):
        _quad.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(NonFiniteResult):
        _quad.brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, xtol=1e-12)
    assert _quad.brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    monkeypatch.setattr(_quad, "_MAXITER", 2)
    with pytest.raises(NonConvergent, match="in 2 iterations"):
        _quad.brentq(math.atan, -1.0, 2.0, xtol=1e-15)


def _scipy_modules_after(code):
    script = code + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
        """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_out():
    assert _scipy_modules_after("import conespec.cli\n") == []


def test_solver_runs_leave_scipy_out(tmp_path):
    # scipy is the oracle library only: a lazy import inside the timed
    # solver path would show up here
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0}}))
    code = textwrap.dedent(f"""
        from conespec import F_functional, cone_field, solve_profile, weiss_report
        from conespec.cli import run
        assert run(["verify", "--dim", "7", "--out", {str(tmp_path / "v.json")!r}]) == 0
        assert run(["particular", "--dim", "7", "--beta", "0.7",
                    "--modes", {str(modes)!r}, "--out", {str(tmp_path / "p.json")!r}]) == 0
        p = solve_profile(7)
        weiss_report(cone_field(p), [0.5, 1.0, 2.0])
        F_functional(p.theta0, p, 7)
        """)
    assert _scipy_modules_after(code) == []
