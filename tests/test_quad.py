"""In-package Simpson: bit-for-bit against SciPy (the oracle library), its
rejections, and scipy kept off the solver's import path."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate

from conespec import _quad, sl
from conespec.config import DEFAULT_CONFIG
from conespec.radial import radial_grid
from conespec.weiss import halfplane_field


@pytest.fixture(scope="module")
def profiles(p3, p7):
    return {3: p3, 7: p7}


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


def test_simpson_rows_equal_their_1d_calls(profiles):
    # a 2-D y integrates each row exactly as the 1-D call does, on the band
    # grid and on the geometric radial grid
    p = profiles[7]
    band = np.array([y for _, y in _integrands(p)])
    r = radial_grid(DEFAULT_CONFIG)[:129]
    radial = np.array([r ** -1.7, np.sin(np.log(r)) * r ** 2, np.ones(r.size)])
    for x, ys in ((p.grid, band), (r, radial)):
        rows = _quad.simpson(ys, x=x)
        one = [_quad.simpson(y, x=x) for y in ys]
        assert all(type(v) is float for v in one)
        assert rows.shape == (len(ys),) and np.array_equal(rows, one)


@pytest.mark.parametrize("y_shape, x_size", [((9,), 7), ((2, 9), 7), ((2, 2, 9), 9), ((9,), 0)])
def test_simpson_rejects_mismatched_shapes(y_shape, x_size):
    with pytest.raises(ValueError):
        _quad.simpson(np.ones(y_shape), x=np.linspace(0.0, 1.0, x_size))


@pytest.mark.parametrize("n", [0, 1, 2, 4, 4096])
def test_simpson_rejects_even_and_short_counts(n):
    x = np.linspace(0.0, 1.0, n)
    with pytest.raises(ValueError, match="odd sample count"):
        _quad.simpson(np.ones(n), x=x)


def _lazy_modules_after(code):
    # scipy, and the numpy submodules numpy imports only on first use:
    # numpy.polynomial (4 ms and 0.77 MB in a fresh process) and numpy.ma
    # (15 ms and 1.15 MB; np.setdiff1d, say, imports it), not numpy.matrixlib
    script = code + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"
                                or k.startswith("numpy.polynomial")
                                or k == "numpy.ma" or k.startswith("numpy.ma."))))
        """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_out():
    assert _lazy_modules_after("import conespec.cli\n") == []


def test_solver_runs_leave_scipy_out(tmp_path):
    # scipy is the oracle library only, and the solver builds its Legendre
    # bases without numpy.polynomial: a lazy import of any of them (numpy.ma
    # included) inside the timed solver path would show up here
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
    assert _lazy_modules_after(code) == []
