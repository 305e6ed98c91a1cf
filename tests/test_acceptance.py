"""Acceptance criteria, one test (and one visible PASS/FAIL line) each.

Run with plain `pytest -v`: the ACCEPTANCE lines print outside capture so the
ten verdicts are always visible in the log.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from conespec.boundary import boundary_modes, sphere_area
from conespec.cli import run
from conespec.linkspec import link_spectrum, verify_strong_integrability
from conespec.profile import solve_profile
from conespec.radial import (RadialField, build_up, make_source,
                             project_interior, radial_grid,
                             solve_radial_modes, transfer_boundary)
from conespec.sl import SLSpec, band_spec, eigen_fd_crosscheck, eigen_k
from conespec.weiss import (F_functional, cone_field, halfplane_field,
                            link_measure_identity, power_field, weiss,
                            weiss_derivative_check)

from test_weiss import _sinlog_field, _tapered_jacobi_field

DIMS = range(3, 11)
CLUSTER = 1e-6


@pytest.fixture
def announce(capfd):
    def _announce(n, ok, detail):
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {n}: {detail}"
    return _announce


@pytest.fixture(scope="module")
def spectra():
    out = {}
    for d in DIMS:
        t0 = time.perf_counter()
        p = solve_profile(d)
        link = link_spectrum(p, 2.0 * d)
        out[d] = (p, link, time.perf_counter() - t0)
    return out


def _mult_at(link, value):
    return sum(e.multiplicity for e in link.entries if abs(e.lam - value) <= CLUSTER)


def test_criterion_1_spectral_table(spectra, announce):
    ok = True
    worst_margin, worst_time = math.inf, 0.0
    for d in DIMS:
        p, link, dt = spectra[d]
        worst_time = max(worst_time, dt)
        margin = -(d - 2) - link.lambda1
        worst_margin = min(worst_margin, margin)
        low = [e for e in link.entries if e.lam <= d - 1 + CLUSTER]
        expected = {0.0: d, float(d - 1): d - 1, link.lambda1: 1}
        stray = [e.lam for e in low
                 if min(abs(e.lam - v) for v in expected) > CLUSTER]
        ok &= _mult_at(link, 0.0) == d
        ok &= _mult_at(link, d - 1.0) == d - 1
        ok &= margin > 1e-4
        ok &= not stray
        ok &= dt < 10.0
    announce(1, ok, f"min lam1 margin {worst_margin:.2e}, "
                    f"max per-dim time {worst_time:.2f}s")


def test_criterion_2_stability_dichotomy(spectra, announce, tmp_path):
    ok = True
    min_margin = math.inf
    for d in DIMS:
        _, link, _ = spectra[d]
        shifted = link.lambda1 + ((d - 2) / 2) ** 2
        min_margin = min(min_margin, abs(shifted))
        ok &= (shifted < -1e-4) if d <= 6 else (shifted > 1e-4)
        code = run(["verify", "--dim", str(d), "--out",
                    str(tmp_path / f"v{d}.json")])
        ok &= code == (1 if d <= 6 else 0)
    announce(2, ok, f"min |lam1 + ((d-2)/2)^2| = {min_margin:.2e}, "
                    "verify exit codes match")


def test_criterion_3_jacobi_identification(p3, p7, announce):
    errs = [verify_strong_integrability(p).match_error_max for p in (p3, p7)]
    ok = max(errs) <= 1e-5
    announce(3, ok, f"max rel L2 mismatch {max(errs):.2e}")


def test_criterion_4_oracle_equivalence(p3, p7, announce):
    worst = 0.0
    for p in (p3, p7):
        for mu in (0.0, float(p.dim - 2)):
            for bc in ("robin", "dirichlet"):
                spec = band_spec(p, mu, bc)
                fd = eigen_fd_crosscheck(spec, 5)
                sh = np.array([eigen_k(spec, k).lam for k in range(1, 6)])
                worst = max(worst, float(np.max(np.abs(fd - sh))))
    ok = worst <= 1e-5
    announce(4, ok, f"max shooting-vs-FD gap {worst:.2e}")


def test_criterion_5_dirichlet_calibration(p3, p7, announce):
    ok = True
    worst = 0.0
    for p in (p3, p7):
        d = p.dim
        lam1 = eigen_k(band_spec(p, 0.0, "dirichlet"), 1).lam
        worst = max(worst, abs(lam1 - (d - 1)))
        ok &= abs(lam1 - (d - 1)) <= 1e-7
        half = SLSpec(dim=d, band=(math.pi / 2 - p.theta0 / 2,
                                   math.pi / 2 + p.theta0 / 2),
                      mu=0.0, bc="dirichlet", grid_n=4096)
        ok &= eigen_k(half, 1).lam > d - 1 + 1e-4
    announce(5, ok, f"max |lam1_D - (d-1)| = {worst:.2e}, half-band above d-1")


def test_criterion_6_weiss_identities(p3, p7, announce):
    ok = True
    radii = (0.5, 1.0, 2.0, 4.0)
    spread = 0.0
    for p in (p3, p7):
        vals = [weiss(cone_field(p), r) for r in radii]
        spread = max(spread, max(vals) - min(vals))
        ok &= max(vals) - min(vals) <= 1e-8
        _, _, gap = link_measure_identity(p)
        ok &= gap <= 1e-7
    for d in (3, 7):
        ref = sphere_area(d - 1) / (2 * d)
        ok &= abs(weiss(halfplane_field(d), 1.0) - ref) / ref <= 1e-7
    worst_rel = 0.0
    fields = (_tapered_jacobi_field(p3), _sinlog_field(p7),
              power_field(p7, 1.4))
    for u in fields:
        lhs, rhs, gap = weiss_derivative_check(u, 1.0)
        rel = gap / max(1.0, abs(lhs), abs(rhs))
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-4
    announce(6, ok, f"constancy spread {spread:.1e}, "
                    f"derivative identity worst rel {worst_rel:.1e}")


def test_criterion_7_aperture_criticality(p3, p7, announce):
    eps = 1e-4
    worst = 0.0
    ok = True
    for p in (p3, p7):
        f0 = F_functional(p.theta0, p, p.dim)
        df = (F_functional(p.theta0 + eps, p, p.dim)
              - F_functional(p.theta0 - eps, p, p.dim)) / (2 * eps)
        worst = max(worst, abs(df) / f0)
        ok &= abs(df) <= 1e-5 * f0
    announce(7, ok, f"max |dF/deps|/F = {worst:.2e}")


def test_criterion_8_particular_solution(p7, link7, bmodes7, announce):
    src = make_source(0.7, {1: 1.0, 2: 0.8, 4: -0.5})
    n_res = sum(1 for m in bmodes7 if m.k in (1, 2, 4) and m.in_resonance)
    up, rep = build_up(src, p7, bmodes7)
    ok = n_res == 1
    ok &= rep.interior_residual <= 1e-6
    ok &= rep.boundary_residual <= 1e-6
    ok &= rep.slope <= 1 - 0.7 + 0.05

    entry = link7.find((0, 2))
    r = radial_grid()
    f = RadialField("interior", p7.dim, r, (r ** -1.5)[None, :], 0.5, (entry,),
                    p7.grid, np.ones((1, p7.grid.size)),
                    np.zeros((1, p7.grid.size)))
    u = solve_radial_modes(f)
    rel = np.abs(u.coeffs[0] - r ** 0.5 / 2.75) / (r ** 0.5 / 2.75)
    closed = float(np.max(rel[r.size // 2:]))
    ok &= closed <= 1e-6
    announce(8, ok, f"residuals {rep.interior_residual:.1e}/"
                    f"{rep.boundary_residual:.1e}, slope {rep.slope:.3f}, "
                    f"closed form {closed:.1e}")


def test_criterion_9_limit_selection_negative(p7, link7, bmodes7, announce):
    src = make_source(0.7, {1: 1.0, 2: 0.8, 4: -0.5})
    _, f = transfer_boundary(src, bmodes7, p7)
    f_int, _ = project_interior(f, p7)
    flipped = solve_radial_modes(f_int, flip_rules=True)
    slopes = []
    row_max = np.max(np.abs(f_int.coeffs), axis=1)
    for j, e in enumerate(f_int.modes):
        if row_max[j] <= 1e-12 * row_max.max():
            continue  # parity-forbidden row: roundoff only
        if link7.dim / 2 - e.delta - 0.7 >= 0:
            continue  # sign rule already wanted the finite limit
        row = dataclasses.replace(
            flipped, coeffs=flipped.coeffs[j:j + 1], modes=(e,),
            angular=flipped.angular[j:j + 1],
            angular_prime=flipped.angular_prime[j:j + 1], ode_residual=None)
        slopes.append(row.slope(1.0))
    ok = bool(slopes) and min(slopes) > 1 - 0.7 + 0.5
    announce(9, ok, f"{len(slopes)} flipped modes, min slope "
                    f"{min(slopes):.3f} > 0.8")


def test_criterion_10_determinism(announce):
    cmd = [sys.executable, "-m", "conespec", "report", "--dims", "3..10"]
    a = subprocess.run(cmd, capture_output=True, timeout=300)
    b = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout \
        and len(a.stdout) > 0
    announce(10, ok, f"{len(a.stdout)} bytes, byte-identical reruns")
