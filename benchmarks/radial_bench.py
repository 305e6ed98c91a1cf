"""Timing of the per-mode radial solves of a particular solution.

Builds the interior defect field of one fixed boundary source (the same
source at every dimension), then times ``radial.solve_radial_modes`` on it
and each mode's ``radial._solve_mode`` alone.  Each mode row shows the
mode's sign-rule exponents P and Q, the refined log-grid points its solve
integrates and differentiates, and its best time; the summary row gives the
whole call, the time per solved mode and per refined point.  The radial
stage is the only one timed: the cone, boundary modes and projection are
built once, untimed.

This is a stage micro-benchmark; the end-to-end benchmark is
``perfbench/run.py``.  Usage:

    python3 benchmarks/radial_bench.py --dims 7,12 --repeats 5
"""

import argparse
import math
import time

import numpy as np

from conespec import radial
from conespec.boundary import boundary_modes
from conespec.profile import solve_profile

BETA = 0.7
COEFFS = {1: 1.0, 3: -0.5, 5: 0.8}


def defect_field(d):
    """The interior-basis defect field of the fixed source."""
    p = solve_profile(d)
    bmodes = boundary_modes(p, max(COEFFS))
    _, f = radial.transfer_boundary(radial.make_source(BETA, COEFFS), bmodes, p)
    f_int, _ = radial.project_interior(f, p)
    return f_int


def best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def refined_points(f_int, d, j):
    """Points of mode j's refined grid: the size _solve_mode differentiates."""
    sizes = []
    derivative = radial._derivative

    def counted(vals, h):
        sizes.append(vals.size)
        return derivative(vals, h)

    radial._derivative = counted
    try:
        radial._solve_mode(f_int.modes[j], f_int.coeffs[j], f_int.r_grid, d, BETA, False)
    finally:
        radial._derivative = derivative
    return sizes[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="7,12", help="comma-separated dimensions")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    print(f"radial solves, beta={BETA}, source {COEFFS}  (best of {args.repeats})")
    for d in [int(t) for t in args.dims.split(",") if t]:
        f_int = defect_field(d)
        solved = [j for j in range(len(f_int.modes))
                  if np.max(np.abs(f_int.coeffs[j])) > 0.0]
        print(f"\nd={d}: {len(f_int.modes)} modes, {len(solved)} with a nonzero defect")
        print(f"{'mode':>10}{'P':>9}{'Q':>9}{'points':>8}{'us':>10}")
        points = 0
        for j in solved:
            entry = f_int.modes[j]
            P, Q = radial._sign_exponents(d, entry.delta, BETA)
            n = refined_points(f_int, d, j)
            points += n
            t = best_time(lambda: radial._solve_mode(entry, f_int.coeffs[j], f_int.r_grid,
                                                     d, BETA, False), args.repeats)
            print(f"{str(entry.source):>10}{P:>9.3f}{Q:>9.3f}{n:>8}{t * 1e6:>10.1f}")
        t = best_time(lambda: radial.solve_radial_modes(f_int), args.repeats)
        print(f"solve_radial_modes: {t * 1e3:.3f} ms, {t * 1e6 / len(solved):.1f} us/mode, "
              f"{points} points, {t * 1e9 / points:.1f} ns/point")


if __name__ == "__main__":
    main()
