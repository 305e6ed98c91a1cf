"""Timing of the band-ODE propagation kernel.

Times one shot (the whole trajectory: up-sweep and down-sweep of the step
tree) at each grid size and at mu = 0 and mu = 2(d-1) (the sphere-degree-2
mode), in four cases:

* ``new grid`` -- every memo level cleared before each shot, so the lam part,
  the mu part (mu > 0 only) and the per-mu collapse are all built;
* ``new mu`` -- only the per-mu collapse cleared: a new mu on a known grid;
* ``warm`` -- the memo holds the grid and the mu, so a shot only evaluates
  the quadratic at a new lambda;
* ``direct`` -- step matrices straight from the stage arithmetic
  ``_step_entries``, with no memo lookup: what a memo build competes with.

A second table times warm lane shots: 1, 2, 4, 8 and 16 lambdas in one step
tree (the lane cap ``kernels._LANES`` lifted), as time per lane.  The cost
per lane falls with the lanes up to 16; the cap of 8 rests instead on the
temporaries one tree holds, which grow with its lanes.  Its ``states`` row
times the call ``boundary`` makes: the start states (1, 0) and (0, 1) as two
lanes at one lambda, which share one step tree.

This is a kernel micro-benchmark; the end-to-end benchmark is
``perfbench/run.py``.  Usage:

    python3 benchmarks/kernel_bench.py --dim 7 --sizes 257,1025,4097
"""

import argparse
import math
import time

import numpy as np

from conespec import kernels

CASES = ("new grid", "new mu", "warm", "direct")
LANES = (1, 2, 4, 8, 16)
MEMOS = (kernels._step_poly, kernels._lam_part, kernels._mu_part)


def _direct_steps(dm2, mu, lam, thetas):
    return np.array(kernels._step_entries(dm2, mu, lam, thetas)).reshape(2, 2, -1)


def best_time(case, dm2, mu, lam, thetas, repeats):
    memo_steps = kernels._steps
    if case == "direct":
        kernels._steps = _direct_steps
    try:
        kernels.propagate_band(dm2, mu, lam, thetas, 1.0, 0.0)  # warm-up
        best = math.inf
        for _ in range(repeats):
            if case == "new grid":
                for memo in MEMOS:
                    memo.cache_clear()
            elif case == "new mu":
                kernels._step_poly.cache_clear()
            t0 = time.perf_counter()
            kernels.propagate_band(dm2, mu, lam, thetas, 1.0, 0.0)
            best = min(best, time.perf_counter() - t0)
    finally:
        kernels._steps = memo_steps
    return best


def lane_time(dm2, mu, lam, thetas, lanes, repeats):
    """Best warm time per lane of one call shooting ``lanes`` lambdas."""
    lams = lam + np.arange(lanes, dtype=float)
    cap = kernels._LANES
    kernels._LANES = lanes
    try:
        kernels.propagate_band(dm2, mu, lams, thetas, 1.0, 0.0)  # warm-up
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernels.propagate_band(dm2, mu, lams, thetas, 1.0, 0.0)
            best = min(best, time.perf_counter() - t0)
    finally:
        kernels._LANES = cap
    return best / lanes


def states_time(dm2, mu, thetas, repeats):
    """Best warm time per lane of boundary's two start-state lanes at lambda = 0."""
    g0, gp0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    kernels.propagate_band(dm2, mu, 0.0, thetas, g0, gp0)  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernels.propagate_band(dm2, mu, 0.0, thetas, g0, gp0)
        best = min(best, time.perf_counter() - t0)
    return best / 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=7)
    ap.add_argument("--sizes", default="257,1025,4097",
                    help="comma-separated grid point counts")
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()

    d = args.dim
    lam = d - 1.0
    print(f"band propagation, d={d}, lam={lam}  (best of {args.repeats}, ms)")
    print(f"{'n':>6}{'mu':>6}" + "".join(f"{case:>10}" for case in CASES))
    sizes = [int(t) for t in args.sizes.split(",") if t]
    for n in sizes:
        thetas = np.linspace(math.pi / 2 - 0.55, math.pi / 2 + 0.55, n)
        for mu in (0.0, 2.0 * (d - 1)):
            row = f"{n:>6}{mu:>6g}"
            for case in CASES:
                t = best_time(case, d - 2, mu, lam, thetas, args.repeats)
                row += f"{t * 1e3:>10.3f}"
            print(row)

    print(f"\nwarm lane shots, mu={2 * (d - 1)}: ms per lane")
    print(f"{'n':>6}{'shot':>7}" + "".join(f"{lanes:>9}" for lanes in LANES))
    for n in sizes:
        thetas = np.linspace(math.pi / 2 - 0.55, math.pi / 2, n)
        row = f"{n:>6}{'traj':>7}"
        for lanes in LANES:
            t = lane_time(d - 2, 2.0 * (d - 1), lam, thetas, lanes, args.repeats)
            row += f"{t * 1e3:>9.3f}"
        print(row)
        t = states_time(d - 2, 2.0 * (d - 1), thetas, args.repeats)
        print(f"{n:>6}{'states':>7}" + "".join(f"{t * 1e3:>9.3f}" if lanes == 2 else f"{'-':>9}"
                                             for lanes in LANES))


if __name__ == "__main__":
    main()
