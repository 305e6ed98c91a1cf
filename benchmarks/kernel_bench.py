"""Timing of the band-ODE propagation kernels.

Times the two entry points side by side at each grid size:
``propagate_band`` (whole trajectory: up-sweep and down-sweep of the step
tree) and ``propagate_band_end`` (end state only: the up-sweep).  Each is
timed cold, with the step-matrix memo cleared before every shot so the
lambda-quadratic coefficients are rebuilt, and warm, with the memo holding
the grid so a shot only evaluates them at a new lambda.  This is a kernel
micro-benchmark; the end-to-end benchmark is ``perfbench/run.py``.  Usage:

    python3 benchmarks/kernel_bench.py --dim 7 --sizes 257,1025,4097
"""

import argparse
import math
import time

import numpy as np

from conespec import kernels

KERNELS = {"traj": kernels.propagate_band, "end": kernels.propagate_band_end}


def best_time(kernel, dm2, mu, lam, thetas, repeats, cold):
    kernel(dm2, mu, lam, thetas, 1.0, 0.0)  # warm-up
    best = math.inf
    for _ in range(repeats):
        if cold:
            kernels._step_poly.cache_clear()
        t0 = time.perf_counter()
        kernel(dm2, mu, lam, thetas, 1.0, 0.0)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=7)
    ap.add_argument("--sizes", default="257,1025,4097",
                    help="comma-separated grid point counts")
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()

    d = args.dim
    lam = d - 1.0
    print(f"band propagation, d={d}, lam={lam}, mu=0  (best of {args.repeats})")
    labels = [f"{name} {state}" for name in KERNELS for state in ("cold", "warm")]
    print(f"{'n':>6}" + "".join(f"{label:>12}" for label in labels))
    for n in [int(t) for t in args.sizes.split(",") if t]:
        thetas = np.linspace(math.pi / 2 - 0.55, math.pi / 2 + 0.55, n)
        row = f"{n:>6}"
        for kernel in KERNELS.values():
            for cold in (True, False):
                t = best_time(kernel, d - 2, 0.0, lam, thetas, args.repeats, cold)
                row += f"{t * 1e3:>10.3f}ms"
        print(row)


if __name__ == "__main__":
    main()
