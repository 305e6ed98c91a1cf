"""Timing of the band-ODE propagation kernels.

Times the two entry points side by side at each grid size:
``propagate_band`` (whole trajectory, a prefix scan over the RK4 step
matrices) and ``propagate_band_end`` (end state only, a tree reduction).
This is a kernel micro-benchmark; the end-to-end benchmark is
``perfbench/run.py``.  Usage:

    python3 benchmarks/backend_bench.py --dim 7 --sizes 257,1025,4097
"""

import argparse
import math
import time

import numpy as np

from conespec.kernels import propagate_band, propagate_band_end

KERNELS = {"traj": propagate_band, "end": propagate_band_end}


def best_time(kernel, dm2, mu, lam, thetas, repeats):
    kernel(dm2, mu, lam, thetas, 1.0, 0.0)  # warm-up
    best = math.inf
    for _ in range(repeats):
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
    print(f"{'n':>6}" + "".join(f"{label:>12}" for label in KERNELS))
    for n in [int(t) for t in args.sizes.split(",") if t]:
        thetas = np.linspace(math.pi / 2 - 0.55, math.pi / 2 + 0.55, n)
        row = f"{n:>6}"
        for kernel in KERNELS.values():
            row += f"{best_time(kernel, d - 2, 0.0, lam, thetas, args.repeats) * 1e3:>10.3f}ms"
        print(row)


if __name__ == "__main__":
    main()
