"""Timing comparison of the band-ODE propagation backends.

Each backend is timed twice: ``propagate_band`` (whole trajectory; on numpy a
prefix scan) and ``propagate_band_end`` (end state only; on numpy a tree
reduction).  The compiled loop wins on a warm cache; the numpy kernels are the
fallback when numba is unavailable.  Usage:

    python3 benchmarks/backend_bench.py --dim 7 --sizes 257,1025,4097
"""

import argparse
import math
import time

import numpy as np

from conespec.kernels import (HAVE_NUMBA, available_backends, propagate_band,
                              propagate_band_end, set_backend)

KERNELS = {"traj": propagate_band, "end": propagate_band_end}


def time_backend(name, kernel, dm2, mu, lam, thetas, repeats):
    set_backend(name)
    kernel(dm2, mu, lam, thetas, 1.0, 0.0)  # warm-up / JIT
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(dm2, mu, lam, thetas, 1.0, 0.0)
        best = min(best, time.perf_counter() - t0)
    set_backend(None)
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
    header = f"{'n':>6}{'kernel':>8}" + "".join(f"{b:>12}" for b in available_backends())
    if HAVE_NUMBA:
        header += f"{'speedup':>10}"
    print(header)
    for n in [int(t) for t in args.sizes.split(",") if t]:
        thetas = np.linspace(math.pi / 2 - 0.55, math.pi / 2 + 0.55, n)
        for label, kernel in KERNELS.items():
            row = f"{n:>6}{label:>8}"
            times = {}
            for b in available_backends():
                times[b] = time_backend(b, kernel, d - 2, 0.0, lam, thetas, args.repeats)
                row += f"{times[b] * 1e3:>10.3f}ms"
            if HAVE_NUMBA:
                row += f"{times['numpy'] / times['numba']:>9.1f}x"
            print(row)


if __name__ == "__main__":
    main()
