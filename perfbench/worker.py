"""One pass of a workload in a fresh, single-threaded process.

Set-up (imports, op generation, input files) ends with a ``ready`` line on
standard output, which the parent uses to time it.  The ops then run back to
back in one library session, with a machine-speed reference sample (see
reference.py) before the first op and after each op; every check runs after
the last op, outside the timed region and with tracing off.  The result goes
to ``--result`` as JSON.

    python3 perfbench/worker.py --workload sweep --seed 1 --trace 0 \
        --result .perfbench_out/r.json [--setup-only]

A traced pass also measures propagate_band alone (``kernel_micro``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

from reference import reference  # noqa: E402

# (points, theta start, theta end): the 2049-point half band and 4097-point
# band of the d = 7 cone, and the 16385-point profile hunt.
_THETA0_D7 = 0.5437286919823721
MICRO_GRIDS = (
    (2049, math.pi / 2 - _THETA0_D7, math.pi / 2),
    (4097, math.pi / 2 - _THETA0_D7, math.pi / 2 + _THETA0_D7),
    (16385, math.pi / 2, math.pi - 0.01),
)
MICRO_REPEATS = 41
READY_REF_SAMPLES = 3


def _import_package():
    import conespec

    where = os.path.realpath(conespec.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"conespec imported from {where}, not from {SRC}")
    return conespec


def kernel_micro(kernels) -> dict:
    """Per-point cost of propagate_band at the workloads' grid sizes (us/kpoint)."""
    import numpy as np

    out = {}
    for n, a, b in MICRO_GRIDS:
        thetas = np.linspace(a, b, n)
        for _ in range(3):
            kernels.propagate_band(5.0, 0.0, 6.0, thetas, 1.0, 0.0)
        samples = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            kernels.propagate_band(5.0, 0.0, 6.0, thetas, 1.0, 0.0)
            samples.append((time.perf_counter() - t0) * 1e9 / n)
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        out[n] = {"p50": q2, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    conespec = _import_package()
    import numpy
    import scipy

    import tracer as tr
    import workloads as wl

    backend = conespec.get_backend()
    ops = wl.make_ops(args.workload, args.seed)
    wl.check_resonance_clearance(ops)
    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)),
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        session = wl.Session(workdir)
        session.prepare(ops)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        refs = [reference() for _ in range(READY_REF_SAMPLES)]
        result = run_pass(session, ops, args.trace, tr, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        result["micro"] = kernel_micro(conespec.kernels)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = {
        "backend": backend,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "conespec": conespec.__version__,
        "worker_threads": threading.active_count(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_pass(session, ops, trace, tr, refs) -> dict:
    """Run every op (timed, optionally traced), then check every output.

    ``refs`` holds reference() samples taken just before the first op; one
    more is taken after each op.
    """
    samples = list(refs)
    tracer = tr.Tracer()
    if trace:
        tracer.install()
    # The root span of each op covers program code outside the traced layers.
    run_op = tracer.wrap(tr.ROOT_SPAN, session.run)
    records, outputs = [], []
    try:
        for op in ops:
            tracer.op = op["id"]
            tracer.active = bool(trace)
            failure, out, exc = None, None, None
            t0 = time.perf_counter()
            try:
                out = run_op(op)
            except Exception as err:  # an op failure is a result, not a crash
                exc = err
            wall = time.perf_counter() - t0
            tracer.active = False
            samples.append(reference())
            if exc is not None:
                failure = f"{type(exc).__name__}: {exc}"
                traceback.print_exception(exc)
            records.append({"id": op["id"], "wall_s": wall, "failure": failure})
            outputs.append(out)
    finally:
        tracer.uninstall()

    # Each op lies between the sample before it and the one after it; when
    # the machine changes speed during the op, their mean follows the mix.
    before = statistics.median(refs)
    for rec, after in zip(records, samples[len(refs):]):
        rec["ref_s"] = 0.5 * (before + after)
        before = after
    for op, rec, out in zip(ops, records, outputs):
        if rec["failure"] is None:
            try:
                rec["failure"] = session.check(op, out)
            except Exception as exc:
                rec["failure"] = f"check raised {type(exc).__name__}: {exc}"
                traceback.print_exc()
    result = {"ops": records}
    if trace:
        spans = tracer.spans
        result["layers"] = tr.layer_metrics(spans)
        result["spans"] = [[s[tr.NAME], s[tr.START], s[tr.END], s[tr.PARENT],
                            s[tr.OP], s[tr.ERROR]] for s in spans]
    return result


if __name__ == "__main__":
    sys.exit(main())
