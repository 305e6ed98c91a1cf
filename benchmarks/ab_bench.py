"""Interleaved A/B timing of two conespec source trees on one perfbench workload.

Each tree's ``conespec`` package is copied in under its own package name
(``conespec_a``, ``conespec_b``), so both live in one process.  Every round
builds the op list of one seed from ``perfbench/workloads.py``, re-imports
both packages fresh (no memo survives from the previous round, as in a fresh
perfbench worker) and runs one pass of each, A first in even rounds and B
first in odd ones.  A pass is perfbench's own (``worker.run_pass``, run with
garbage collection off): every op timed, every output then checked by the
workload's oracle, untimed; its time is the sum of the op latencies.  The
summary is the median of the per-round ratios B/A, the rounds B won and the
ratios' quartiles.  Pairing passes within one process resolves differences
of a few percent that separate perfbench runs (one fresh process per pass)
cannot.

The quartiles of one call do not bound the spread between calls: on one pair
of trees, ``--workload particular`` read B/A 1.080 (quartiles 1.034-1.103, B
faster in 0 of 8) in one call and 0.988 (quartiles 0.954-0.995, B faster in
10 of 10) in another minutes later, on a shared 2-vCPU machine.  A change of a
few percent needs several calls that agree before it is read as real.

Both trees run in one process, so process-wide state applies to both sides:
once either package is imported, the malloc thresholds ``conespec`` sets at
import (see its ``_keep_freed_heap``) hold for the other too.  Likewise a
third-party module that either side imports lazily (``numpy.polynomial``, say)
is loaded once for the process, so its import cost and memory cannot be
compared here.  Compare changes of that kind with perfbench's separate worker
processes (``perfbench/run.py``).

    python3 benchmarks/ab_bench.py --a OLD/src --b NEW/src --workload particular \
        --rounds 12 --seed 1000

``--a`` and ``--b`` name a directory holding the ``conespec`` package (a
checkout's ``src/``).  Round r uses seed ``--seed`` + r.
"""

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from unittest import mock

# one BLAS thread, as in a perfbench worker; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import reference  # noqa: E402


def copy_package(src, dest, name):
    """Copy the conespec package under ``src`` to ``dest``/``name``."""
    pkg = os.path.join(src, "conespec")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"no conespec package under {src}")
    shutil.copytree(pkg, os.path.join(dest, name),
                    ignore=shutil.ignore_patterns("__pycache__"))


def fresh_import(name):
    """Import ``name`` and its cli module anew, dropping every cached module of it."""
    for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    importlib.import_module(name + ".cli")
    return sys.modules[name]


def run_pass(name, ops, workdir):
    """One perfbench pass of ``ops`` on package ``name``: (seconds, failed op ids)."""
    pkg = fresh_import(name)
    # the workload session imports ``conespec``: hand it the renamed package
    with mock.patch.dict(sys.modules, {"conespec": pkg, "conespec.cli": pkg.cli}):
        session = workloads.Session(workdir)
    session.prepare(ops)
    gc.collect()
    gc.disable()
    try:
        records = worker.run_pass(session, ops, 0, tracer, [reference()])["ops"]
    finally:
        gc.enable()
    failed = [f"{rec['id']} ({rec['failure']})" for rec in records if rec["failure"]]
    return sum(rec["wall_s"] for rec in records), failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline source tree")
    ap.add_argument("--b", required=True, help="candidate source tree")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        pkgs = os.path.join(tmp, "pkgs")
        for side in ("a", "b"):
            copy_package(getattr(args, side), pkgs, f"conespec_{side}")
            os.makedirs(os.path.join(tmp, side))
        sys.path.insert(0, pkgs)
        ratios, bad = [], 0
        print(f"{args.workload}: B/A over {args.rounds} rounds (pass seconds, raw)")
        print(f"{'round':>5}{'seed':>7}{'A':>10}{'B':>10}{'B/A':>8}")
        for r in range(args.rounds):
            seed = args.seed + r
            ops = workloads.make_ops(args.workload, seed)
            workloads.check_resonance_clearance(ops)
            times = {}
            for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
                times[side], failed = run_pass(f"conespec_{side}", ops, os.path.join(tmp, side))
                if failed:
                    bad += len(failed)
                    print(f"  {side.upper()} failed: {', '.join(failed)}")
            ratios.append(times["b"] / times["a"])
            print(f"{r:>5}{seed:>7}{times['a']:>10.4f}{times['b']:>10.4f}{ratios[-1]:>8.4f}")

    q1, q3 = (statistics.quantiles(ratios, n=4)[::2] if len(ratios) > 1
              else (ratios[0], ratios[0]))
    wins = sum(x < 1.0 for x in ratios)
    print(f"median B/A {statistics.median(ratios):.4f}  B faster in {wins} of "
          f"{len(ratios)}  quartiles {q1:.4f}-{q3:.4f}  failed ops {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
