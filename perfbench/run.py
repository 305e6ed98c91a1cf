"""conespec benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload sweep|particular|energy --seed N \
        --seconds S --trace 0|1

Run from the repository root; conespec is imported from ``src/``.  Each pass
of a workload is one fresh single-threaded worker process (numpy backend,
BLAS/OpenMP pinned to one thread), so no in-process cache outlives a pass.
Passes repeat, closed loop with one client, while the next one is expected to
finish within ``--seconds``; at least one pass always runs.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over passes
of the summed op latencies), ``op_p50_s``/``op_p90_s`` (over all op
latencies), ``setup_s`` (median time from worker start to ``ready``, over at
least SETUP_SAMPLES workers), ``peak_rss_mb`` and ``ok_share`` (ops that
succeeded and passed their check, over ops attempted).  Op times are
nominal seconds, scaled by the machine-speed reference measured next to them
(see reference.py); the raw seconds are printed and saved alongside.  Set-up,
mostly imports, does not slow down in step with that reference, so setup_s
stays in raw seconds.
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics (raw seconds), the tracing overhead and the propagate_band
micro-measurement.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any op
fails in a way the known-failure ledger (``known_failures.json``) does not
record.  Full results and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0

PINNED_ENV = {
    "CONESPEC_BACKEND": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_share": "ratio"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CONESPEC_CONFIG", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = worker_env()
        self.setups: list[float] = []
        self.count = 0

    def spawn(self, trace=0, setup_only=False) -> dict | None:
        """Start one worker; record its set-up time and return its result."""
        self.count += 1
        result_path = os.path.join(OUT, f"worker-{os.getpid()}-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--result", result_path]
        cmd += ["--setup-only"] if setup_only else []
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        log = os.path.join(OUT, f"worker-{self.workload}-seed{self.seed}.log")
        t0 = time.perf_counter()
        with open(log, "ab") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"worker exited with code {code}; see {log}")
        self.setups.append(ready - t0)
        if setup_only:
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_ledger() -> dict:
    with open(os.path.join(HERE, "known_failures.json")) as fh:
        return json.load(fh)


def classify(passes, ledger) -> tuple[int, int, list]:
    """(attempted, failed, failures as (op id, failure, known))."""
    known = {e["op"]: e["failure"] for e in ledger.get("failures", [])}
    failures, attempted = [], 0
    for res in passes:
        for rec in res["ops"]:
            attempted += 1
            f, prefix = rec["failure"], known.get(rec["id"])
            if f is not None:
                failures.append((rec["id"], f, prefix is not None and f.startswith(prefix)))
    return attempted, len(failures), failures


def nominal(rec) -> float:
    return rec["wall_s"] * NOMINAL_S / rec["ref_s"]


def pass_wall(res, scale=nominal) -> float:
    return sum(scale(r) for r in res["ops"])


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """Timing and memory metrics, with (q1, median, q3, n) summaries."""
    walls = [pass_wall(res) for res in passes]
    lats = [nominal(r) for res in passes for r in res["ops"]]
    p90 = (statistics.quantiles(lats, n=10, method="inclusive")[8]
           if len(lats) > 1 else lats[0])
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(lats),
        "op_p90_s": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(res["rss_mb"] for res in passes),
    }
    summary = {
        "wall_s": (*quartiles(walls), len(walls)),
        "raw_wall_s": (*quartiles([pass_wall(res, lambda r: r["wall_s"])
                                   for res in passes]), len(passes)),
        "op_latency_s": (*quartiles(lats), len(lats)),
        "op_p90_s": (p90, sum(v > p90 for v in lats), len(lats)),
        "setup_s": (*quartiles(setups), len(setups)),
    }
    return values, summary


def traced_metrics(untraced, traced) -> dict:
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in traced["layers"].items()}
    wall = [pass_wall(res) for res in (untraced, traced)]
    metrics["trace.overhead_s"] = {"value": wall[1] - wall[0], "unit": "s"}
    ops = traced["ops"]
    metrics["fail_share"] = {
        "value": sum(r["failure"] is not None for r in ops) / len(ops), "unit": "ratio"}
    for n, q in traced["micro"].items():
        for stat in ("p50", "q1", "q3"):
            metrics[f"kernels.micro.n{n}.{stat}_us_per_kpoint"] = {
                "value": q[stat], "unit": "us/kpoint"}
    return metrics


def provenance(args, worker_prov) -> dict:
    prov = dict(worker_prov)
    prov.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(), commit=git_commit())
    return prov


def git_commit() -> str:
    """HEAD commit read from ``.git`` in the checkout, without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.makedirs(OUT, exist_ok=True)
    ledger = load_ledger()
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            passes = [runner.spawn(trace=0), runner.spawn(trace=1)]
        else:
            passes, spent = [], []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(runner.spawn())
                spent.append(time.monotonic() - t0)
                if time.monotonic() - start + statistics.median(spent) > args.seconds:
                    break
        while len(runner.setups) < SETUP_SAMPLES:
            runner.spawn(setup_only=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = classify(passes, ledger)
    e2e, summary = end_to_end(passes, runner.setups)
    e2e["ok_share"] = (attempted - failed) / attempted
    prov = provenance(args, passes[-1]["provenance"])
    if args.trace:
        metrics = traced_metrics(passes[0], passes[-1])
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = passes[-1].pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": spans}, fh)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"provenance": prov, "summary": summary, "metrics": metrics,
                   "failures": failures, "setups": runner.setups,
                   "passes": passes}, fh, indent=1)

    print(json.dumps({"provenance": prov}))
    for name, (q1, med, q3, n) in ((k, v) for k, v in summary.items()
                                   if k != "op_p90_s"):
        print(f"{name:>14}: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={n}")
    p90, beyond, n = summary["op_p90_s"]
    print(f"{'op_p90_s':>14}: {p90:.4f}  ({beyond} of {n} samples above)")
    for (op_id, failure, known), n in collections.Counter(failures).items():
        print(f"{'known' if known else 'UNEXPECTED'} failure {op_id} (x{n}): {failure}")
    correct = all(known for _, _, known in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
