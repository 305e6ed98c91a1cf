"""Tests of the benchmark itself: op generation, metric names, failure
accounting and span bookkeeping.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert wl.make_ops(workload, 7) == wl.make_ops(workload, 7)
    assert wl.make_ops(workload, 7) != wl.make_ops(workload, 8)
    ids = [op["id"] for op in wl.make_ops(workload, 7)]
    assert len(ids) == len(set(ids))


def test_sweep_covers_every_dim_once():
    assert sorted(op["dim"] for op in wl.make_ops("sweep", 3)) == list(wl.SWEEP_DIMS)


def test_particular_sources_stay_clear_of_resonances():
    for seed in range(20):
        ops = wl.make_ops("particular", seed)
        wl.check_resonance_clearance(ops)
        for op in ops:
            assert len(op["coeffs"]) == 3
        for d in wl.PARTICULAR_DIMS:
            modes = [int(k) for op in ops if op["dim"] == d for k in op["coeffs"]]
            assert sorted(modes) == list(range(1, 7))
    bad = [{"id": "x", "kind": "particular", "dim": 7, "beta": 1.0 - 1e-4}]
    with pytest.raises(ValueError):
        wl.check_resonance_clearance(bad)


def test_workload_names_match_benchmark_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(wl.WORKLOADS)


class _FakeSession:
    """Op 'a' passes, 'b' raises, 'c' fails its check, 'd' is a known failure."""

    def run(self, op):
        if op["id"] in ("b", "d"):
            raise ValueError("boom")
        return op["id"]

    def check(self, op, out):
        return "wrong answer" if out == "c" else None


def _fake_pass(trace=0):
    ops = [{"id": i} for i in "abcd"]
    res = worker.run_pass(_FakeSession(), ops, trace, tr, [0.01])
    res["rss_mb"] = 1.0
    return res


def test_failed_ops_are_counted():
    ledger = {"failures": [{"op": "d", "failure": "ValueError"}]}
    attempted, failed, failures = run.classify([_fake_pass()], ledger)
    assert (attempted, failed) == (4, 3)
    assert {(op, known) for op, _, known in failures} == {
        ("b", False), ("c", False), ("d", True)}
    assert dict((op, f) for op, f, _ in failures)["c"] == "wrong answer"


def test_times_are_scaled_by_the_reference():
    ops = [{"id": "a", "wall_s": 2.0, "ref_s": 2 * run.NOMINAL_S, "failure": None},
           {"id": "b", "wall_s": 3.0, "ref_s": run.NOMINAL_S / 2, "failure": None}]
    e2e, summary = run.end_to_end([{"ops": ops, "rss_mb": 1.0}], [0.5])
    assert e2e["wall_s"] == pytest.approx(1.0 + 6.0)
    assert summary["raw_wall_s"][1] == pytest.approx(5.0)
    assert e2e["op_p50_s"] == pytest.approx(3.5)


def _fake_results(trace):
    passes = [_fake_pass(trace=0), _fake_pass(trace=trace)]
    if trace:
        passes[-1]["micro"] = {str(n): {"p50": 1.0, "q1": 0.9, "q3": 1.1}
                               for n, _, _ in worker.MICRO_GRIDS}
    for p in passes:
        p["provenance"] = {"backend": "numpy"}
    return passes


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(trace, monkeypatch, capsys, tmp_path):
    results = iter(_fake_results(trace))

    def fake_spawn(self, trace=0, setup_only=False):
        self.setups.append(0.25)
        return None if setup_only else next(results)

    monkeypatch.setattr(run.Runner, "spawn", fake_spawn)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False  # 'b' and 'c' are not in the ledger
    passes = 2 if trace else 1  # '--seconds 0' still runs one pass
    assert (last["attempted"], last["failed"]) == (4 * passes, 3 * passes)
    if not trace:
        assert last["metrics"]["ok_share"]["value"] == pytest.approx(0.25)
    else:
        assert last["metrics"]["fail_share"]["value"] == pytest.approx(0.75)
    want = _spec()["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_install_rebinds_every_alias_and_uninstall_restores():
    import conespec
    import conespec.kernels
    import conespec.profile
    import conespec.sl

    orig = conespec.kernels.propagate_band
    tracer = tr.Tracer()
    tracer.install()
    try:
        for mod in (conespec, conespec.kernels, conespec.profile, conespec.sl,
                    conespec.boundary):
            assert mod.propagate_band is not orig
            assert mod.propagate_band.__wrapped__ is orig
    finally:
        tracer.uninstall()
    assert conespec.sl.propagate_band is orig and conespec.propagate_band is orig


def _span_cost(repeats=20000):
    """Median extra seconds one traced call costs over a direct call."""
    tracer = tr.Tracer()

    def noop():
        return None

    traced = tracer.wrap("bench.noop", noop)
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        tracer.active = True
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t1 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / repeats)
    return max(statistics.median(samples), 0.0)


def test_span_self_times_account_for_each_op(tmp_path):
    """Real ops, traced: self times partition each op's wall time."""
    ops = ([op for op in wl.make_ops("energy", 0) if op["dim"] == 7
            and op["kind"] in ("profile", "aperture")]
           + [{"id": "sweep/d03", "kind": "verify", "dim": 3}])
    res = worker.run_pass(wl.Session(str(tmp_path)), ops, 1, tr, [0.01])
    assert [r["failure"] for r in res["ops"]] == [None] * len(ops)
    spans = res["spans"]
    assert all(st >= -1e-9 for st in tr.self_times(spans))
    per_span = _span_cost()
    gaps = tr.op_gaps(spans, {r["id"]: r["wall_s"] for r in res["ops"]})
    for op_id, gap in gaps.items():
        n = sum(1 for s in spans if s[tr.OP] == op_id)
        assert -1e-6 <= gap <= n * per_span + 1e-4, (op_id, gap, n)
    layers = res["layers"]
    assert layers["profile.calls"][0] == 2  # the energy op and the CLI op
    assert layers["weiss.F.calls"][0] == 3 + wl.HALFWIDTHS_PER_DIM
    assert layers["kernels.points"][0] > 0 and layers["sl.eigen_k.calls"][0] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
