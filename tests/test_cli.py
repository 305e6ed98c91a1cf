"""Command-line interface: exit-code contract, report formats, determinism.

Everything runs in-process through run(argv); the one subprocess-level
determinism check lives in the acceptance suite.
"""

import dataclasses
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import conespec
from conespec.cli import run
from conespec.config import SolverConfig
from conespec.errors import NonFiniteResult

THETA0_D7 = 0.5437286919823721


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--dim", "7", "--out", str(out)]) == 0
    assert _read_json(out)["verdict"] is True
    assert run(["verify", "--dim", "4", "--out", str(out)]) == 1
    body = _read_json(out)
    assert body["verdict"] is False and body["strictly_stable"] is False


def test_usage_and_input_errors(tmp_path, capsys):
    assert run([]) == 64                                  # missing command
    assert run(["verify"]) == 64                          # missing --dim
    assert run(["verify", "--dim", "7", "--nope"]) == 64  # unknown flag
    assert run(["frobnicate"]) == 64                      # unknown command
    assert run(["verify", "--dim", "2"]) == 64            # invalid dimension
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert run(["--help"]) == 0


def test_config_error_paths(tmp_path, capsys):
    junk = tmp_path / "c.json"
    junk.write_text("{not json")
    assert run(["--config", str(junk), "verify", "--dim", "7"]) == 64
    junk.write_text('{"grid_n": -1}')
    assert run(["--config", str(junk), "verify", "--dim", "7"]) == 64
    junk.write_text('{"no_such_knob": 1}')
    assert run(["--config", str(junk), "verify", "--dim", "7"]) == 64
    assert run(["--config", str(tmp_path / "absent.json"),
                "verify", "--dim", "7"]) == 64
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    '{"grid_n": 4096.5}',
    '{"grid_n": true}',
    '{"grid_n": "4096"}',
    '{"seed": 1.0}',
    '{"lam_tol": "1e-10"}',
    '{"r0": false}',
    '{"r_max": null}',
    '{"quad_tol": [1e-9]}',
    '{"res_tol": 1e-7}',
    '{"root_tol": 1e-12}',
    '{"grid_n": 10000000000000}',
])
def test_config_field_types(tmp_path, capsys, body):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(body)
    assert run(["--config", str(cfgf), "verify", "--dim", "7"]) == 64
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_every_config_field_has_a_reader():
    # a config key that no solver reads would be accepted and silently ignored
    pkg = pathlib.Path(conespec.__file__).parent
    text = "".join(f.read_text() for f in pkg.glob("*.py") if f.name != "config.py")
    unread = [f.name for f in dataclasses.fields(SolverConfig) if f".{f.name}" not in text]
    assert unread == []


def test_verify_sweep_exit_codes(tmp_path):
    # the d<=6 / d>=7 dichotomy well beyond the tabulated range, with the
    # homogeneity kernels of dimension d (mu=0) and d-1 (rotations)
    # and, up to d = 200, without a numpy overflow warning
    out = tmp_path / "v.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for d in [*range(3, 31), 50, 100, 200]:
            code = run(["verify", "--dim", str(d), "--out", str(out)])
            assert code == (1 if d <= 6 else 0), (d, code)
            body = _read_json(out)
            assert body["dim_kernel0"] == d, (d, body["dim_kernel0"])
            assert body["dim_kernel_d_minus_1"] == d - 1, d
    assert not caught, [str(w.message) for w in caught]


def _clear_memos():
    """Clear every memo a verify or particular op reads, as in a fresh process."""
    from conespec import boundary, profile, sl
    sl._ritz.cache_clear()
    sl._ritz_forms.cache_clear()
    boundary._pairs.clear()
    profile._solved_profile.cache_clear()


def test_verify_work_count(tmp_path, monkeypatch):
    # verify solves the link spectrum only up to its gap, slicing each mode
    # by its eigenvalues in order and the modes with eigenvalues below d - 1
    # last; each band eigenvalue is read off the Ritz ladder, the
    # eigenfunctions verify identifies are its Legendre series, and the profile
    # is one shot of the kernel (the aperture is a series root): verify in a
    # fresh process makes 1 shot, the profile's, at d = 7, 100 and 200 alike
    from conespec import boundary, kernels, profile, sl
    for d in ("7", "100", "200"):
        _clear_memos()
        shots = []
        with monkeypatch.context() as m:
            for mod in (sl, profile, boundary):
                def counted(*args, _fn=kernels.propagate_band, **kwargs):
                    shots.append(1)
                    return _fn(*args, **kwargs)
                m.setattr(mod, "propagate_band", counted)
            assert run(["verify", "--dim", d, "--out", str(tmp_path / "v.json")]) == 0
        assert len(shots) == 1, (d, len(shots))


# Ritz solves of each spectrum run of benchmarks/same_outputs.py before the
# walk ended modes on the min-max floor: (argv, solves); lambda_max = 5 and 1e6
# are refused
_SPECTRUM_SOLVES = (
    (("--dim", "7", "--lambda-max", "300"), 32),
    (("--dim", "12", "--lambda-max", "300"), 28),
    (("--dim", "3", "--lambda-max", "3000"), 205),
    (("--dim", "7", "--lambda-max", "3000"), 192),
    (("--dim", "7", "--lambda-max", "5"), 0),
    (("--dim", "7", "--lambda-max", "1e6"), 1),
    (("--dim", "7", "--lambda-max", "1e300"), 1),
    (("--dim", "24", "--lambda-max", "500"), 30),
    (("--dim", "10", "--lambda-max", "40"), 10),
    (("--dim", "7", "--lambda-max", "2000"), 139),
    (("--dim", "3", "--lambda-max", "400"), 54),
    (("--config", "grid1024.json", "--dim", "7", "--lambda-max", "300"), 32),
)


def test_ritz_solve_count(tmp_path):
    # a mode ends at the first k whose floor mu + lambda_{0,k} lies past the
    # walk's bound, so the solve that only proved it ended is not made:
    # verify makes 5 Ritz solves where mode 2's odd eigenvalues lie past the
    # gap (d >= 4) and 6 at d = 3, where mu_2 = 4 lies below the gap
    from conespec import sl
    out = str(tmp_path / "o.json")

    def solves(argv):
        _clear_memos()
        run([*argv, "--out", out])
        return sl._ritz.cache_info().misses

    for d, want in (("3", 6), ("7", 5), ("100", 5), ("200", 5)):
        assert solves(["verify", "--dim", d]) == want, d
    assert sum(solves(["verify", "--dim", str(d)]) for d in range(3, 25)) == 111
    (tmp_path / "grid1024.json").write_text(json.dumps({"grid_n": 1024}))
    for argv, parent in _SPECTRUM_SOLVES:
        if argv[0] == "--config":
            argv = (argv[0], str(tmp_path / argv[1]), "spectrum", *argv[2:])
        else:
            argv = ("spectrum", *argv)
        assert solves(argv) <= parent, argv


def test_ladder_skips_rungs_too_small_for_k(tmp_path):
    # a rung of N degrees vouches for at most N/2 - 8 values of a parity, so a
    # rung too small to hold value (k - 1) // 2 is skipped unsolved: at d = 7
    # and mu = 0 (N = 48, 96, ..., 768, 1024) k = 200 takes rung 3 (N = 384)
    # alone, not rungs 0-3, and the refusal of k = 700 solves rungs 4 and 5, not 0-5
    from conespec import sl
    out = str(tmp_path / "o.json")
    for k, code, want in (("200", 0, 1), ("700", 64, 2)):
        _clear_memos()
        assert run(["sl", "--dim", "7", "--mu", "0", "--bc", "robin", "--k", k,
                    "--out", out]) == code
        assert sl._ritz.cache_info().misses == want, k
    _clear_memos()


def test_second_particular_reuses_cone_and_eigenpairs(tmp_path, monkeypatch):
    # ops on one cone share its profile and band eigenpairs: a second particular
    # at the same d shoots no profile and solves no band eigenvalue
    from conespec import profile, sl
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0, "3": -0.5}}))
    argv = ["particular", "--dim", "7", "--beta", "0.7", "--modes", str(modes)]
    assert run(argv + ["--out", str(tmp_path / "a.json")]) == 0
    calls = []

    def counted(*args, _fn=profile.propagate_band):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(profile, "propagate_band", counted)
    misses = sl._ritz.cache_info().misses
    assert run(argv + ["--out", str(tmp_path / "b.json")]) == 0
    assert calls == []
    assert sl._ritz.cache_info().misses == misses
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_particular_reports_do_not_depend_on_warm_memos(tmp_path):
    # ops at one d share the band's Ritz matrices, its eigenvalues and its
    # harmonic pairs: two sources on warm memos report the same bytes as on
    # cleared ones, each source alone and the two back to back
    sources = {"a": ("0.7", {"1": 1.0, "4": -0.5, "5": 0.25}),
               "b": ("0.35", {"2": 0.8, "3": -0.6, "6": 0.4})}

    def report(name, tag):
        beta, coeffs = sources[name]
        modes = tmp_path / f"{name}.json"
        modes.write_text(json.dumps({"coeffs": coeffs}))
        out = tmp_path / f"{name}-{tag}.json"
        argv = ["particular", "--dim", "9", "--beta", beta, "--modes", str(modes)]
        assert run(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    for name in sources:
        report(name, "warm-up")
    warm = {name: report(name, "warm") for name in sources}
    _clear_memos()
    assert {name: report(name, "cold") for name in sources} == warm
    _clear_memos()
    assert report("b", "cold-b") == warm["b"]


@pytest.mark.parametrize("fail_later", [False, True])
def test_verify_solves_every_identified_eigenfunction_first(tmp_path, monkeypatch, capsys,
                                                            fail_later):
    # at d = 7 verify identifies the cluster {(0, 2), (1, 1)} at 0, then (1, 2)
    # at d - 1.  A misfit in the first cluster is an AmbiguousCluster, unless a
    # solve in the later one fails: every eigenfunction is solved before any is
    # checked.  Both exit 2.
    import numpy as np

    from conespec import linkspec
    from conespec.errors import NonConvergent
    solve = linkspec.eigen_k

    def patched(spec, k):
        if spec.mu == 5.0 and k == 2 and fail_later:
            raise NonConvergent("eigenpair (1, 2) failed")
        pair = solve(spec, k)
        if spec.mu == 0.0 and k == 2:
            return dataclasses.replace(pair, fn=pair.fn * np.linspace(0.0, 1.0, pair.fn.size))
        return pair

    monkeypatch.setattr(linkspec, "eigen_k", patched)
    assert run(["verify", "--dim", "7", "--out", str(tmp_path / "v.json")]) == 2
    err = capsys.readouterr().err
    if fail_later:
        assert "eigenpair (1, 2) failed" in err and "cluster" not in err, err
    else:
        assert "eigenvalues cluster at" in err and "source (0, 2)" in err, err


def test_ab_bench_runs():
    # one interleaved round of two copies of this tree on the sweep workload
    root = pathlib.Path(__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, str(root / "benchmarks" / "ab_bench.py"),
                          "--a", str(root / "src"), "--b", str(root / "src"),
                          "--workload", "sweep", "--rounds", "1", "--seed", "3"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert re.search(r"median B/A \d\.\d{4}  B faster in [01] of 1 .* failed ops 0",
                     res.stdout), res.stdout


@pytest.mark.parametrize("config, coeffs, code, message, beta", [
    (None, {}, 64, "invalid input: .*coeffs must name at least one boundary mode", "0.7"),
    ({"r_max": 1e300}, {"1": 1.0}, 2, "numerical error: non-finite radial coefficients",
     "0.7"),
    # the projection reads lambda(0, 8) = 401.3, past what grid_n=192 resolves
    ({"grid_n": 192}, {"1": 1.0}, 64,
     r"invalid input: grid_n=192 is too coarse at d=7: mode \(0, 8\)", "0.7"),
    # r^{1-beta} underflows to 0 on the radial grid: the slope fit takes log 0
    (None, {"1": 1.0}, 2, "numerical error: non-finite particular solution", "400"),
    # the Euler factor (1 - beta)(d - 1 - beta) is inf, and the projection adds inf to -inf
    (None, {"1": 1.0}, 2, "numerical error: non-finite particular solution", "1e300"),
    # grid_n=512 resolves lambda <= 166.3, below lambda(0, 8) = 401.3
    ({"grid_n": 512}, {"1": 1.0}, 64,
     r"invalid input: grid_n=512 is too coarse at d=7: mode \(0, 8\) .* 166\.3", "0.7"),
    # P = 0 at the (0, 4) mode, lambda = 67.4: a resonance past 4d = 28
    (None, {"1": 1.0}, 64,
     r"invalid input: beta=12\.083626228959117 resonates with interior mode \(0, 4\)",
     "12.083626228959117"),
    (None, {"-5": 1.0}, 64, "invalid input: boundary mode index -5 must be >= 1", "0.7"),
    (None, {"0": 1.0}, 64, "invalid input: boundary mode index 0 must be >= 1", "0.7"),
    # "01" and "1" are one index: the second amplitude would silently win
    (None, {"01": 1.0, "1": 2.0}, 64, "invalid input: .*boundary mode index 1 is named twice",
     "0.7"),
    (None, {"3": 1.0, " 3": 1.0}, 64, "invalid input: .*boundary mode index 3 is named twice",
     "0.7"),
    # a key written twice in the JSON text is refused, not read as its last value;
    # a string row is the file's text
    (None, '{"coeffs": {"1": 1.0, "1": 2.0}}', 64,
     "invalid input: key '1' is repeated in one JSON object", "0.7"),
    ('{"grid_n": 64, "grid_n": 1024}', {"1": 1.0}, 64,
     "config error: .*key 'grid_n' is repeated in one JSON object", "0.7"),
    # a key int() cannot read is refused by name, not by int()'s own message
    (None, {"x": 1.0}, 64, "invalid input: boundary mode index 'x' is not an integer", "0.7"),
    (None, {"1": 1.0, "1.5": 2.0}, 64,
     "invalid input: boundary mode index '1.5' is not an integer", "0.7"),
    (None, '{"coeffs": {"1": 1.0', 64, r"invalid input: modes file \S+ is not JSON: Expecting",
     "0.7"),
    # mode 401 needs sphere degree 201, past the enumeration's cap of 200
    (None, {"401": 1.0}, 64, "invalid input: count must be <= 400, got 401", "0.7"),
])
def test_particular_exit_contract(tmp_path, capsys, config, coeffs, code, message, beta):
    modes = tmp_path / "m.json"
    modes.write_text(coeffs if isinstance(coeffs, str) else json.dumps({"coeffs": coeffs}))
    argv = ["particular", "--dim", "7", "--beta", beta, "--modes", str(modes)]
    if config is not None:
        cfgf = tmp_path / "c.json"
        cfgf.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = ["--config", str(cfgf)] + argv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
    captured = capsys.readouterr()
    assert re.search(message, captured.err), captured.err
    assert "Traceback" not in captured.err + captured.out
    # an overflow stops the radial solve at once, without a numpy warning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def test_config_override_and_empty_file(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text('{"grid_n": 8192}')
    out = tmp_path / "cone.json"
    assert run(["--config", str(cfgf), "cone", "--dim", "3",
                "--out", str(out)]) == 0
    body = _read_json(out)
    assert body["config"]["grid_n"] == 8192
    cfgf.write_text("")
    assert run(["--config", str(cfgf), "cone", "--dim", "3",
                "--out", str(out)]) == 0
    assert _read_json(out)["config"]["grid_n"] == 4096


def test_config_env_fallback(tmp_path, monkeypatch):
    cfgf = tmp_path / "env.json"
    cfgf.write_text('{"grid_n": 2048}')
    monkeypatch.setenv("CONESPEC_CONFIG", str(cfgf))
    out = tmp_path / "cone.json"
    assert run(["cone", "--dim", "3", "--out", str(out)]) == 0
    assert _read_json(out)["config"]["grid_n"] == 2048


def test_cone_report_contents(tmp_path):
    out = tmp_path / "cone.json"
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"grid_n": 1024}))
    assert run(["--config", str(cfgf), "cone", "--dim", "7", "--out", str(out)]) == 0
    body = _read_json(out)
    assert body["theta0"] == pytest.approx(THETA0_D7, abs=1e-8)
    assert body["H"] == pytest.approx(5 * math.tan(body["theta0"]), rel=1e-12)
    assert body["config"]["grid_n"] == 1024
    assert body["version"]
    assert "timestamp" not in body


def test_timestamp_flag(tmp_path):
    out = tmp_path / "cone.json"
    assert run(["--timestamp", "cone", "--dim", "3", "--out", str(out)]) == 0
    assert "timestamp" in _read_json(out)


def test_modes_table(tmp_path):
    out = tmp_path / "modes.csv"
    assert run(["modes", "--dim", "7", "--mu-max", "40", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# conespec ")
    assert lines[1] == "ell,mu,multiplicity"
    ells = [int(l.split(",")[0]) for l in lines[2:]]
    assert ells == [0, 1, 2, 3, 4]


def test_sl_single_eigenvalue(tmp_path):
    out = tmp_path / "sl.json"
    assert run(["sl", "--dim", "7", "--mu", "0", "--bc", "robin",
                "--k", "2", "--out", str(out)]) == 0
    body = _read_json(out)
    assert abs(body["lambda"]) <= 1e-7   # translation trace
    assert body["nodes"] == 1
    assert max(abs(r) for r in body["residuals"]) <= 1e-7


def test_spectrum_json_and_csv(tmp_path):
    outj = tmp_path / "spec.json"
    outc = tmp_path / "spec.csv"
    assert run(["spectrum", "--dim", "7", "--lambda-max", "28",
                "--csv", str(outc), "--out", str(outj)]) == 0
    body = _read_json(outj)
    lams = [e["lambda"] for e in body["entries"]]
    assert lams == sorted(lams)
    assert body["lambda1"] == pytest.approx(-5.698402217765498, abs=1e-8)
    lines = outc.read_text().splitlines()
    assert lines[1] == "ell,k,lambda,multiplicity,gamma_plus,gamma_minus"
    assert "np.float64" not in outc.read_text()


def test_boundary_spectrum_table(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["boundary-spectrum", "--dim", "7", "--count", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "ell,parity,ell_k"
    assert len(lines) == 8
    first = lines[2].split(",")
    assert (first[0], first[1]) == ("0", "even")


def test_particular_report(tmp_path):
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0, "3": 2.0}}))
    out = tmp_path / "p.json"
    assert run(["particular", "--dim", "7", "--beta", "0.7",
                "--modes", str(modes), "--out", str(out)]) == 0
    body = _read_json(out)
    assert body["interior_residual"] <= 1e-6
    assert body["boundary_residual"] <= 1e-6
    assert body["slope"] <= 0.35


def test_particular_steep_beta_residual(tmp_path):
    # at beta = 4.2 the rows are steep powers r^{-5.2}; the reported residual
    # is that of the closed-form solution, not of a quadrature stencil
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0, "3": -0.5, "5": 0.25}}))
    out = tmp_path / "p.json"
    assert run(["particular", "--dim", "7", "--beta", "4.2",
                "--modes", str(modes), "--out", str(out)]) == 0
    assert _read_json(out)["interior_residual"] <= 1e-6


def test_particular_resonance_off_the_source_degrees(tmp_path):
    # beta resonates with the (3, 1) mode only; the degree 0 source does not
    # couple to sphere degree 3, so the solve goes through
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0}}))
    out = tmp_path / "p.json"
    beta = 8.435827770124497
    assert run(["particular", "--dim", "7", "--beta", repr(beta),
                "--modes", str(modes), "--out", str(out)]) == 0
    body = _read_json(out)
    assert body["interior_residual"] <= 1e-6
    assert body["boundary_residual"] <= 1e-6
    assert body["slope"] <= 1 - beta + 0.05
    assert {m["source"][0] for m in body["per_mode"]} == {0}


@pytest.mark.parametrize("beta", [1.0, 2.7573037579440527])
def test_particular_resonant_beta_is_invalid_input(tmp_path, capsys, beta):
    # beta = d/2 - delta of the lambda = 0 modes, and beta inside the
    # resonance window of the (0, 1) mode: solve_radial_modes refuses both, so the
    # input is at fault, not the computation
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0}}))
    assert run(["particular", "--dim", "7", "--beta", repr(beta),
                "--modes", str(modes)]) == 64
    err = capsys.readouterr().err
    assert "invalid input" in err and f"beta={beta!r}" in err, err


def test_weiss_field_kinds(tmp_path):
    field = tmp_path / "f.json"
    out = tmp_path / "w.json"
    field.write_text(json.dumps({"kind": "power", "exponent": 1.0}))
    assert run(["weiss", "--dim", "7", "--field", str(field),
                "--radii", "0.5,1,2", "--out", str(out)]) == 0
    body = _read_json(out)
    assert len(body["W"]) == 3
    assert max(body["W"]) - min(body["W"]) <= 1e-8
    field.write_text(json.dumps({"kind": "marzipan"}))
    assert run(["weiss", "--dim", "7", "--field", str(field),
                "--radii", "1"]) == 64
    field.write_text(json.dumps({"kind": "cone"}))
    assert run(["weiss", "--dim", "7", "--field", str(field),
                "--radii", ""]) == 64


def test_criticality_verdict(tmp_path):
    out = tmp_path / "c.json"
    assert run(["criticality", "--dim", "7", "--out", str(out)]) == 0
    body = _read_json(out)
    assert body["verdict"] is True
    assert body["relative"] <= 1e-5


def test_report_dims_parsing_and_determinism(tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run(["report", "--dims", "3,5", "--out", str(out1)]) == 0
    lines = out1.read_text().splitlines()
    assert [l.split(",")[0] for l in lines[2:]] == ["3", "5"]
    assert run(["report", "--dims", "3,5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "np.float64" not in out1.read_text()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


_FILES = {
    "cone": '{"kind": "cone"}',
    "list": "[1, 2]",
    "modes": '{"coeffs": {"1": 1.0}}',
    "no_coeffs": '{"beta": 0.7}',
    "nan_amp": '{"coeffs": {"1": NaN}}',
    "list_exp": '{"kind": "power", "exponent": [1.3]}',
    "dup_coeffs": '{"coeffs": {"1": 1.0}, "coeffs": {"1": 2.0}}',
    "dup_amp": '{"coeffs": {"1": 1.0, "1": 2.0}}',
    "dup_field": '{"kind": "power", "exponent": 1.0, "exponent": 2.0}',
    "dup_config": '{"grid_n": 64, "grid_n": 1024}',
    "cut_field": '{"kind": "cone"',
}


# rows that hung or died with a traceback before the flags were validated run
# in a child process with a timeout; the rest run in-process through run()
_IN_CHILD = {"modes --dim 7 --mu-max nan", "modes --dim 7 --mu-max inf",
             "modes --dim 7 --mu-max 1e300", "criticality --dim 7 --eps 0"}


@pytest.mark.parametrize("argv, code, message", [
    ("modes --dim 7 --mu-max nan", 64, "--mu-max: 'nan' is not finite"),
    ("modes --dim 7 --mu-max inf", 64, "--mu-max: 'inf' is not finite"),
    ("modes --dim 7 --mu-max=-inf", 64, "not finite"),
    ("modes --dim 7 --mu-max 1e300", 64, "reaches past sphere degree 100000"),
    ("criticality --dim 7 --eps 0", 64, "--eps: '0' is not positive"),
    ("criticality --dim 7 --eps=-1e-4", 64, "is not positive"),
    ("criticality --dim 7 --eps nan", 64, "is not finite"),
    ("criticality --dim 7 --eps 1e-17", 64, "--eps 1e-17 does not move the half-width"),
    # below eps = 3.5e-7 the eigenvalue tolerance 1e-10 alone moves |dF/deps| / F by 1e-5
    ("criticality --dim 7 --eps 1e-8", 64, "--eps 1e-08 is below the noise floor 3.53e-07"),
    ("criticality --dim 7 --eps 1e-10", 64, "--eps 1e-10 is below the noise floor"),
    ("particular --dim 7 --beta nan --modes @modes", 64, "--beta: 'nan' is not finite"),
    ("particular --dim 7 --beta=-inf --modes @modes", 64, "not finite"),
    ("sl --dim 7 --mu nan --bc robin --k 1", 64, "--mu: 'nan' is not finite"),
    ("sl --dim 7 --mu inf --bc robin --k 1", 64, "not finite"),
    # no rung of the Ritz ladder vouches for any eigenvalue at these mu
    ("sl --dim 7 --mu 1e12 --bc robin --k 1", 64,
     "invalid input: eigenvalue k=1 at mu=1e+12 is past the Ritz ladder"),
    ("sl --dim 7 --mu 1e300 --bc robin --k 1", 64,
     "invalid input: eigenvalue k=1 at mu=1e+300 is past the Ritz ladder"),
    ("spectrum --dim 7 --lambda-max nan", 64, "--lambda-max: 'nan' is not finite"),
    ("spectrum --dim 7 --lambda-max inf", 64, "not finite"),
    ("spectrum --dim 7 --lambda-max 1e300", 64, "invalid input: lambda_max=1e+300 needs"),
    ("spectrum --dim 7 --lambda-max 1e6", 64, "invalid input: lambda_max=1e+06 is past"),
    ("weiss --dim 7 --field @cone --radii 1,nan", 64, "--radii: 'nan' is not finite"),
    ("weiss --dim 7 --field @cone --radii inf", 64, "not finite"),
    ("weiss --dim 7 --field @cone --radii 0", 64, "--radii: '0' is not positive"),
    ("weiss --dim 7 --field @cone --radii 1,-2", 64, "is not positive"),
    ("report --dims 10..3", 64, "--dims: '10..3' names no dimension"),
    ("report --dims 3..x", 64, "is not a dimension list"),
    ("boundary-spectrum --dim 7 --count 0", 64, "invalid input: count must be >= 1"),
    ("particular --dim 7 --beta 0.7 --modes @list", 64, "modes file must hold a JSON object"),
    ("weiss --dim 7 --field @list --radii 1", 64, "field file must hold a JSON object"),
    ("particular --dim 7 --beta 0.7 --modes @no_coeffs", 64,
     'modes file must contain a "coeffs" object'),
    ("particular --dim 7 --beta 0.7 --modes @nan_amp", 64, "must be a finite number"),
    ("weiss --dim 7 --field @list_exp --radii 1", 64, "field exponent must be a finite"),
    ("weiss --dim 7 --field @cone --radii 1e300", 2, "numerical error: non-finite Weiss"),
    ("weiss --dim 7 --field @cone --radii 0.5,2", 0, None),
    ("weiss --dim 7 --field @cone --radii 0.5,2 --out @out", 0, None),
    ("particular --dim 7 --beta 0.7 --modes @dup_coeffs", 64,
     "invalid input: key 'coeffs' is repeated in one JSON object"),
    ("particular --dim 7 --beta 0.7 --modes @dup_amp", 64, "key '1' is repeated"),
    ("weiss --dim 7 --field @dup_field --radii 1", 64,
     "invalid input: key 'exponent' is repeated in one JSON object"),
    ("--config @dup_config cone --dim 7", 64,
     "dup_config.json: key 'grid_n' is repeated in one JSON object"),
    ("weiss --dim 7 --field @cut_field --radii 1", 64, "invalid input: field file"),
    ("boundary-spectrum --dim 7 --count 401", 64,
     "invalid input: count must be <= 400, got 401: boundary modes are enumerated up to "
     "sphere degree 200"),
    # r^60 under- and overflows here, but W of the cone does not depend on r
    ("weiss --dim 60 --field @cone --radii 1e-6,1e6", 0, None),
    # k = 700 lies past the top rung of the Ritz ladder; k = 200 is on its rung 3
    ("sl --dim 7 --mu 0 --bc robin --k 700", 64,
     "invalid input: eigenvalue k=700 at mu=0 is past the Ritz ladder: no basis of up to "
     "N=1024 Legendre degrees resolves it"),
    ("sl --dim 7 --mu 0 --bc robin --k 200", 0, None),
])
def test_cli_exit_contract(tmp_path, capsys, argv, code, message):
    # every rejected input exits cleanly (64 bad input, 2 numerical failure),
    # never with a traceback, a numpy warning or a non-JSON number
    args = []
    for tok in argv.split():
        if tok.startswith("@"):
            path = tmp_path / f"{tok[1:]}.json"
            if tok[1:] in _FILES:
                path.write_text(_FILES[tok[1:]])
            tok = str(path)
        args.append(tok)
    if argv in _IN_CHILD:
        res = subprocess.run([sys.executable, "-m", "conespec"] + args,
                             capture_output=True, text=True, timeout=120)
        rc, out, err, caught = res.returncode, res.stdout, res.stderr, []
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(args)
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
    assert rc == code, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert not caught, [str(w.message) for w in caught]
    if message is not None:
        assert message in err, err
    if code == 0:
        body = _strict_json((tmp_path / "out.json").read_text() if "--out" in args else out)
        if args[0] == "weiss":
            assert len(body["W"]) == 2


@pytest.mark.parametrize("dim", ["3", "7", "24"])
def test_boundary_mode_count_limit(tmp_path, capsys, dim):
    # two modes per sphere degree 0..199 are enumerated in order; one more is refused
    out = tmp_path / "b.csv"
    assert run(["boundary-spectrum", "--dim", dim, "--count", "400", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 400
    assert run(["boundary-spectrum", "--dim", dim, "--count", "401"]) == 64
    assert "invalid input: count must be <= 400" in capsys.readouterr().err


def test_internal_value_error_is_numerical(monkeypatch, capsys):
    # a ValueError not raised as an input check is a fault of the computation: exit 2
    def boom(p, cfg):
        raise ValueError("boom")
    monkeypatch.setattr(conespec.cli, "verify_strong_integrability", boom)
    assert run(["verify", "--dim", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical error: boom\n"
    assert captured.out == ""


def test_json_report_rejects_non_finite_values():
    from conespec.cli import _json_report
    with pytest.raises(NonFiniteResult):
        _json_report({"W": [float("nan")]}, SolverConfig(), False)
    assert _strict_json(_json_report({"W": [1.0]}, SolverConfig(), False))["W"] == [1.0]
