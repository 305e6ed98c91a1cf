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
    # and, up to d = 200, without a numpy overflow warning from the profile hunt
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


def test_verify_work_count(tmp_path, monkeypatch):
    # each band eigenvalue is solved once, from a seeded and validated
    # bracket whose validating shots are Brent's endpoints, and the aperture
    # is a Brent root: verify --dim 7 in a fresh process needs at most 75 shots
    from conespec import boundary, kernels, profile, sl
    sl._eigenvalue.cache_clear()
    sl._seeds.cache_clear()
    shots = []
    for mod in (sl, profile, boundary):
        for name in ("propagate_band", "propagate_band_end"):
            if hasattr(mod, name):
                def counted(*args, _fn=getattr(kernels, name), **kwargs):
                    shots.append(1)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
    assert run(["verify", "--dim", "7", "--out", str(tmp_path / "v.json")]) == 0
    assert 0 < len(shots) <= 75, len(shots)


@pytest.mark.parametrize("config, coeffs, code, message", [
    (None, {}, 64, "invalid input: .*coeffs must name at least one boundary mode"),
    ({"r_max": 1e300}, {"1": 1.0}, 2, "numerical error: non-finite radial coefficients"),
])
def test_particular_exit_contract(tmp_path, capsys, config, coeffs, code, message):
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": coeffs}))
    argv = ["particular", "--dim", "7", "--beta", "0.7", "--modes", str(modes)]
    if config is not None:
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(config))
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


def test_particular_resonant_beta_is_numerical_error(tmp_path, capsys):
    modes = tmp_path / "m.json"
    modes.write_text(json.dumps({"coeffs": {"1": 1.0}}))
    assert run(["particular", "--dim", "7", "--beta", "1.0",
                "--modes", str(modes)]) == 2
    assert "numerical error" in capsys.readouterr().err


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
    ("particular --dim 7 --beta nan --modes @modes", 64, "--beta: 'nan' is not finite"),
    ("particular --dim 7 --beta=-inf --modes @modes", 64, "not finite"),
    ("sl --dim 7 --mu nan --bc robin --k 1", 64, "--mu: 'nan' is not finite"),
    ("sl --dim 7 --mu inf --bc robin --k 1", 64, "not finite"),
    ("sl --dim 7 --mu 1e12 --bc robin --k 1", 2, "numerical error: non-finite band shot"),
    ("sl --dim 7 --mu 1e300 --bc robin --k 1", 2, "numerical error: non-finite band shot"),
    ("spectrum --dim 7 --lambda-max nan", 64, "--lambda-max: 'nan' is not finite"),
    ("spectrum --dim 7 --lambda-max inf", 64, "not finite"),
    ("weiss --dim 7 --field @cone --radii 1,nan", 64, "--radii: 'nan' is not finite"),
    ("weiss --dim 7 --field @cone --radii inf", 64, "not finite"),
    ("weiss --dim 7 --field @cone --radii 0", 64, "--radii: '0' is not positive"),
    ("weiss --dim 7 --field @cone --radii 1,-2", 64, "is not positive"),
    ("report --dims 10..3", 64, "--dims: '10..3' names no dimension"),
    ("report --dims 3..x", 64, "is not a dimension list"),
    ("particular --dim 7 --beta 0.7 --modes @list", 64, "modes file must hold a JSON object"),
    ("weiss --dim 7 --field @list --radii 1", 64, "field file must hold a JSON object"),
    ("particular --dim 7 --beta 0.7 --modes @no_coeffs", 64,
     'modes file must contain a "coeffs" object'),
    ("particular --dim 7 --beta 0.7 --modes @nan_amp", 64, "must be a finite number"),
    ("weiss --dim 7 --field @list_exp --radii 1", 64, "field exponent must be a finite"),
    ("weiss --dim 7 --field @cone --radii 1e300", 2, "numerical error: non-finite Weiss"),
    ("weiss --dim 7 --field @cone --radii 0.5,2", 0, None),
    ("weiss --dim 7 --field @cone --radii 0.5,2 --out @out", 0, None),
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
        assert len(body["W"]) == 2


def test_json_report_rejects_non_finite_values():
    from conespec.cli import _json_report
    with pytest.raises(NonFiniteResult):
        _json_report({"W": [float("nan")]}, SolverConfig(), False)
    assert _strict_json(_json_report({"W": [1.0]}, SolverConfig(), False))["W"] == [1.0]
