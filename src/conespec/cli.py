"""Command-line front end: reproducible JSON/CSV reports over all solvers.

Exit codes: 0 success, 1 mathematical verdict false (e.g. instability in low
dimensions — a *result*, not a failure), 2 numerical error, 64 usage error.
Reports embed the active config and package version; no timestamps unless
--timestamp is passed, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

from ._version import __version__
from .boundary import boundary_modes
from .config import load_config
from .errors import (ConfigError, NonFiniteResult, NumericalError, ResonantExponent,
                     UsageError)
from .linkspec import link_spectrum, verify_strong_integrability
from .profile import solve_profile
from .radial import build_up, make_source
from .sl import _LAM_TOL, band_spec, eigen_k
from .spheremodes import modes_up_to
from .weiss import (F_functional, _kappa0_sq, cone_field, halfplane_field, perturbed_field,
                    power_field, weiss_report)

_CRITICALITY_REL = 1e-5  # stationarity verdict threshold |dF/deps| / F


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return val


def _positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    val = _finite(text)
    if not val > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return val


def _radii(text: str) -> list[float]:
    """argparse type: a non-empty comma-separated list of finite radii > 0."""
    radii = [_positive(t) for t in text.split(",") if t]
    if not radii:
        raise argparse.ArgumentTypeError("at least one radius is required")
    return radii


def _dims(text: str) -> list[int]:
    """argparse type: "3..10" (inclusive range) or "3,5,7"; never empty."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a dimension list") from None
    if not dims:
        raise argparse.ArgumentTypeError(f"{text!r} names no dimension")
    return dims


@functools.cache  # one parser per process; run() may be called many times
def _build_parser() -> _Parser:
    ap = _Parser(prog="conespec", description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="JSON config file (else $CONESPEC_CONFIG)")
    ap.add_argument("--timestamp", action="store_true",
                    help="embed a wall-clock timestamp (breaks determinism)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cone", help="solve the cone profile")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("modes", help="sphere-harmonic mode table")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--mu-max", type=_finite, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("sl", help="one band eigenvalue")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--mu", type=_finite, required=True)
    sp.add_argument("--bc", choices=("robin", "dirichlet"), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("spectrum", help="interior link spectrum")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--lambda-max", type=_finite, required=True)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="strong-integrability verdict")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("boundary-spectrum", help="boundary Robin spectrum")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("particular", help="decaying particular solution")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--beta", type=_finite, required=True)
    sp.add_argument("--modes", required=True,
                    help='JSON file {"coeffs": {"<mode index>": amplitude}}')
    sp.add_argument("--out")

    sp = sub.add_parser("weiss", help="Weiss energy along radii")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--field", required=True,
                    help='JSON file {"kind": cone|halfplane|power|perturbed, ...}')
    sp.add_argument("--radii", type=_radii, required=True, help="comma-separated radii")
    sp.add_argument("--out")

    sp = sub.add_parser("criticality", help="stationarity of the aperture functional")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--eps", type=_positive, default=1e-4)
    sp.add_argument("--out")

    sp = sub.add_parser("report", help="summary table over dimensions")
    sp.add_argument("--dims", type=_dims, required=True, help='"3..10" or "3,5,7"')
    sp.add_argument("--out")
    return ap


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict, cfg, stamp: bool) -> str:
    payload = dict(payload)
    payload["config"] = dataclasses.asdict(cfg)
    payload["version"] = __version__
    if stamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteResult("the report holds a non-finite value") from None


def _load_object(path: str, what: str) -> dict:
    """A JSON file whose top level must be an object."""
    with open(path) as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise UsageError(f"{what} file must hold a JSON object, got {type(body).__name__}")
    return body


def _number(value, what: str) -> float:
    """A finite JSON number read from an input file."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise UsageError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# conespec {__version__}\n")
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for row in rows:
        wr.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _spectrum_dict(spec) -> dict:
    return {
        "dim": spec.dim, "theta0": spec.theta0, "H": spec.H,
        "lambda_max": spec.lambda_max, "lambda1": spec.lambda1,
        "entries": [{
            "lambda": e.lam, "multiplicity": e.multiplicity,
            "source": list(e.source), "delta": e.delta,
            "gamma_plus": e.gamma_plus, "gamma_minus": e.gamma_minus,
            "log_mode": e.log_mode, "complex_radicand": e.complex_radicand,
        } for e in spec.entries]}


def _field_from_spec(spec: dict, p):
    kind = spec.get("kind")
    if kind == "cone":
        return cone_field(p)
    if kind == "halfplane":
        return halfplane_field(p.dim)
    if kind == "power":
        return power_field(p, _number(spec.get("exponent"), "field exponent"))
    if kind == "perturbed":
        k = spec.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int):
            raise UsageError(f"field k must be an integer, got {k!r}")
        return perturbed_field(p, _number(spec.get("eps"), "field eps"),
                               _number(spec.get("exponent"), "field exponent"), k)
    raise UsageError(f"unknown field kind {kind!r}")


def _dispatch(args, cfg) -> int:
    stamp = args.timestamp

    if args.command == "cone":
        p = solve_profile(args.dim, cfg)
        _emit(_json_report(p.to_dict(), cfg, stamp), args.out)
        return 0

    if args.command == "modes":
        rows = [(m.ell, m.mu, m.multiplicity)
                for m in modes_up_to(args.dim, args.mu_max)]
        _emit(_csv_table(("ell", "mu", "multiplicity"), rows), args.out)
        return 0

    if args.command == "sl":
        p = solve_profile(args.dim, cfg)
        pair = eigen_k(band_spec(p, args.mu, args.bc), args.k)
        body = {"lambda": pair.lam, "nodes": pair.nodes,
                "residuals": list(pair.bc_residual)}
        _emit(_json_report(body, cfg, stamp), args.out)
        return 0

    if args.command == "spectrum":
        p = solve_profile(args.dim, cfg)
        spec = link_spectrum(p, args.lambda_max)
        if args.csv:
            rows = [(e.source[0], e.source[1], e.lam, e.multiplicity,
                     e.gamma_plus, e.gamma_minus) for e in spec.entries]
            _emit(_csv_table(("ell", "k", "lambda", "multiplicity",
                              "gamma_plus", "gamma_minus"), rows), args.csv)
        _emit(_json_report(_spectrum_dict(spec), cfg, stamp), args.out)
        return 0

    if args.command == "verify":
        p = solve_profile(args.dim, cfg)
        rep = verify_strong_integrability(p, cfg)
        _emit(_json_report(rep.to_dict(), cfg, stamp), args.out)
        return 0 if rep.verdict else 1

    if args.command == "boundary-spectrum":
        p = solve_profile(args.dim, cfg)
        rows = [(m.ell, m.parity, m.ell_k)
                for m in boundary_modes(p, args.count)]
        _emit(_csv_table(("ell", "parity", "ell_k"), rows), args.out)
        return 0

    if args.command == "particular":
        mspec = _load_object(args.modes, "modes")
        if not isinstance(mspec.get("coeffs"), dict):
            raise UsageError('modes file must contain a "coeffs" object')
        coeffs = {int(k): _number(v, f"amplitude of mode {k}")
                  for k, v in mspec["coeffs"].items()}
        if not coeffs:
            raise ValueError(f"{args.modes}: coeffs must name at least one boundary mode")
        src = make_source(args.beta, coeffs)
        p = solve_profile(args.dim, cfg)
        _, rep = build_up(src, p, boundary_modes(p, max(coeffs)), cfg)
        _emit(_json_report(rep.to_dict(), cfg, stamp), args.out)
        return 0

    if args.command == "weiss":
        fspec = _load_object(args.field, "field")
        p = solve_profile(args.dim, cfg)
        u = _field_from_spec(fspec, p)
        rep = weiss_report(u, args.radii)
        _emit(_json_report(rep.to_dict(), cfg, stamp), args.out)
        return 0

    if args.command == "criticality":
        p = solve_profile(args.dim, cfg)
        eps = args.eps
        # a step that rounds away leaves a difference quotient of 0 by construction
        if p.theta0 + eps == p.theta0 or p.theta0 - eps == p.theta0:
            raise UsageError(f"--eps {eps!r} does not move the half-width "
                             f"theta0 = {p.theta0!r}")
        f0 = F_functional(p.theta0, p, args.dim)
        # F moves by kappa0^2 / d times the error of its Dirichlet eigenvalue, good
        # to _LAM_TOL: below this eps that error alone can decide the verdict
        floor = _kappa0_sq(p) * _LAM_TOL / (args.dim * _CRITICALITY_REL * abs(f0))
        if eps < floor:
            raise UsageError(f"--eps {eps!r} is below the noise floor {floor:.3g} set by "
                             f"the eigenvalue tolerance {_LAM_TOL:g}")
        df = (F_functional(p.theta0 + eps, p, args.dim)
              - F_functional(p.theta0 - eps, p, args.dim)) / (2 * eps)
        rel = abs(df) / abs(f0)
        body = {"F": f0, "dF_deps": df, "relative": rel,
                "verdict": rel <= _CRITICALITY_REL}
        _emit(_json_report(body, cfg, stamp), args.out)
        return 0 if body["verdict"] else 1

    if args.command == "report":
        rows = []
        for d in args.dims:
            p = solve_profile(d, cfg)
            rep = verify_strong_integrability(p, cfg)
            rows.append((d, p.theta0, p.H, rep.lambda1,
                         str(rep.strictly_stable).lower(), rep.dim_kernel0,
                         rep.dim_kernel_d_minus_1, rep.gap_above))
        _emit(_csv_table(("d", "theta0", "H", "lambda1", "stable",
                          "kernel0", "kernel_d1", "gap"), rows), args.out)
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def run(argv) -> int:
    """Parse argv (program name excluded) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else load_config()
        return _dispatch(args, cfg)
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return 0 if code is None else int(code)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except (ValueError, OSError, ResonantExponent) as exc:  # a resonant beta is bad input
        print(f"invalid input: {exc}", file=sys.stderr)
        return 64
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
