"""Byte-for-byte comparison of the CLI outputs of two conespec source trees.

Runs one fixed list of CLI invocations, each in a fresh single-threaded
process with ``$CONESPEC_CONFIG`` unset, on both trees, and compares each
pair's exit code, stdout and stderr.  It prints one line per run and exits 1 if any run differs;
when the two stdouts of a differing run both parse as JSON or CSV, the line
after it names the numeric field that moved most, relative to max(1, |a|).  The
list covers every command that reads the link spectrum, the profile, the
boundary modes or the Weiss energy, including the refusals of
``spectrum``, of a band eigenvalue past the Ritz ladder's top rung (two: one
past the values it vouches for, one on a band where it vouches for none), of a
boundary-mode count past the enumeration's cap and of a modes file with a
non-integer key or cut-off JSON, and runs ``verify``,
``particular``, ``criticality`` and ``weiss`` once more under a ``--config``
file, ``weiss`` on each of the four field kinds and once over 41 radii; the
input files are written to one temporary directory that both trees read.

    python3 benchmarks/same_outputs.py --a OLD/src --b NEW/src

``--a`` and ``--b`` name a directory holding the ``conespec`` package (a
checkout's ``src/``).
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

FILES = {
    "modes.json": {"coeffs": {"1": 1.0, "3": -0.5, "5": 0.25}},
    # sphere degrees 0, 1 and 2, the mix of perfbench's particular ops
    "modes145.json": {"coeffs": {"1": 1.0, "4": -0.5, "5": 0.25}},
    # perfbench's other mix, holding both resonant modes
    "modes236.json": {"coeffs": {"2": 1.0, "3": -0.5, "6": 0.25}},
    "cone.json": {"kind": "cone"},
    "perturbed.json": {"kind": "perturbed", "eps": 0.01, "exponent": 1.5},
    "power.json": {"kind": "power", "exponent": 1.4},
    "halfplane.json": {"kind": "halfplane"},
    "grid1024.json": {"grid_n": 1024},
    "modes_x.json": {"coeffs": {"1": 1.0, "x": 0.5}},
    # a string is the file's text
    "modes_cut.json": '{"coeffs": {"1": 1.0',
}

RUNS = (
    # the full g and g' arrays at the widest (d = 3) and narrowest (d = 24) apertures
    # of the verify sweep, and at d = 7
    *(["cone", "--dim", d] for d in ("3", "7", "24")),
    ["sl", "--dim", "7", "--mu", "12", "--bc", "robin", "--k", "3"],
    ["sl", "--dim", "7", "--mu", "3e6", "--bc", "robin", "--k", "17"],
    # the Ritz solve vouches for lambda_4, but its series fails the node check: a shot
    ["sl", "--dim", "7", "--mu", "1e7", "--bc", "robin", "--k", "4"],
    # the edge of the Ritz tolerance: the bottom rung refuses lambda_8 and rung 1 answers
    ["sl", "--dim", "3", "--mu", "500", "--bc", "dirichlet", "--k", "8"],
    # lambda_200 on rung 3 of the Ritz ladder (N = 384), and k = 700 past its top: exit 64
    ["sl", "--dim", "7", "--mu", "0", "--bc", "robin", "--k", "200"],
    ["sl", "--dim", "7", "--mu", "0", "--bc", "robin", "--k", "700"],
    # no rung of the ladder vouches for any eigenvalue at this mu: exit 64
    ["sl", "--dim", "7", "--mu", "1e12", "--bc", "robin", "--k", "1"],
    ["sl", "--dim", "12", "--mu", "0", "--bc", "dirichlet", "--k", "2"],
    # the highest k that particular projects on, where normalizing a series on its
    # coefficients instead of by Simpson on the grid moves it most
    ["sl", "--dim", "7", "--mu", "0", "--bc", "robin", "--k", "8"],
    ["report", "--dims", "3..12"],
    *(["verify", "--dim", d] for d in ("3", "7", "12", "24")),
    # large d, where the walk once shot counts within a margin of a Ritz value
    *(["verify", "--dim", d] for d in ("100", "200")),
    ["spectrum", "--dim", "7", "--lambda-max", "300"],
    ["spectrum", "--dim", "12", "--lambda-max", "300"],
    ["spectrum", "--dim", "3", "--lambda-max", "3000"],
    ["spectrum", "--dim", "7", "--lambda-max", "3000"],
    ["spectrum", "--dim", "7", "--lambda-max", "5"],
    ["spectrum", "--dim", "7", "--lambda-max", "1e6"],
    ["spectrum", "--dim", "7", "--lambda-max", "1e300"],
    ["boundary-spectrum", "--dim", "7", "--count", "8"],
    # sphere degrees up to 19, where the even/odd Wronskian's two products reach 1e19
    ["boundary-spectrum", "--dim", "3", "--count", "40"],
    # mode 401 needs sphere degree 201, past the enumeration's cap: exit 64
    ["boundary-spectrum", "--dim", "7", "--count", "401"],
    *(["particular", "--dim", d, "--beta", "0.7", "--modes", "modes.json"]
      for d in ("7", "10", "12")),
    *(["particular", "--dim", d, "--beta", "0.7", "--modes", "modes145.json"]
      for d in ("7", "12")),
    *(["particular", "--dim", d, "--beta", "0.7", "--modes", "modes236.json"]
      for d in ("7", "10")),
    # P and Q are both negative on the two lowest modes: both limits at infinity
    ["particular", "--dim", "7", "--beta", "6.5", "--modes", "modes.json"],
    # the complex ground mode at d = 3 has no real radial solve: exit 2
    ["particular", "--dim", "3", "--beta", "0.7", "--modes", "modes.json"],
    # a key that is not an integer, and a file that is not JSON: exit 64
    ["particular", "--dim", "7", "--beta", "0.7", "--modes", "modes_x.json"],
    ["particular", "--dim", "7", "--beta", "0.7", "--modes", "modes_cut.json"],
    ["weiss", "--dim", "7", "--field", "cone.json", "--radii", "0.5,1,2"],
    ["weiss", "--dim", "7", "--field", "perturbed.json", "--radii", "0.5,1,2"],
    ["criticality", "--dim", "7"],
    ["--config", "grid1024.json", "verify", "--dim", "7"],
    ["--config", "grid1024.json", "particular", "--dim", "7", "--beta", "0.7",
     "--modes", "modes.json"],
    ["--config", "grid1024.json", "criticality", "--dim", "7"],
    # counts read off the vouched Ritz values on a wide cone, a narrow one and a
    # coarse grid
    ["verify", "--dim", "40"],
    ["spectrum", "--dim", "24", "--lambda-max", "500"],
    ["--config", "grid1024.json", "spectrum", "--dim", "7", "--lambda-max", "300"],
    # the walk ends a mode on its floor mu + lambda_{0,k} without solving its
    # last eigenvalue: mode 2's odd ones past verify's gap at d = 4, and modes
    # past lambda_max in assemble
    ["verify", "--dim", "4"],
    ["spectrum", "--dim", "10", "--lambda-max", "40"],
    ["spectrum", "--dim", "7", "--lambda-max", "2000"],
    ["spectrum", "--dim", "3", "--lambda-max", "400"],
    ["weiss", "--dim", "12", "--field", "power.json", "--radii", "0.5,1,2"],
    ["weiss", "--dim", "12", "--field", "halfplane.json", "--radii", "0.5,1,2"],
    # r^60 under- and overflows at both ends; W of the cone is the same at every r
    ["weiss", "--dim", "60", "--field", "cone.json", "--radii", "1e-6,1,1e6"],
    ["--config", "grid1024.json", "weiss", "--dim", "7", "--field", "perturbed.json",
     "--radii", "0.5,1,2"],
    # 41 radii from 0.25 to 4 at ratio 2^(1/10): three blocks of the report's
    # sampling, a two-component field
    ["weiss", "--dim", "9", "--field", "perturbed.json",
     "--radii", ",".join(f"{0.25 * 2 ** (i / 10):.6g}" for i in range(41))],
)


def run_cli(tree, argv, workdir):
    """(exit code, stdout, stderr) of ``python -m conespec argv`` on ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "CONESPEC_CONFIG"}
    env["PYTHONPATH"] = os.path.abspath(tree)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "conespec", *argv], cwd=workdir,
                          env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def numeric_fields(text):
    """{path: value} of every numeric field of a JSON or CSV stdout, or None.

    CSV comment lines (``#``) are skipped, and a CSV row is keyed by its index
    and column name; JSON paths join keys and list indices with dots.
    """
    try:
        body = json.loads(text)
    except ValueError:
        lines = [line for line in text.decode(errors="replace").splitlines()
                 if not line.startswith("#")]
        rows = list(csv.reader(lines))
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            return None
        body = [dict(zip(rows[0], row)) for row in rows[1:]]
    fields = {}

    def walk(node, path):
        if isinstance(node, (dict, list)):
            for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(value, f"{path}.{key}" if path else str(key))
            return
        try:
            fields[path] = float(node)  # CSV cells are strings
        except (TypeError, ValueError):
            pass

    walk(body, "")
    return fields


def largest_move(out_a, out_b):
    """Text naming the common numeric field of two stdouts that moved most
    relative to max(1, |a|), or None if either is neither JSON nor CSV."""
    a, b = numeric_fields(out_a), numeric_fields(out_b)
    if a is None or b is None:
        return None
    moves = []
    for path in a.keys() & b.keys():
        x, y = a[path], b[path]
        if x != y and not (math.isnan(x) and math.isnan(y)):
            rel = abs(y - x) / max(1.0, abs(x))
            moves.append((math.inf if math.isnan(rel) else rel, path, x, y))
    if not moves:
        return "no numeric field moved"
    rel, path, x, y = max(moves)
    return f"largest move {path}: {x!r} -> {y!r} ({rel:.2g} of max(1, |a|))"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline source tree")
    ap.add_argument("--b", required=True, help="candidate source tree")
    args = ap.parse_args(argv)
    for tree in (args.a, args.b):
        if not os.path.isfile(os.path.join(tree, "conespec", "__init__.py")):
            ap.error(f"no conespec package under {tree}")

    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for name, body in FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(body if isinstance(body, str) else json.dumps(body))
        for cli_argv in RUNS:
            a = run_cli(args.a, cli_argv, tmp)
            b = run_cli(args.b, cli_argv, tmp)
            same = a == b
            differ += not same
            what = (f"exit {a[0]}, stdout {len(a[1])} B, stderr {len(a[2])} B" if same else
                    f"exit {a[0]} -> {b[0]}, stdout {'same' if a[1] == b[1] else 'differs'}, "
                    f"stderr {'same' if a[2] == b[2] else 'differs'}")
            print(f"{'same' if same else 'DIFF':<5} {' '.join(cli_argv):<78} {what}")
            move = None if a[1] == b[1] else largest_move(a[1], b[1])
            if move:
                print(f"{'':<6}{move}")
    print(f"{len(RUNS) - differ} of {len(RUNS)} runs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
