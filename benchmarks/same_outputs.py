"""Byte-for-byte comparison of the CLI outputs of two conespec source trees.

Runs one fixed list of CLI invocations, each in a fresh single-threaded
process with ``$CONESPEC_CONFIG`` unset, on both trees, and compares each
pair's exit code, stdout and stderr.  It prints one line per run and exits 1 if any run differs.  The
list covers every command that reads the link spectrum, the profile, the
boundary modes or the Weiss energy, including the refusals of
``spectrum``, and runs ``verify``, ``particular`` and ``criticality`` once
more under a ``--config`` file; the input files are written to one
temporary directory that both trees read.

    python3 benchmarks/same_outputs.py --a OLD/src --b NEW/src

``--a`` and ``--b`` name a directory holding the ``conespec`` package (a
checkout's ``src/``).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FILES = {
    "modes.json": {"coeffs": {"1": 1.0, "3": -0.5, "5": 0.25}},
    # sphere degrees 0, 1 and 2, the mix of perfbench's particular ops
    "modes145.json": {"coeffs": {"1": 1.0, "4": -0.5, "5": 0.25}},
    "cone.json": {"kind": "cone"},
    "perturbed.json": {"kind": "perturbed", "eps": 0.01, "exponent": 1.5},
    "grid1024.json": {"grid_n": 1024},
}

RUNS = (
    ["cone", "--dim", "7"],
    ["sl", "--dim", "7", "--mu", "12", "--bc", "robin", "--k", "3"],
    ["sl", "--dim", "7", "--mu", "3e6", "--bc", "robin", "--k", "17"],
    ["sl", "--dim", "12", "--mu", "0", "--bc", "dirichlet", "--k", "2"],
    ["report", "--dims", "3..12"],
    *(["verify", "--dim", d] for d in ("3", "7", "12", "24")),
    ["spectrum", "--dim", "7", "--lambda-max", "300"],
    ["spectrum", "--dim", "12", "--lambda-max", "300"],
    ["spectrum", "--dim", "3", "--lambda-max", "3000"],
    ["spectrum", "--dim", "7", "--lambda-max", "3000"],
    ["spectrum", "--dim", "7", "--lambda-max", "5"],
    ["spectrum", "--dim", "7", "--lambda-max", "1e6"],
    ["spectrum", "--dim", "7", "--lambda-max", "1e300"],
    ["boundary-spectrum", "--dim", "7", "--count", "8"],
    *(["particular", "--dim", d, "--beta", "0.7", "--modes", "modes.json"]
      for d in ("7", "10", "12")),
    *(["particular", "--dim", d, "--beta", "0.7", "--modes", "modes145.json"]
      for d in ("7", "12")),
    # the complex ground mode at d = 3 has no real radial solve: exit 2
    ["particular", "--dim", "3", "--beta", "0.7", "--modes", "modes.json"],
    ["weiss", "--dim", "7", "--field", "cone.json", "--radii", "0.5,1,2"],
    ["weiss", "--dim", "7", "--field", "perturbed.json", "--radii", "0.5,1,2"],
    ["criticality", "--dim", "7"],
    ["--config", "grid1024.json", "verify", "--dim", "7"],
    ["--config", "grid1024.json", "particular", "--dim", "7", "--beta", "0.7",
     "--modes", "modes.json"],
    ["--config", "grid1024.json", "criticality", "--dim", "7"],
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
                json.dump(body, fh)
        for cli_argv in RUNS:
            a = run_cli(args.a, cli_argv, tmp)
            b = run_cli(args.b, cli_argv, tmp)
            same = a == b
            differ += not same
            what = (f"exit {a[0]}, stdout {len(a[1])} B, stderr {len(a[2])} B" if same else
                    f"exit {a[0]} -> {b[0]}, stdout {'same' if a[1] == b[1] else 'differs'}, "
                    f"stderr {'same' if a[2] == b[2] else 'differs'}")
            print(f"{'same' if same else 'DIFF':<5} {' '.join(cli_argv):<78} {what}")
    print(f"{len(RUNS) - differ} of {len(RUNS)} runs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
