"""Seeded op lists for the three workloads, how to run each op, and its check.

Generation uses only the standard library, so an op list can be built and
compared without importing conespec.  Running and checking take a
``Session``: the imported package plus the state one library session keeps
between ops (the profiles of the energy workload, the files the CLI reads).

Why these workloads:

* ``sweep`` -- ``verify --dim d`` for d = 3..24 in seeded order.  Nearly all
  time is band shooting (kernels, sl) over many high-mu specs, with no work
  shared between ops; it also exercises the verdict far past d = 10.
* ``particular`` -- CLI ``particular`` ops, two seeded sources per d.  Ops at
  one d share the cone and its link spectrum, so an eigenpair memo gains here;
  boundary, radial and project_interior's eigen_k calls only show up here.
* ``energy`` -- library Weiss reports on four fields at a few hundred radii,
  plus an aperture scan of F_functional.  Weiss quadrature dominates and every
  F call solves a Dirichlet problem on a new band, so a memo should not move it.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("sweep", "particular", "energy")

SWEEP_DIMS = tuple(range(3, 25))
PARTICULAR_DIMS = (7, 8, 9, 10, 12)
# At every d in PARTICULAR_DIMS, modes {1, 4} and {2, 3} each hold one sphere
# degree 0 and one degree 1 boundary mode, and 5, 6 are the two degree 2 modes.
LOW_MODE_SETS = ((1, 4), (2, 3))
DEGREE2_MODES = (5, 6)
BETA_RANGE = (0.2, 0.9)
ENERGY_DIMS = tuple(range(7, 13))
RADII_PER_FIELD = 300
RADIUS_RANGE = (0.25, 4.0)
HALFWIDTHS_PER_DIM = 10
CRIT_EPS = 1e-4

# Tolerances pinned by the test suite.
LAMBDA1_FD_TOL = 1e-5
RESIDUAL_TOL = 1e-6
SLOPE_SLACK = 0.05
RESONANCE_GAP = 1e-3
W_CONST_TOL = 1e-8
MEASURE_TOL = 1e-7
DERIV_REL_TOL = 1e-4
CRITICALITY_REL = 1e-5


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        dims = list(SWEEP_DIMS)
        rng.shuffle(dims)
        return [{"id": f"sweep/d{d:02d}", "kind": "verify", "dim": d} for d in dims]
    if workload == "particular":
        ops = [op for d in PARTICULAR_DIMS for op in _sources(rng, d)]
        rng.shuffle(ops)
        return ops
    if workload == "energy":
        dims = list(ENERGY_DIMS)
        rng.shuffle(dims)
        return [op for d in dims for op in _energy_ops(rng, d)]
    raise ValueError(f"unknown workload {workload!r}")


def _sources(rng, d):
    """Seeded (beta, coefficient set) sources at one d.

    Each source takes one LOW_MODE_SETS entry and one degree 2 mode, and the
    two sources together cover modes 1..6.  Every op then projects onto sphere
    degrees 0, 1 and 2, so a pass costs about the same whatever the seed;
    beta is stratified over BETA_RANGE.
    """
    top = list(DEGREE2_MODES)
    rng.shuffle(top)
    sets = [[*low, k] for low, k in zip(LOW_MODE_SETS, top)]
    lo, hi = BETA_RANGE
    width = (hi - lo) / len(sets)
    betas = [rng.uniform(lo + i * width, lo + (i + 1) * width)
             for i in range(len(sets))]
    rng.shuffle(betas)
    return [{"id": f"particular/d{d:02d}/s{i}", "kind": "particular", "dim": d,
             "beta": beta,
             "coeffs": {str(k): rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
                        for k in modes}}
            for i, (modes, beta) in enumerate(zip(sets, betas))]


def _energy_ops(rng, d):
    def radii():
        lo, hi = math.log(RADIUS_RANGE[0]), math.log(RADIUS_RANGE[1])
        return [math.exp(rng.uniform(lo, hi)) for _ in range(RADII_PER_FIELD)]

    tag = f"energy/d{d:02d}"
    rest = [
        {"id": f"{tag}/weiss-cone", "kind": "weiss", "dim": d, "field": "cone",
         "radii": radii()},
        {"id": f"{tag}/weiss-power", "kind": "weiss", "dim": d, "field": "power",
         "exponent": rng.uniform(1.2, 1.6), "radii": radii()},
        {"id": f"{tag}/weiss-perturbed", "kind": "weiss", "dim": d,
         "field": "perturbed", "eps": rng.uniform(0.02, 0.1),
         "exponent": rng.uniform(1.2, 1.8), "radii": radii()},
        {"id": f"{tag}/weiss-halfplane", "kind": "weiss", "dim": d,
         "field": "halfplane", "radii": radii()},
        {"id": f"{tag}/aperture", "kind": "aperture", "dim": d,
         "factors": [math.exp(rng.uniform(-0.3, 0.3))
                     for _ in range(HALFWIDTHS_PER_DIM)]},
    ]
    rng.shuffle(rest)
    return [{"id": f"{tag}/profile", "kind": "profile", "dim": d}] + rest


def check_resonance_clearance(ops) -> None:
    """Every particular beta keeps RESONANCE_GAP from every d/2 +- delta.

    For d >= 7 the verified link spectrum has no eigenvalue in (0, d-1) (the
    sweep checks this), so inside (0, 1) the only resonances are beta = 0
    (lambda = d-1) and beta = 1 (lambda = 0); each op's check also reads the
    P, Q margins of every coupled mode from the CLI report.
    """
    for op in ops:
        if op["kind"] != "particular":
            continue
        if op["dim"] < 7 or min(op["beta"], 1.0 - op["beta"]) < RESONANCE_GAP:
            raise ValueError(f"{op['id']}: beta {op['beta']} too close to a resonance")


class Session:
    """The state one library session keeps across the ops of a pass."""

    def __init__(self, workdir: str):
        import conespec
        import conespec.cli

        self.cs = conespec
        self.cli = conespec.cli
        self.workdir = workdir
        self.profiles: dict = {}

    def prepare(self, ops) -> None:
        """Write the mode files the particular ops read (part of set-up)."""
        for op in ops:
            if op["kind"] == "particular":
                with open(self.path(op, "modes.json"), "w") as fh:
                    json.dump({"coeffs": op["coeffs"]}, fh)

    def path(self, op, suffix):
        return os.path.join(self.workdir, op["id"].replace("/", "-") + "-" + suffix)

    def run(self, op):
        """Execute one op; the return value is what ``check`` inspects."""
        cs, kind, d = self.cs, op["kind"], op["dim"]
        if kind == "verify":
            return self.cli.run(["verify", "--dim", str(d),
                                 "--out", self.path(op, "out.json")])
        if kind == "particular":
            return self.cli.run(["particular", "--dim", str(d),
                                 "--beta", repr(op["beta"]),
                                 "--modes", self.path(op, "modes.json"),
                                 "--out", self.path(op, "out.json")])
        if kind == "profile":
            self.profiles[d] = cs.solve_profile(d)
            return self.profiles[d]
        p = self.profiles[d]
        if kind == "weiss":
            field = op["field"]
            if field == "cone":
                u = cs.cone_field(p)
            elif field == "power":
                u = cs.power_field(p, op["exponent"])
            elif field == "perturbed":
                u = cs.perturbed_field(p, op["eps"], op["exponent"], 1)
            else:
                u = cs.halfplane_field(d)
            return u, cs.weiss_report(u, op["radii"])
        if kind == "aperture":
            t0 = p.theta0
            widths = [t0 - CRIT_EPS, t0, t0 + CRIT_EPS] + [t0 * f for f in op["factors"]]
            return [cs.F_functional(w, p, d) for w in widths]
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op, out) -> str | None:
        """None when the output passes its oracle, else why it does not."""
        kind, d = op["kind"], op["dim"]
        if kind in ("verify", "particular"):
            want = 1 if kind == "verify" and d <= 6 else 0
            if out != want:
                return f"exit {out}"
            with open(self.path(op, "out.json")) as fh:
                body = json.load(fh)
            return (self._check_verify(d, body) if kind == "verify"
                    else _check_particular(op, body))
        if kind == "profile":
            ok = 0.0 < out.theta0 < math.pi / 2 and all(map(math.isfinite, out.g))
            return None if ok else "profile not finite or aperture out of range"
        if kind == "weiss":
            return self._check_weiss(op, *out)
        return _check_aperture(out)

    def _check_verify(self, d, body):
        cs = self.cs
        if d >= 7 and (body["dim_kernel0"] != d or body["dim_kernel_d_minus_1"] != d - 1):
            return (f"kernel dims {body['dim_kernel0']}/{body['dim_kernel_d_minus_1']}"
                    f" != {d}/{d - 1}")
        p = cs.solve_profile(d)
        fd = float(cs.eigen_fd_crosscheck(cs.band_spec(p, 0.0, "robin"), 1)[0])
        if abs(body["lambda1"] - fd) > LAMBDA1_FD_TOL:
            return f"lambda1 {body['lambda1']} vs FD {fd}"
        return None

    def _check_weiss(self, op, u, rep):
        cs, d = self.cs, op["dim"]
        w = [float(v) for v in rep.W]
        if not all(map(math.isfinite, w)):
            return "non-finite W"
        field = op["field"]
        if field in ("cone", "halfplane"):
            scale = max(1.0, max(abs(v) for v in w))
            if max(w) - min(w) > W_CONST_TOL * scale:
                return f"W spread {max(w) - min(w):.2e} over radii"
            if field == "cone":
                ref = cs.link_measure_identity(self.profiles[d])[1]
            else:
                ref = cs.sphere_area(d - 1) / (2 * d)
            gap = max(abs(v - ref) for v in w) / abs(ref)
            return None if gap <= MEASURE_TOL else f"W vs measure gap {gap:.2e}"
        for r, lhs in list(zip(op["radii"], rep.dW_lhs))[:3]:
            _, rhs, _ = cs.weiss_derivative_check(u, r)
            rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            if rel > DERIV_REL_TOL:
                return f"dW/dr identity off by {rel:.2e} at r={r}"
        return None


def _check_particular(op, body):
    beta = op["beta"]
    for key in ("interior_residual", "boundary_residual"):
        if not body[key] <= RESIDUAL_TOL:
            return f"{key} {body[key]:.2e}"
    if not body["slope"] <= 1.0 - beta + SLOPE_SLACK:
        return f"slope {body['slope']:.4f} above {1.0 - beta + SLOPE_SLACK:.4f}"
    margin = min((min(abs(m["P"]), abs(m["Q"])) for m in body["per_mode"]),
                 default=math.inf)
    return None if margin >= RESONANCE_GAP else f"resonance margin {margin:.2e}"


def _check_aperture(vals):
    if not all(map(math.isfinite, vals)):
        return "non-finite F"
    f_lo, f0, f_hi = vals[:3]
    rel = abs((f_hi - f_lo) / (2 * CRIT_EPS)) / abs(f0)
    return None if rel <= CRITICALITY_REL else f"|dF/deps|/F = {rel:.2e}"
