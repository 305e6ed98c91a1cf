"""Span tracer that wraps conespec's public functions from outside the package.

Modules import these functions by name (``from .sl import eigen_k``), so
rebinding only the defining module would miss most call sites.  ``install``
therefore rebinds every ``conespec.*`` module attribute that is the same
function object, and ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, op, error, info]``
lists; ``parent`` is the index of the enclosing span (-1 at top level) and
``info`` holds the layer's work count (grid points for a kernel call, the
eigenpair key for ``eigen_k``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

NAME, START, END, PARENT, OP, ERROR, INFO = range(7)
ROOT_SPAN = "bench.op"  # one per op, opened by the worker around the whole op

# layer -> traced public functions.  spheremodes, config and errors cost too
# little to measure.
LAYERS = {
    "kernels": ("propagate_band",),
    "profile": ("solve_profile",),
    "sl": ("eigen_k",),
    "linkspec": ("assemble", "link_spectrum", "verify_strong_integrability"),
    "boundary": ("boundary_modes",),
    "radial": ("transfer_boundary", "project_interior", "solve_radial_modes",
               "build_up"),
    "weiss": ("weiss", "weiss_report", "F_functional", "perturbed_field"),
    "cli": ("run",),
}


def _kernel_points(args, kwargs):
    thetas = kwargs["thetas"] if "thetas" in kwargs else args[3]
    return len(thetas)


def _eigen_key(args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[0]
    k = kwargs["k"] if "k" in kwargs else args[1]
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    if cfg is None:  # eigen_k's own default
        cfg = sys.modules["conespec.config"].DEFAULT_CONFIG
    return (spec, k, cfg)


_INFO = {"kernels.propagate_band": _kernel_points, "sl.eigen_k": _eigen_key}


class Tracer:
    """Records one span per call of every wrapped function while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        info_fn = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            info = info_fn(args, kwargs) if info_fn else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self):
        """Rebind every module attribute that refers to a traced function."""
        homes = {layer: importlib.import_module(f"conespec.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "conespec" or n.startswith("conespec."))]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times of one traced pass, as name -> (value, unit)."""
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors = {layer: 0 for layer in LAYERS}
    points = 0
    eigen_keys = set()
    shots_in_eigen = project_eigen = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + selfs[i]
        layer = _layer(name)
        if s[ERROR] is not None and layer in errors and (
                parent is None or _layer(parent) != layer):
            errors[layer] += 1
        if name == "kernels.propagate_band":
            points += s[INFO]
            shots_in_eigen += parent == "sl.eigen_k"
        elif name == "sl.eigen_k":
            eigen_keys.add(s[INFO])
            project_eigen += parent == "radial.project_interior"

    def ratio(a, b):
        return a / b if b else 0.0

    kern_calls = calls.get("kernels.propagate_band", 0)
    kern_busy = busy.get("kernels.propagate_band", 0.0)
    eig_calls = calls.get("sl.eigen_k", 0)
    m = {
        "kernels.calls": (kern_calls, "count"),
        "kernels.points": (points, "count"),
        "kernels.busy_s": (kern_busy, "s"),
        "kernels.us_per_kpoint": (ratio(kern_busy * 1e9, points), "us/kpoint"),
        "sl.eigen_k.calls": (eig_calls, "count"),
        "sl.eigen_k.distinct": (len(eigen_keys), "count"),
        "sl.distinct_ratio": (ratio(len(eigen_keys), eig_calls), "ratio"),
        "sl.shots_per_pair": (ratio(shots_in_eigen, eig_calls), "shots/call"),
        "sl.self_s": (own.get("sl.eigen_k", 0.0), "s"),
        "linkspec.assemble.busy_s": (busy.get("linkspec.assemble", 0.0), "s"),
        "linkspec.verify.self_s":
            (own.get("linkspec.verify_strong_integrability", 0.0), "s"),
        "profile.calls": (calls.get("profile.solve_profile", 0), "count"),
        "profile.busy_s": (busy.get("profile.solve_profile", 0.0), "s"),
        "boundary.calls": (calls.get("boundary.boundary_modes", 0), "count"),
        "boundary.busy_s": (busy.get("boundary.boundary_modes", 0.0), "s"),
        "radial.transfer.busy_s": (busy.get("radial.transfer_boundary", 0.0), "s"),
        "radial.project.busy_s": (busy.get("radial.project_interior", 0.0), "s"),
        "radial.project.eigen_k_calls": (project_eigen, "count"),
        "radial.solve.busy_s": (busy.get("radial.solve_radial_modes", 0.0), "s"),
        "weiss.weiss.calls": (calls.get("weiss.weiss", 0), "count"),
        "weiss.weiss.busy_s": (busy.get("weiss.weiss", 0.0), "s"),
        "weiss.report.busy_s": (busy.get("weiss.weiss_report", 0.0), "s"),
        "weiss.F.calls": (calls.get("weiss.F_functional", 0), "count"),
        "weiss.F.self_s": (own.get("weiss.F_functional", 0.0), "s"),
        "cli.run.self_s": (own.get("cli.run", 0.0), "s"),
    }
    for layer, n in errors.items():
        m[f"{layer}.errors"] = (n, "count")
    return m


def op_gaps(spans, op_walls: dict) -> dict:
    """Per op: its measured wall time minus the sum of its spans' self times.

    Self times partition the op's root span, so the gap is only the cost of
    entering and leaving that span.
    """
    covered = dict.fromkeys(op_walls, 0.0)
    for s, st in zip(spans, self_times(spans)):
        covered[s[OP]] += st
    return {op: op_walls[op] - covered[op] for op in op_walls}

