"""Solver configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import ParseError, ValidationError

ENV_CONFIG = "CONESPEC_CONFIG"


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 4096          # band grid resolution (points = grid_n + 1, rounded to 4k+1)
    lam_tol: float = 1e-10      # eigenvalue refinement tolerance
    res_tol: float = 1e-7       # resonance threshold for boundary eigenvalues
    cluster_tol: float = 1e-6   # eigenvalue clustering width for multiplicities
    quad_tol: float = 1e-9      # relative quadrature error budget
    root_tol: float = 1e-12     # Brent tolerance for the aperture root
    r0: float = 1.0             # inner radius of the radial grid
    r_max: float = 1024.0       # outer radius (>= 2**10 * r0 keeps slope fits at 3 decades)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            allowed = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
        for name in ("lam_tol", "res_tol", "cluster_tol", "quad_tol", "root_tol"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.grid_n < 64:
            raise ValidationError(f"grid_n must be >= 64, got {self.grid_n}")
        if not (self.r0 > 0 and self.r_max / self.r0 >= 4):
            raise ValidationError("require r0 > 0 and r_max/r0 >= 4")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(str(exc)) from exc


DEFAULT_CONFIG = SolverConfig()


def load_config(path: str | None = None) -> SolverConfig:
    """Read a JSON config file; absent fields keep their defaults.

    An empty file (or ``path=None`` with no CONESPEC_CONFIG set) yields the
    default config.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
        if not path:
            return DEFAULT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        return DEFAULT_CONFIG
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} at line {exc.lineno}, column {exc.colno}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return SolverConfig.from_dict(data)
