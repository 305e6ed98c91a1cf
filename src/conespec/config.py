"""Solver configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import InputError, ParseError, ValidationError

ENV_CONFIG = "CONESPEC_CONFIG"

# Resonance threshold, one for the whole package: a boundary mode with
# |ell_k| <= RES_TOL is flagged resonant, an interior homogeneity radicand
# ((d-2)/2)^2 + lam within it is a log mode, and a radial mode with
# min(|P|, |Q|) <= RES_TOL (P, Q = d/2 +- delta - beta) is refused as
# resonant with the source decay.
RES_TOL = 1e-7

# Largest profile grid.  At 2**20, particular at d = 7 peaks near 950 MB of
# resident memory, the most of any command; far larger grids would fail with
# a numpy allocation error instead of a config error.
GRID_N_MAX = 2 ** 20


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 4096          # profile grid resolution (points = grid_n + 1, rounded to 4k+1)
    cluster_tol: float = 1e-6   # eigenvalue clustering width in the integrability verdict
    r0: float = 1.0             # inner radius of the radial grid
    r_max: float = 1024.0       # outer radius (>= 2**10 * r0 keeps slope fits at 3 decades)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            allowed = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
        if not self.cluster_tol > 0:
            raise ValidationError(f"cluster_tol must be positive, got {self.cluster_tol!r}")
        if not 64 <= self.grid_n <= GRID_N_MAX:
            raise ValidationError(f"grid_n must lie in [64, {GRID_N_MAX}], got {self.grid_n}")
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


def unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of every JSON input: the object as a dict, refusing a
    key written twice (plain ``json`` keeps the last value silently)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {key!r} is repeated in one JSON object")
        obj[key] = value
    return obj


def load_config(path: str | None = None) -> SolverConfig:
    """Read a JSON config file; absent fields keep their defaults.

    An empty file (or ``path=None`` with no CONESPEC_CONFIG set) yields the
    default config.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
        if not path:
            return DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.strip():
            return DEFAULT_CONFIG
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or a repeated key
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return SolverConfig.from_dict(data)
