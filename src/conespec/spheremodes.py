"""Laplace-Beltrami eigenvalues and multiplicities on the factor sphere S^{d-2}.

The link separates as a theta band times S^{d-2}; each spherical harmonic
degree ell contributes mu = ell*(ell+d-3) with the dimension of the space of
degree-ell harmonics in R^{d-1}.  For d=3 the factor sphere is the circle:
mu = ell^2 with multiplicity 2 for ell >= 1 (the binomial count below covers
that case without special-casing).
"""

from __future__ import annotations

import dataclasses
from math import comb, floor, isqrt

# Largest sphere degree a mode table may hold: a table-size limit, not a
# setting.  Degree 10**5 already means mu ~ 1e10, far beyond what the band
# shots resolve (they overflow near mu = 1e12).
_MAX_DEGREE = 100_000


@dataclasses.dataclass(frozen=True)
class SphereMode:
    ell: int
    mu: float
    multiplicity: int


def harmonic_multiplicity(d: int, ell: int) -> int:
    """dim of spherical harmonics of degree ell on S^{d-2} (ambient R^{d-1})."""
    n = d - 1
    if ell == 0:
        return 1
    first = comb(n + ell - 1, n - 1)
    second = comb(n + ell - 3, n - 1) if n + ell - 3 >= n - 1 else 0
    return first - second


def modes_up_to(d: int, mu_max: float) -> list[SphereMode]:
    """All sphere modes with mu = ell(ell+d-3) <= mu_max, in increasing ell.

    Raises ``ValueError`` if the table would run past degree ``_MAX_DEGREE``.
    """
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if mu_max >= (_MAX_DEGREE + 1) * (_MAX_DEGREE + d - 2):  # mu of the next degree
        raise ValueError(f"mu_max={mu_max:g} reaches past sphere degree {_MAX_DEGREE}, "
                         "the most a mode table may hold")
    if mu_max < 0:
        return []
    # ell(ell+d-3) <= M  <=>  (2 ell + d-3)^2 <= 4M + (d-3)^2 for the integer
    # M = floor(mu_max), so the top degree is exact in integer arithmetic
    top = (isqrt(4 * floor(mu_max) + (d - 3) ** 2) - (d - 3)) // 2
    return [SphereMode(ell=ell, mu=float(ell * (ell + d - 3)),
                       multiplicity=harmonic_multiplicity(d, ell))
            for ell in range(top + 1)]
