"""Factor-sphere harmonics: multiplicities against a monomial-rank oracle."""

import itertools

import numpy as np
import pytest

from conespec import spheremodes
from conespec.spheremodes import harmonic_multiplicity, modes_up_to


def _monomials(n_vars, degree):
    return [m for m in itertools.product(range(degree + 1), repeat=n_vars)
            if sum(m) == degree]


def _harmonic_dim_by_rank(n_vars, degree):
    """dim ker(Laplacian) on degree-l homogeneous polynomials, by brute rank.

    The Laplacian maps P_l -> P_{l-2}; harmonics are its kernel, so the
    dimension is #monomials(l) - rank of the matrix of second derivatives.
    """
    mono_l = _monomials(n_vars, degree)
    if degree < 2:
        return len(mono_l)
    mono_lm2 = {m: i for i, m in enumerate(_monomials(n_vars, degree - 2))}
    mat = np.zeros((len(mono_lm2), len(mono_l)))
    for j, m in enumerate(mono_l):
        for v in range(n_vars):
            if m[v] >= 2:
                out = list(m)
                out[v] -= 2
                mat[mono_lm2[tuple(out)], j] += m[v] * (m[v] - 1)
    return len(mono_l) - np.linalg.matrix_rank(mat)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplicity_matches_monomial_rank_oracle(d):
    for ell in range(7):
        assert harmonic_multiplicity(d, ell) == _harmonic_dim_by_rank(d - 1, ell)


def test_circle_case():
    # d=3: the factor sphere is S^1, mu = ell^2, multiplicity 2 for ell >= 1
    modes = modes_up_to(3, 25.0)
    assert [m.ell for m in modes] == [0, 1, 2, 3, 4, 5]
    assert [m.mu for m in modes] == [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]
    assert [m.multiplicity for m in modes] == [1, 2, 2, 2, 2, 2]


def test_modes_up_to_is_complete_and_cut():
    modes = modes_up_to(7, 40.0)
    assert [m.ell for m in modes] == [0, 1, 2, 3, 4]   # 5*9 = 45 > 40
    for m in modes:
        assert m.mu == m.ell * (m.ell + 4)
        assert m.mu <= 40.0
    assert modes_up_to(7, 44.9)[-1].ell == 4


def test_top_degree_is_exact_and_bounded():
    # the closed-form top degree is exact at and just below every tabulated
    # mu, and a table past the degree limit is refused
    for d in (3, 7, 24):
        for ell in range(60):
            mu = ell * (ell + d - 3)
            assert modes_up_to(d, mu)[-1].ell == ell
            assert len(modes_up_to(d, mu - 1e-9)) == ell
    top = spheremodes._MAX_DEGREE
    assert modes_up_to(7, top * (top + 4))[-1].ell == top
    for mu_max in ((top + 1) * (top + 5), 1e300, float("inf")):
        with pytest.raises(ValueError, match="past sphere degree"):
            modes_up_to(7, mu_max)
    assert modes_up_to(7, -1.0) == []


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        modes_up_to(2, 10.0)
