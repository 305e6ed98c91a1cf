"""Shared fixtures: the expensive objects (profiles, spectra, boundary bases)
are built once per session and reused across test modules."""

import pytest

from conespec import sl
from conespec.boundary import boundary_modes
from conespec.linkspec import link_spectrum
from conespec.profile import solve_profile


@pytest.fixture(scope="session")
def p3():
    return solve_profile(3)


@pytest.fixture(scope="session")
def p4():
    return solve_profile(4)


@pytest.fixture(scope="session")
def p7():
    return solve_profile(7)


@pytest.fixture(scope="session")
def link3(p3):
    return link_spectrum(p3, 12.0)


@pytest.fixture(scope="session")
def link7(p7):
    return link_spectrum(p7, 28.0)


@pytest.fixture(scope="session")
def bmodes7(p7):
    return boundary_modes(p7, 6)


@pytest.fixture
def shots_only(monkeypatch):
    """Band eigenvalues, eigenfunctions and counts from the shooting path
    alone, on a memo cleared before and after: the Ritz check refuses every
    eigenvalue and every count."""
    monkeypatch.setattr(sl, "_ritz_eigenvalue", lambda spec, k: None)
    monkeypatch.setattr(sl, "_ritz_count", lambda spec, lam: None)
    sl._memo.clear()
    yield
    sl._memo.clear()
