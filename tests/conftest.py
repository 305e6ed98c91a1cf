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
    """Band eigenfunctions from the shooting path alone, on a Ritz cache
    cleared before and after: no eigenfunction is a Legendre series."""
    monkeypatch.setattr(sl, "_series_fn", lambda spec, k: None)
    sl._ritz.cache_clear()
    yield
    sl._ritz.cache_clear()
