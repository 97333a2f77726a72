import numpy as np
import pytest

from divkit import DiscreteDensity, GaussianDensity, densities


@pytest.fixture
def discrete_pair():
    """The worked two-point example: q = (0.5, 0.5) against p = (0.8, 0.2)."""
    return DiscreteDensity([0.5, 0.5]), DiscreteDensity([0.8, 0.2])


@pytest.fixture
def gaussian_pair():
    return GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def parsed(monkeypatch):
    """An empty parse cache for each test, so that no test sees another's
    files; calling it gives the entries kept now."""
    monkeypatch.setattr(densities, "_parsed", [])
    return lambda: densities._parsed
