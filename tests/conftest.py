import numpy as np
import pytest
from hypothesis import settings

from romlab import SpatialGrid, make_medium

# Property tests draw the same examples on every run and never fail on timing.
settings.register_profile("romlab", derandomize=True, deadline=None, database=None)
settings.load_profile("romlab")


def random_grid(rng, ncells):
    interior = np.sort(rng.uniform(0.0, 1.0, ncells - 1))
    return SpatialGrid(np.concatenate([[0.0], interior, [1.0]]))


def random_medium(rng, ncells=None, scattering=True):
    """Admissible random piecewise-constant medium on [0, 1]."""
    if ncells is None:
        ncells = int(rng.integers(4, 25))
    grid = random_grid(rng, ncells)
    sigma_t = rng.uniform(0.3, 4.0, ncells)
    if scattering:
        sigma_s = sigma_t * rng.uniform(0.05, 0.9, ncells)
    else:
        sigma_s = np.zeros(ncells)
    q = rng.uniform(0.0, 2.0, ncells)
    return make_medium(grid, sigma_t, sigma_s, q)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
