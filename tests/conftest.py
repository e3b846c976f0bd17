from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from romlab import BoundarySpec, ConstantBoundary, SpatialGrid, StudyConfig, make_medium
from romlab.config import load_config, study_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def small_config(**overrides):
    """StudyConfig on [0, 1]: lambda = 1/2, q = 0, unit inflow on the left only."""
    ncells = overrides.pop("ncells", 24)
    grid = SpatialGrid.uniform(0.0, 1.0, ncells)
    ones = np.ones(ncells)
    medium = make_medium(grid, ones, 0.5 * ones, np.zeros(ncells))
    defaults = dict(
        medium=medium,
        boundary=BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0)),
        delta=0.05,
        n_list=(4, 8, 16),
        sample_count=24,
        master_seed=5,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def shipped_config(name: str) -> StudyConfig:
    """StudyConfig of configs/<name>.json, loaded as ``romlab study`` loads it."""
    return study_config(load_config(CONFIGS / f"{name}.json"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
