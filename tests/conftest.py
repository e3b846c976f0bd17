from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from romlab import BoundarySpec, ConstantBoundary, SpatialGrid, StudyConfig, make_medium
from romlab.config import load_config, study_config
from romlab.medium import weighted_norm_of

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Property tests never fail on timing, and derandomize fixes their random
# choices.  The examples still depend on what the session has imported:
# Hypothesis mixes constants it finds in loaded local modules into its
# draws, so a property test can draw other examples alone than in the suite.
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


def source_iteration(medium, sweep, eps):
    """Fixed point of phi -> sweep(sigma_s * phi + q), iterated from phi = 0.

    ``sweep`` maps a per-cell source to the weighted ordinate sum of its
    sweeps with the inflow data.  Stops once the step certifies
    ||phi - phi*|| <= eps: an oracle for solve that makes no linear solve.
    """
    phi = np.zeros(medium.ncells)
    for _ in range(100_000):
        nxt = sweep(medium.sigma_s * phi + medium.q)
        step = weighted_norm_of(nxt - phi, medium)
        phi = nxt
        # ||phi - phi*|| <= lambda / (1 - lambda) * step
        if step <= eps * (1.0 - medium.lam):
            return phi
    raise AssertionError("source iteration did not reach eps")


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
